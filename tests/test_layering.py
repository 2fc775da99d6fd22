"""The package's modules import each other bottom up, with no cycle.

Each module may import only from modules strictly below it:
``exactmat`` < ``polycone`` < ``grading`` < ``positivity``, ``components``
< ``cli``; the package ``__init__`` and ``__main__`` sit on top.
"""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "glaurent"
LEVEL = {
    "exactmat": 0,
    "polycone": 1,
    "grading": 2,
    "positivity": 3,
    "components": 3,
    "cli": 4,
    "__init__": 5,
    "__main__": 5,
}


def relative_imports(module: str) -> set[str]:
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    return set(re.findall(r"^from \.(\w+) import", text, re.M))


def test_every_module_has_a_level():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LEVEL)


@pytest.mark.parametrize("module", sorted(LEVEL))
def test_imports_only_from_lower_levels(module):
    for imported in relative_imports(module):
        assert LEVEL[imported] < LEVEL[module], f"{module} imports {imported}"


def test_grading_builds_on_polycone():
    assert "polycone" in relative_imports("grading")
    assert "grading" not in relative_imports("polycone")


@pytest.mark.parametrize("module", sorted(LEVEL))
def test_no_fractions_at_runtime(module):
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert not re.search(r"^\s*(from fractions |import fractions)", text, re.M)
