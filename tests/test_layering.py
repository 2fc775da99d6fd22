"""The package's modules import each other bottom up, with no cycle.

Each module may import only from modules strictly below it:
``exactmat`` < ``polycone`` < ``grading`` < ``positivity``, ``components``
< ``cli``; the package ``__init__`` and ``__main__`` sit on top.  And every
definition in the package is used inside it or exported by ``__all__``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import glaurent

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


def used_names(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions() -> list[str]:
    """Module-level functions and classes, and non-dunder methods, that no
    code in the package names outside their own body and that ``__all__``
    does not export."""
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    used = sum((used_names(tree) for tree in trees), Counter())
    exported = set(glaurent.__all__)
    defs = ast.FunctionDef, ast.ClassDef
    candidates = []
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, defs):
                candidates.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                candidates += [
                    (f"{path.stem}.{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, defs) and not m.name.startswith("__")
                ]
    return [
        qualified
        for qualified, d in candidates
        if d.name not in exported and used[d.name] == used_names(d)[d.name]
    ]


def test_no_dead_definitions():
    assert unreferenced_definitions() == []
