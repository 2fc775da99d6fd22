"""The benchmark's span tracer names only functions the package still has.

``perfbench/spans.py`` wraps the functions listed in ``TRACED`` and reads
``cache_info`` off those in ``CACHED``; a rename in the package would break
``perfbench/run.py --trace 1``.  The file is parsed, not imported, so these
tests read its two tables without running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def spans_table(name: str):
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == name:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {SPANS}")


TRACED = [f"{layer}.{fname}" for layer, names in spans_table("TRACED").items()
          for fname in names]
CACHED = spans_table("CACHED")


def resolve(name: str):
    layer, fname = name.split(".")
    return getattr(importlib.import_module(f"glaurent.{layer}"), fname)


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_exists(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", CACHED)
def test_cached_function_has_cache_info(name):
    assert name in TRACED
    assert hasattr(resolve(name), "cache_info"), name
