"""`algebra.Combination` is the package's one container of exact sparse
combinations: no other `cqgkac` module defines `_wrap`, `add_terms` or a
`_terms` slot, so a second copy of it fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OTHERS = sorted(p for p in (ROOT / "src" / "cqgkac").glob("*.py") if p.name != "algebra.py")
CONTAINER = {"_wrap", "add_terms"}


def container_parts(source: str):
    """(line, name) of every function named `_wrap` or `add_terms`, and of
    every `__slots__` that lists "_terms", at any depth of the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in CONTAINER:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            if any(isinstance(c, ast.Constant) and c.value == "_terms"
                   for c in ast.walk(node.value)):
                found.append((node.lineno, "_terms slot"))
    return found


@pytest.mark.parametrize("path", OTHERS, ids=[p.name for p in OTHERS])
def test_only_algebra_defines_the_container(path):
    assert container_parts(path.read_text(encoding="utf-8")) == []


def test_algebra_defines_the_container():
    parts = {name for _line, name in container_parts(
        (ROOT / "src" / "cqgkac" / "algebra.py").read_text(encoding="utf-8"))}
    assert parts == CONTAINER | {"_terms slot"}


@pytest.mark.parametrize("source, found", [
    ("class T:\n    __slots__ = ('_terms',)\n", [(2, "_terms slot")]),
    ("class T:\n    __slots__ = '_terms'\n", [(2, "_terms slot")]),
    ("class T:\n    @classmethod\n    def _wrap(cls, t): pass\n", [(3, "_wrap")]),
    ("def add_terms(acc, terms): pass\n", [(1, "add_terms")]),
    ("class T(Combination):\n    __slots__ = ()\n    def of(cls): return cls._wrap({})\n", []),
])
def test_container_parts_finds_each_definition(source, found):
    assert container_parts(source) == found
