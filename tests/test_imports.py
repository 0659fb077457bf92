"""Every module-level import of a `cqgkac` module, and of a script under
`tools/`, is used in that file, so a deletion that leaves an import behind
fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cqgkac").glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str):
    """Names bound by the module's own import statements (not `from
    __future__`) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TOOLS,
                         ids=[p.name for p in MODULES] + [f"tools/{p.name}" for p in TOOLS])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("from .algebra import rat, rat_str\nrat_str(1)\n", [(1, "rat")]),
    ("import os.path\nimport json as j\nos.sep\n", [(2, "j")]),
    ("from __future__ import annotations\n", []),
    ("from typing import NamedTuple\ndef f(x: NamedTuple): pass\n", []),
])
def test_unused_imports_finds_each_unread_name(source, unused):
    assert unused_imports(source) == unused
