"""Source hygiene of the package modules.

An import that no line of its module reads is dead code: it outlives the
caller that needed it and hides which layer a module really depends on.
The package's __init__.py imports to re-export, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import cppforge

MODULES = sorted(p for p in Path(cppforge.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_unread_import_is_reported():
    src = "from .permcheck import eval_poly, value_table\nvalue_table\n"
    assert _unread_imports(src) == ["eval_poly (line 1)"]
