"""Checks a linter would make, written on the stdlib's `ast` alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "epshift"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads, with their line numbers."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# __init__.py imports to re-export, so every name it imports is unused there
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(module):
    assert unused_imports(ast.parse((SRC / module).read_text(), module)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os, os.path\nfrom typing import Any, Optional as Opt\n"
                     "from __future__ import annotations\nx: Opt[int] = os.sep\n")
    assert unused_imports(tree) == ["Any (line 2)"]
