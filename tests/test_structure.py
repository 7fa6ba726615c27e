"""Module boundaries of the package: no module reaches into another's private names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "speechpipe"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """`module.name` for every underscore-prefixed, non-dunder name that
    `path` imports from a speechpipe module (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level > 0 or module == "speechpipe" or module.startswith("speechpipe.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{module}.{name}")
    return found


def test_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path) == []
