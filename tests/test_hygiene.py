"""Source hygiene: every name a ``wknots`` module imports is used in it."""

import ast
from pathlib import Path

import pytest

import wknots

MODULES = sorted(Path(wknots.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_unused_import_is_detected():
    assert unused_imports("from .rings import TruncSeries\nimport os.path\n"
                          "from __future__ import annotations\n"
                          "x = os.path.join\n") == {"TruncSeries"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()
