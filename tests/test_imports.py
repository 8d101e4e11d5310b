"""The lint step: every name a library module imports is used in it."""

import ast
from pathlib import Path

import pytest

import unicomplex

MODULES = sorted(Path(unicomplex.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements (at any depth, `__future__` aside)
    that no Name node of the module reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "def f():\n"
        "    from itertools import count\n"
        "    return os.path, gcd\n"
    )
    assert unused_imports(source) == [(3, "j"), (4, "lcm"), (6, "count")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
