"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gl3weights"
SOURCES = sorted(PACKAGE.glob("*.py"))


def foreign_imports(source):
    """Line and top-level name of each import that is not relative, not
    `__future__` and not a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append((node.lineno, top))
    return found


def test_the_check_sees_both_forms():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy as np\n"
        "from . import arith\n"
        "from .weights import dual\n"
        "def f():\n"
        "    from sympy.ntheory import isprime\n"
        "    from os.path import join\n"
    )
    assert foreign_imports(source) == [(2, "numpy"), (6, "sympy")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
