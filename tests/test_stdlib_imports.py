"""The package imports nothing outside the standard library, and no file of
the package or its tests imports a name it never uses."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl3weights"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def unused_imports(source):
    """Line and bound name of each import, at any depth, whose name no
    expression of the file reads; `import a.b` binds and is read as `a`."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def test_the_unused_check_sees_every_binding():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from .arith import orbit_rep, row_reps as reps\n"
        "def f(n: Path) -> None:\n"
        "    from json import dumps\n"
        "    return os.sep, xml.dom.minidom\n"
        "from pathlib import Path\n"
    )
    assert unused_imports(source) == [(2, "system"), (4, "orbit_rep"), (4, "reps"),
                                      (6, "dumps")]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
