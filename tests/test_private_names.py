"""The package's modules do not reach into each other's _private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gl3weights"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_module(node):
    """The module of the package an import reads from: "" for the package
    itself, None for an import from elsewhere."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module.split(".")[0] == "gl3weights":
        return node.module.partition(".")[2]
    return None


def private_reaches(source):
    """Line and text of each private name one module takes from a sibling:
    `from .m import _name`, or `m._name` where m names a sibling module."""
    tree = ast.parse(source)
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or package_module(node) is None:
            continue
        module = package_module(node)
        for alias in node.names:
            if not module and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif module and is_private(alias.name):
                found.append((node.lineno, f"from {module} import {alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_the_check_sees_both_forms():
    source = (
        "from . import weights as wt\n"
        "from .arith import _hidden, check_prime\n"
        "from gl3weights.cycling import _frame\n"
        "def f():\n"
        "    from .predicted import _mu\n"
        "    return wt._secret, wt.__name__, wt.canonicalize\n"
    )
    assert private_reaches(source) == [
        (2, "from arith import _hidden"),
        (3, "from cycling import _frame"),
        (5, "from predicted import _mu"),
        (6, "weights._secret"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_a_sibling_private_name(path):
    assert private_reaches(path.read_text()) == []
