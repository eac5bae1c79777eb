"""Records store their fields in one place, `arith.Record.__new__`: no other
module reaches `object.__setattr__` or `object.__new__`, no module calls
`Record.__init__`, and no record class but `Record` and `Decomposition`
defines `__new__`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gl3weights"
SOURCES = sorted(PACKAGE.glob("*.py"))
RAW_STORES = {"object.__setattr__", "object.__new__"}
OWN_NEW = {"Record", "Decomposition"}  # Decomposition's gives its coordinates defaults


def stores(source, home=False):
    """Line and text of each store outside `Record.__new__`: a reference to
    a raw store (allowed in the home module), to `Record.__init__`, or a
    `__new__` defined in a class other than those of OWN_NEW."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            if name == "Record.__init__" or (name in RAW_STORES and not home):
                found.append((node.lineno, name))
        elif isinstance(node, ast.ClassDef) and node.name not in OWN_NEW:
            found += [(f.lineno, f"{node.name}.__new__") for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "__new__"]
    return sorted(found)


def test_the_check_sees_every_form():
    source = (
        "class W(Record):\n"
        "    def __new__(cls, p):\n"
        "        w = object.__new__(cls)\n"
        "        object.__setattr__(w, 'p', p)\n"
        "        return w\n"
        "    def __init__(self, p):\n"
        "        Record.__init__(self, p)\n"
        "put = object.__setattr__\n"
    )
    assert stores(source) == [
        (2, "W.__new__"),
        (3, "object.__new__"),
        (4, "object.__setattr__"),
        (7, "Record.__init__"),
        (8, "object.__setattr__"),
    ]
    assert stores(source, home=True) == [(2, "W.__new__"), (7, "Record.__init__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_records_are_stored_in_one_place(path):
    assert stores(path.read_text(), home=path.name == "arith.py") == []
