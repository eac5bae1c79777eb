"""Records store their fields in `arith.Record` alone, by one of two stores:
`Record.__new__`, which counts the fields for `Cls(...)` and hands them to
`tuple.__new__`, and the trusted `Record._make`, which is `tuple.__new__`
itself.  No other module calls `tuple.__new__`, no module spells the trusted
path `Cls.__new__(Cls, ...)`, no module reaches `object.__setattr__` or
`object.__new__` or generates code with `exec` or `compile`, no module calls
`Record.__init__`, and no class but `Record` defines `__new__`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gl3weights"
SOURCES = sorted(PACKAGE.glob("*.py"))
RAW_STORES = {"object.__setattr__", "object.__new__"}
CODE_MAKERS = {"exec", "compile"}
STORE = "tuple.__new__"  # allowed in the home module only


def stores(source, home=False):
    """Line and text of each store but the two: a reference to a raw store,
    a code maker or `Record.__init__`, a reference to `tuple.__new__` outside
    the home module, a call `Cls.__new__(Cls, ...)`, or a `__new__` defined
    in a class other than the home module's `Record`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            if name in RAW_STORES or name == "Record.__init__" or (name == STORE and not home):
                found.append((node.lineno, name))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
              and node.args and isinstance(node.args[0], ast.Name)
              and node.args[0].id == node.func.value.id):
            found.append((node.lineno, f"{node.func.value.id}.__new__({node.args[0].id}, ...)"))
        elif isinstance(node, ast.Name) and node.id in CODE_MAKERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ClassDef) and not (node.name == "Record" and home):
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
        "exec(compile('def __new__(cls): pass', '', 'exec'), {})\n"
        "make = exec\n"
        "class Record(tuple):\n"
        "    def __new__(cls, *values):\n"
        "        return tuple.__new__(cls, values)\n"
        "    _make = classmethod(tuple.__new__)\n"
        "w = W.__new__(W, 1)\n"
    )
    assert stores(source) == [
        (2, "W.__new__"),
        (3, "object.__new__"),
        (4, "object.__setattr__"),
        (7, "Record.__init__"),
        (8, "object.__setattr__"),
        (9, "compile"),
        (9, "exec"),
        (10, "exec"),
        (12, "Record.__new__"),
        (13, "tuple.__new__"),
        (14, "tuple.__new__"),
        (15, "W.__new__(W, ...)"),
    ]
    assert stores(source, home=True) == [
        (2, "W.__new__"),
        (3, "object.__new__"),
        (4, "object.__setattr__"),
        (7, "Record.__init__"),
        (8, "object.__setattr__"),
        (9, "compile"),
        (9, "exec"),
        (10, "exec"),
        (15, "W.__new__(W, ...)"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_records_are_stored_in_one_place(path):
    assert stores(path.read_text(), home=path.name == "arith.py") == []
