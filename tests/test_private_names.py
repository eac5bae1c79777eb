"""The package's modules do not reach into each other's _private names, and
no function keeps hidden state in a module-level name."""

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


# methods of the builtin containers, and of deque, that change the receiver
MUTATORS = frozenset(
    "add append appendleft clear difference_update discard extend extendleft insert"
    " intersection_update pop popitem popleft remove reverse rotate setdefault sort"
    " symmetric_difference_update update".split())
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_names(tree):
    """Names bound at module level, in top-level if and try blocks too."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            stack += [s for block in ("body", "orelse", "finalbody", "handlers")
                      for s in getattr(node, block, ())]
        else:
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def own_scope(fn):
    """The nodes of a function's body, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def root_name(node):
    """The name an attribute and subscript chain starts from, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def hidden_state(source):
    """Line and text of each place a function changes a module-level name:
    a store or delete through a subscript or an attribute, a call of a
    mutating method, or a rebinding under `global`.  `globals()[name] = v`
    stores into the namespace the call returns, not into a named global."""
    tree = ast.parse(source)
    shared = module_names(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, SCOPES):
            continue
        name = getattr(fn, "name", "<lambda>")
        nodes = list(own_scope(fn))
        declared = {g for n in nodes if isinstance(n, ast.Global) for g in n.names}
        args = fn.args
        local = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {n.name for n in nodes if isinstance(n, SCOPES[:2])}
        outer = (shared - local) | declared
        for n in nodes:
            if isinstance(n, ast.Global):
                found += [(n.lineno, f"{name} rebinds {g}") for g in n.names if g in shared]
            elif (isinstance(n, (ast.Attribute, ast.Subscript))
                  and isinstance(n.ctx, (ast.Store, ast.Del)) and root_name(n.value) in outer):
                found.append((n.lineno, f"{name} stores into {ast.unparse(n)}"))
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in MUTATORS and root_name(n.func.value) in outer):
                found.append((n.lineno, f"{name} calls {ast.unparse(n.func)}"))
    return sorted(found)


def test_the_hidden_state_check_sees_each_form():
    source = (
        "import os\n"
        "_memo = {}\n"
        "_last: list = [None]\n"
        "class K:\n"
        "    pass\n"
        "def f(x, local=[]):\n"
        "    _memo[x] = 1\n"
        "    _last[0] = x\n"
        "    K.seen = x\n"
        "    _memo.update(a=1)\n"
        "    os.environ.setdefault('A', 'b')\n"
        "    del _memo[x]\n"
        "    local.append(x)\n"
        "    _memo.get(x)\n"
        "    globals()[x] = 1\n"
        "    def g(_memo):\n"
        "        _memo.clear()\n"
        "    return lambda: _last.clear()\n"
        "def h():\n"
        "    _memo = {}\n"
        "    _memo['a'] = 1\n"
        "def k():\n"
        "    global _last\n"
        "    _last = []\n"
    )
    assert hidden_state(source) == [
        (7, "f stores into _memo[x]"),
        (8, "f stores into _last[0]"),
        (9, "f stores into K.seen"),
        (10, "f calls _memo.update"),
        (11, "f calls os.environ.setdefault"),
        (12, "f stores into _memo[x]"),
        (18, "<lambda> calls _last.clear"),
        (23, "k rebinds _last"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_changes_a_module_level_name(path):
    assert hidden_state(path.read_text()) == []
