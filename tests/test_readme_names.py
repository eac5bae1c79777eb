"""Every identifier README.md names in backticks, if it holds a `_` or a `.`,
resolves: an attribute path from a package module or a name bound at the top
of one, or a top-level name of the tests."""

import ast
import re
from importlib import import_module
from pathlib import Path
from types import ModuleType

import gl3weights

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl3weights"
TOKEN = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")
# README words that are Python's, or a file name, rather than the project's
ALLOWED = frozenset({"__future__", "__new__", "_fields", "_private", "collections.namedtuple",
                     "object.__new__", "object.__setattr__", "pyproject.toml",
                     "tuple.__new__"})


def package_heads():
    """Name -> the objects it names: each package module, and each name bound
    at the top of one, other modules' objects excepted."""
    modules = {path.stem: gl3weights if path.stem == "__init__"
               else import_module(f"gl3weights.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))}
    heads = {"gl3weights": [gl3weights]}
    for stem, module in modules.items():
        heads.setdefault(stem, []).append(module)
        for name, value in vars(module).items():
            if not (isinstance(value, ModuleType) and value not in modules.values()):
                heads.setdefault(name, []).append(value)
    return heads


def top_level_test_names():
    """Each test module's name and the names its top level defines."""
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        names.add(path.stem)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def resolves(token, heads, tests):
    if token in ALLOWED or token in tests:
        return True
    head, *path = token.split(".")
    for value in heads.get(head, ()):
        try:
            for attr in path:
                value = getattr(value, attr)
        except AttributeError:
            continue
        return True
    return False


def unresolved(text, heads, tests):
    """The backticked identifiers of text, with a `_` or a `.`, that do not resolve."""
    named = {token for token in TOKEN.findall(text) if "_" in token or "." in token}
    return sorted(token for token in named if not resolves(token, heads, tests))


def test_the_check_sees_each_form():
    text = ("`arith.row_reps` and `row_reps`, `Record.__new__`, `gl3weights.cycle`,"
            " `CASE_DUAL`, `membership_reps_by_tau`, `test_every_memo_is_bounded`,"
            " `pyproject.toml`, `cycle(t, start)`, `p - 3`, `cycle`, `arith.orbit_reps`,"
            " `orbit_reps`, `gl3weights.nope`, `weights.dual.nope`, `os.path`, `lru_cache_`")
    assert unresolved(text, package_heads(), top_level_test_names()) == [
        "arith.orbit_reps", "gl3weights.nope", "lru_cache_", "orbit_reps", "os.path",
        "weights.dual.nope"]


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text()
    assert unresolved(text, package_heads(), top_level_test_names()) == []
