"""Span tracing of the gl3weights layers, installed from outside the package.

Every public function of every package module is wrapped, and the
wrapper is installed at each import site: `cycling` imports `eliminate`
by name, and `weights`, `tame_types` and `breuil` import `check_prime`
by name, so replacing the defining module's attribute alone would miss
those calls.  Function tables held in module-level dicts (`cli.HANDLERS`,
`sweeps.SUITES`) are patched too.  Dataclass validation (`__post_init__`)
is wrapped on the class, so object construction is charged to the layer
that owns the class.

A span is (id, name, start, end, parent, op).  Aggregates (calls,
inclusive and self time per name) are updated as each span closes, so
they cover the whole run; span records are kept in memory up to
`SPAN_LIMIT` and written out when the run ends.  Self time is the span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import pkgutil
import sys
import time
from importlib import import_module

SPAN_LIMIT = 50_000
PACKAGE = "gl3weights"
# prefix of the stderr line a traced CLI child reports its summary on
TRACE_MARK = "perfbench-trace "
# spans whose results are counted when the predicate holds
FLAGS = {"elimination.eliminate": lambda report: report.branch == "intersection"}

_clock = time.perf_counter


class Tracer:
    """Spans of one process; `op` is the operation id stamped on new spans."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.flagged: dict[str, int] = {}
        self._next_id = 0
        # open spans, innermost last: [id, child_seconds]
        self._stack: list[list] = []

    def wrap(self, name: str, fn, flag=None):
        """Return fn wrapped in a span; `flag(result)` counts marked results."""
        stack = self._stack
        clock = _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(name, span_id, parent, start, end, frame[1])
            if flag is not None and flag(result):
                self.flagged[name] = self.flagged.get(name, 0) + 1
            return result

        return traced

    def _close(self, name, span_id, parent, start, end, child_s) -> None:
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, name, start, end, parent, self.op))

    def dump(self, path: str, mode: str = "w") -> None:
        """Write the in-memory spans as JSON Lines, in the order they closed."""
        with open(path, mode, encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent, "op": op,
                }, separators=(",", ":")) + "\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "flagged": dict(self.flagged),
        }


def package_modules(import_all: bool) -> list:
    """Submodules of the package: all of them, imported, or those already loaded.

    In-process workloads trace only what `import gl3weights` loaded, so
    the benchmark does not import modules the package leaves unloaded.
    """
    pkg = import_module(PACKAGE)
    names = [f"{PACKAGE}.{info.name}" for info in pkgutil.iter_modules(pkg.__path__)]
    if import_all:
        return [import_module(name) for name in names]
    return [sys.modules[name] for name in names if name in sys.modules]


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _own_memo(obj, mod) -> bool:
    """Whether obj is an lru_cache around a function defined in mod."""
    target = getattr(obj, "__wrapped__", None)
    return hasattr(obj, "cache_info") and getattr(target, "__module__", None) == mod.__name__


def lru_caches(modules) -> dict[str, list]:
    """Every lru_cache found in each module's namespace, by layer.

    Found by scanning, not by name, so renamed or merged memos are
    still read.
    """
    found: dict[str, list] = {}
    for mod in modules:
        for obj in vars(mod).values():
            if _own_memo(obj, mod):
                found.setdefault(_layer(mod.__name__), []).append(obj)
    return found


def cache_stats(caches: dict[str, list]) -> dict[str, dict[str, int]]:
    out = {}
    for layer, objs in caches.items():
        infos = [c.cache_info() for c in objs]
        out[layer] = {
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
            "entries": sum(i.currsize for i in infos),
        }
    return out


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                or _own_memo(obj, mod)):
            yield name, obj


def install(tracer: Tracer, modules) -> None:
    """Wrap every public function at every import site."""
    wrappers = {}
    for mod in modules:
        layer = _layer(mod.__name__)
        for name, fn in _public_callables(mod):
            span = f"{layer}.{name}"
            wrappers[id(fn)] = tracer.wrap(span, fn, FLAGS.get(span))
        for name, cls in vars(mod).items():
            if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and "__post_init__" in vars(cls)):
                span = f"{layer}.{name}.__post_init__"
                cls.__post_init__ = tracer.wrap(span, cls.__post_init__)

    def swap(value):
        if id(value) in wrappers:
            return wrappers[id(value)]
        if isinstance(value, tuple) and any(id(v) in wrappers for v in value):
            return tuple(wrappers.get(id(v), v) for v in value)
        return value

    for mod in [import_module(PACKAGE), *modules]:
        namespace = vars(mod)
        for name, value in list(namespace.items()):
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    value[key] = swap(item)
            else:
                namespace[name] = swap(value)


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of several processes."""
    merged: dict = {"calls": {}, "total_s": {}, "self_s": {}, "flagged": {}}
    for summary in summaries:
        for key, values in summary.items():
            acc = merged[key]
            for name, value in values.items():
                acc[name] = acc.get(name, 0) + value
    return merged
