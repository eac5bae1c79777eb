"""One measured pass of a workload, in a fresh interpreter.

Started by run.py as `worker.py MODULE CONFIG` with PYTHONPATH=src.
The first thing it does is import MODULE (`gl3weights`, or
`gl3weights.cli` for cli-mix) and print `ready`, so the parent can time
set-up from process start to the first operation being ready.  It then
builds the seeded inputs, runs them one at a time in a closed loop,
checks every output and prints one JSON line with the pass's
measurements.
"""

import sys
import time

from importlib import import_module

import_module(sys.argv[1])
print("ready", flush=True)

import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120
PROBE_INTERVAL_S = 0.02
# seconds one probe slice takes at nominal host speed; times are scaled
# by nominal over measured probe time, so they read as at that speed
PROBE_NOMINAL_S = 0.7e-3
# an operation's host speed is taken from the probes within this many
# places of the last probe before it
PROBE_WINDOW = 2


def _probe_slice() -> int:
    """A fixed piece of pure-Python work that uses no gl3weights code.

    It allocates small tuples and a dict, as the library does; host
    contention slows such code far more than plain integer arithmetic,
    and this mix tracks the library's speed across host slowdowns.
    """
    d = {}
    acc = 0
    for i in range(400):
        t = (i, i * 7 % 31, i * i % 29)
        d[t] = min(t)
        acc += d.get((i, i * 7 % 31, i * i % 29), 0) % 5
        acc += len(sorted(t))
    return acc


class HostProbe:
    """Times `_probe_slice` between operations to measure the host's speed.

    With `cpus`, each probe runs once on every listed CPU (by setting this
    process's affinity) and records the mean: a CLI child may run on any
    CPU, and each CPU of the host drifts on its own.
    """

    def __init__(self, cpus=None) -> None:
        self.cpus = cpus
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def _timed_slice(self) -> float:
        t0 = time.perf_counter()
        _probe_slice()
        self.last = time.perf_counter()
        return self.last - t0

    def run(self) -> None:
        # collections are held off so garbage made by the library is
        # collected inside the library's own operations
        gc.disable()
        if self.cpus:
            home = os.sched_getaffinity(0)
            took = 0.0
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                took += self._timed_slice()
            os.sched_setaffinity(0, home)
            self.samples.append(took / len(self.cpus))
        else:
            self.samples.append(self._timed_slice())
        gc.enable()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_INTERVAL_S

    @property
    def seconds(self) -> float:
        return sum(self.samples)

    def speed(self, around: int | None = None) -> float:
        """Host speed relative to nominal (>1: faster), overall or near one probe."""
        window = self.samples
        if around is not None:
            window = window[max(0, around - PROBE_WINDOW):around + PROBE_WINDOW + 1]
        return PROBE_NOMINAL_S * len(window) / sum(window)


def _cli_runner(traced: bool, child_stats: list, spans_path):
    here = os.path.dirname(os.path.abspath(__file__))
    env = None
    if traced:
        base = [sys.executable, os.path.join(here, "cli_child.py")]
        if spans_path:
            env = dict(os.environ, PERFBENCH_SPANS=spans_path)
            open(spans_path, "w").close()
    else:
        base = [sys.executable, "-c", workloads.CLI_SNIPPET]

    op_ids = itertools.count()

    def run(entry):
        stdin = entry.get("stdin")
        if env is not None:
            env["PERFBENCH_OP"] = str(next(op_ids))
        proc = subprocess.Popen(
            base + entry["args"], env=env,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(
                stdin.encode("utf-8") if stdin is not None else None,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return (None, b"")
        if traced:
            lines = err.decode("utf-8", "replace").splitlines()
            if lines and lines[-1].startswith(spans.TRACE_MARK):
                child_stats.append(json.loads(lines[-1][len(spans.TRACE_MARK):]))
        return (proc.returncode, out)

    return run


def main() -> None:
    cfg = json.loads(sys.argv[2])
    cls = workloads.WORKLOADS[cfg["workload"]]
    wl = cls(cfg["seed"], cfg["pass_index"])
    in_process = cls is not workloads.CliMix
    probe = HostProbe(None if in_process else sorted(os.sched_getaffinity(0)))
    traced = bool(cfg["trace"])

    tracer = caches = None
    child_stats: list = []
    if in_process:
        modules = spans.package_modules(import_all=False)
        caches = spans.lru_caches(modules)
        run_op, reduce = wl.run, wl.reduce
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer, modules)
        who = resource.RUSAGE_SELF
    else:
        run_op = _cli_runner(traced, child_stats, cfg.get("spans_path"))
        reduce = (lambda out: out)
        who = resource.RUSAGE_CHILDREN

    before = spans.cache_stats(caches) if caches else {}
    usage0 = resource.getrusage(who)
    clock = time.perf_counter
    latencies = []
    outputs = []
    near_probe = []
    probe.run()
    for i, item in enumerate(wl.inputs):
        if probe.due():
            probe.run()
        near_probe.append(len(probe.samples) - 1)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result = run_op(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(clock() - t0)
            outputs.append(("error", f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(clock() - t0)
        outputs.append(reduce(result))
    usage1 = resource.getrusage(who)
    after = spans.cache_stats(caches) if caches else {}
    if tracer is not None:
        # the check below calls the library too; keep it out of the trace
        traced_summary = tracer.summary()
        traced_spans = len(tracer.spans)

    failures = wl.check(outputs)
    digest = hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()
    doc = {
        "ops": len(outputs),
        "latencies_ms": [x * 1e3 for x in latencies],
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
                 - (probe.seconds if in_process else 0.0),
        "scaled_latencies_ms": [x * 1e3 * probe.speed(k)
                                for x, k in zip(latencies, near_probe)],
        "host_speed": probe.speed(),
        "maxrss_kb": usage1.ru_maxrss,
        "failed": len(failures),
        "failure_samples": failures[:5],
        "digest": digest,
        "tally": getattr(wl, "tally", {}),
        "caches": {
            layer: {
                "hits": after[layer]["hits"] - before[layer]["hits"],
                "misses": after[layer]["misses"] - before[layer]["misses"],
                "entries": after[layer]["entries"],
            }
            for layer in after
        },
    }
    if tracer is not None:
        doc["trace"] = traced_summary
        if cfg.get("spans_path"):
            del tracer.spans[traced_spans:]
            tracer.dump(cfg["spans_path"])
    if child_stats:
        doc["trace"] = spans.merge_summaries(child_stats)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
