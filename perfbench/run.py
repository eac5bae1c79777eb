"""Benchmark of the gl3weights library: three closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload cycle-batch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A run is a sequence of passes.  Each pass is a fresh worker process
(perfbench/worker.py) that imports the package, builds the same seeded
inputs and runs them one at a time, one caller waiting for each reply.
Passes repeat until --seconds is used up; every end-to-end metric is a
median over passes, or a percentile over every operation of every pass.
The host's speed drifts by tens of percent over tens of seconds, so
times are scaled to a nominal host speed measured by a probe between
operations (see worker.py and README.md).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import CLI_SNIPPET, WORKLOADS, load_corpus  # noqa: E402

PASS_TIMEOUT_S = 150
# wall time of a bare `python -c pass` at nominal host speed; set-up is
# scaled by this over the bare start timed just before each pass
BARE_START_NOMINAL_S = 0.06
START_SAMPLES = 5
P50, P90 = 50, 90

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# layer -> public functions whose calls per operation are reported
CALL_COUNTS = {
    "arith": ("check_prime", "orbit"),
    "weights": ("canonicalize",),
    "tame_types": ("type_from_exponent",),
    "elimination": ("eliminate",),
    "predicted": ("is_predicted", "enumerate_predicted"),
    "cycling": ("cycle",),
    "induction": ("implied_weights",),
    "breuil": ("reduction_candidates",),
}
SELF_TIME_LAYERS = ("arith", "weights", "tame_types", "cycling", "induction",
                    "predicted", "breuil", "elimination", "sweeps", "slopes")
CACHE_LAYERS = ("weights", "predicted", "induction", "breuil", "elimination")
HIT_RATIO_LAYERS = ("induction", "predicted", "breuil", "elimination")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SELF_TIME_LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms/op"
    for layer, names in CALL_COUNTS.items():
        for name in names:
            units[f"{layer}.{name}.calls_per_op"] = "calls/op"
    for layer in HIT_RATIO_LAYERS:
        units[f"{layer}.cache_hit_ratio"] = "ratio"
    for layer in CACHE_LAYERS:
        units[f"{layer}.cache_entries"] = "count"
    units["elimination.intersection_share"] = "ratio"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["cli.run_self_ms_per_op"] = "ms/op"
    units["cli.handler_ms_per_op"] = "ms/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_pass(workload: str, seed: int, index: int, traced: bool, spans_path) -> dict:
    """Start one worker; time spawn-to-ready as set-up; return its measurements.

    A bare interpreter is started and timed first: process start-up
    drifts with the host differently from Python code, so set-up is
    scaled by the bare start rather than by the worker's probe.
    """
    module = "gl3weights.cli" if workload == "cli-mix" else "gl3weights"
    cfg = {"workload": workload, "seed": seed, "pass_index": index,
           "trace": traced, "spans_path": spans_path}
    env = child_env()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    bare_start_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), module, json.dumps(cfg)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {workload} pass {index} timed out")
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} pass {index} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(out.decode("utf-8").splitlines()[-1])
    result["setup_s"] = setup_s
    result["bare_start_s"] = bare_start_s
    result["wall_s"] = time.perf_counter() - t0
    result["traced"] = traced
    return result


def warm_up(workload: str) -> None:
    """Compile bytecode once, untimed; for cli-mix also run one command."""
    env = child_env()
    subprocess.run([sys.executable, "-c", "import gl3weights.cli"],
                   cwd=ROOT, env=env, check=True, timeout=PASS_TIMEOUT_S)
    if workload == "cli-mix":
        entry = load_corpus()[0]
        subprocess.run([sys.executable, "-c", CLI_SNIPPET, *entry["args"]],
                       cwd=ROOT, env=env, capture_output=True, timeout=PASS_TIMEOUT_S)


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would end past `seconds`; at least 3 (4 traced)."""
    minimum = 4 if trace else 3
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        spans_path = None
        if traced and not any(p["traced"] for p in passes):
            os.makedirs(SPAN_DIR, exist_ok=True)
            spans_path = os.path.join(SPAN_DIR, f"{workload}-seed{seed}.spans.jsonl")
        passes.append(run_pass(workload, seed, len(passes), traced, spans_path))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= minimum and elapsed + typical > seconds:
            return passes


def end_to_end(workload: str, passes: list[dict], scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics; `scaled` puts every time at the nominal host speed."""
    def speed(p):
        return p["host_speed"] if scaled else 1.0

    def start_speed(p):
        return BARE_START_NOMINAL_S / p["bare_start_s"] if scaled else 1.0

    key = "scaled_latencies_ms" if scaled else "latencies_ms"
    latencies = [x for p in passes for x in p[key]]
    if workload == "cli-mix":
        rss_kb = max(p["maxrss_kb"] for p in passes)
    else:
        rss_kb = statistics.median(p["maxrss_kb"] for p in passes)
    values = {
        "ops_per_s": statistics.median(p["ops"] / (sum(p[key]) / 1e3) for p in passes),
        "op_p50_ms": percentile(latencies, P50),
        "op_p90_ms": percentile(latencies, P90),
        "cpu_ms_per_op": statistics.median(
            p["cpu_s"] * 1e3 / p["ops"] * speed(p) for p in passes),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(
            p["setup_s"] * start_speed(p) for p in passes),
    }
    samples = {"passes": len(passes), "latency_samples": len(latencies),
               "percentiles": [P50, P90], "setup_samples": len(passes)}
    return values, samples


def cli_import_ms() -> float:
    """Median time of `import gl3weights.cli` inside a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import gl3weights.cli; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(START_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, check=True, timeout=60)
        times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


def per_layer(passes: list[dict]) -> dict:
    """Per-layer metrics from the traced passes; span times at nominal host speed."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    ops = sum(p["ops"] for p in traced)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    flagged: dict[str, int] = {}
    for p in traced:
        tr = p.get("trace", {})
        for acc, key, scale in ((calls, "calls", 1), (self_s, "self_s", p["host_speed"]),
                                (total_s, "total_s", p["host_speed"]),
                                (flagged, "flagged", 1)):
            for name, value in tr.get(key, {}).items():
                acc[name] = acc.get(name, 0) + value * scale

    def layer_sum(acc, layer):
        return sum(v for k, v in acc.items() if k.split(".", 1)[0] == layer)

    values: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_ms_per_op"] = layer_sum(self_s, layer) * 1e3 / ops
    for layer, names in CALL_COUNTS.items():
        for name in names:
            values[f"{layer}.{name}.calls_per_op"] = calls.get(f"{layer}.{name}", 0) / ops
    for layer in HIT_RATIO_LAYERS:
        hits = sum(p["caches"].get(layer, {}).get("hits", 0) for p in traced)
        misses = sum(p["caches"].get(layer, {}).get("misses", 0) for p in traced)
        values[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for layer in CACHE_LAYERS:
        values[f"{layer}.cache_entries"] = statistics.median(
            p["caches"].get(layer, {}).get("entries", 0) for p in traced)
    eliminations = calls.get("elimination.eliminate", 0)
    values["elimination.intersection_share"] = (
        flagged.get("elimination.eliminate", 0) / eliminations if eliminations else 0.0)
    # process start-up timings, measured on every workload, are left
    # unscaled: the probe times Python code in a running process
    values["cli.import_ms"] = cli_import_ms()
    values["cli.interpreter_ms"] = 1e3 * statistics.median(
        p["bare_start_s"] for p in passes)
    values["cli.run_self_ms_per_op"] = self_s.get("cli.run", 0.0) * 1e3 / ops
    values["cli.handler_ms_per_op"] = sum(
        v for k, v in total_s.items() if k.startswith("cli.handle_")) * 1e3 / ops

    def rate(group):
        return statistics.median(p["ops"] / (sum(p["scaled_latencies_ms"]) / 1e3)
                                 for p in group)

    values["trace.overhead_ratio"] = rate(plain) / rate(traced)
    return values


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_before = os.getloadavg()
    warm_up(workload)
    passes = run_passes(workload, seed, seconds, trace)
    if trace:
        values = per_layer(passes)
        units = per_layer_units()
        samples = {"passes": len(passes),
                   "traced_passes": sum(p["traced"] for p in passes)}
    else:
        values, samples = end_to_end(workload, passes)
        samples["unscaled"] = end_to_end(workload, passes, scaled=False)[0]
        units = END_TO_END
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes if workload != "cli-mix"})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "load_before": load_before,
        "load_after": os.getloadavg(), "samples": samples,
        "fail_ratio": failed / attempted, "failure_samples":
            [s for p in passes for s in p["failure_samples"]][:5],
        "tally": passes[0]["tally"], "digests": digests,
        "host_speed": statistics.median(p["host_speed"] for p in passes),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"record": record, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gl3weights", "__init__.py")):
        print(f"perfbench: no gl3weights package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"# {name}: {res['attempted']} operations, {res['failed']} failed")
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_ratio {res['record']['fail_ratio']:.6g} ratio")
        print("record " + json.dumps(res["record"], sort_keys=True))
    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
