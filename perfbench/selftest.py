"""Quick self-test of the benchmark itself (about half a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload it runs one pass twice untraced, under two
PYTHONHASHSEED values, and once traced, and requires the same operation
count, the same output digest and no failed operation every time.  It
also checks that run.py refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and perfbench/.  The file name
does not match pytest's `test_*.py`, so the Tier-1 suite does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SEED = 7


def one_pass(workload: str, hash_seed: str, traced: bool) -> dict:
    os.environ["PYTHONHASHSEED"] = hash_seed
    try:
        return run.run_pass(workload, SEED, 0, traced, None)
    finally:
        del os.environ["PYTHONHASHSEED"]


def check_workload(workload: str) -> list[str]:
    runs = {
        "hash seed 17": one_pass(workload, "17", False),
        "hash seed 4099": one_pass(workload, "4099", False),
        "traced": one_pass(workload, "17", True),
    }
    problems = []
    ref = runs["hash seed 17"]
    for label, res in runs.items():
        if res["failed"]:
            problems.append(f"{workload} {label}: {res['failure_samples']}")
        if (res["ops"], res["digest"]) != (ref["ops"], ref["digest"]):
            problems.append(f"{workload} {label}: {res['ops']} ops, digest "
                            f"{res['digest'][:12]} != {ref['ops']} ops, {ref['digest'][:12]}")
    print(f"{workload}: {ref['ops']} ops, digest {ref['digest'][:12]}, "
          f"{'ok' if not problems else 'MISMATCH'}")
    return problems


def check_refuses_without_source() -> list[str]:
    bare = os.path.join(run.SPAN_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cycle-batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare checkout: refused with exit {proc.returncode}")
    return []


def main() -> int:
    run.warm_up("cli-mix")
    problems = []
    for workload in WORKLOADS:
        problems += check_workload(workload)
    problems += check_refuses_without_source()
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
