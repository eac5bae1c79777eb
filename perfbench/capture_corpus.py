"""Build the cli-mix command pool and capture its reference outputs.

Usage, from the repository root:

    python3 perfbench/capture_corpus.py

It draws a fixed command pool over every subcommand (its own seed, not
the benchmark's), runs each command once through
`python -c "from gl3weights.cli import main; main()"` with
PYTHONPATH=src, and rewrites perfbench/cli_corpus.jsonl with the
arguments, stdin, exit code and stdout of each.  The committed corpus
was captured from the code the benchmark was introduced with; recapture
only when a change to the output bytes is intended.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from gl3weights import dual, dual_twist, nine_weight_table, tau  # noqa: E402
from workloads import CLI_SNIPPET, CORPUS, orbit_rep, table_triples  # noqa: E402

POOL_SEED = 20261017
SWEEP_SUITES = ("orbits", "weights", "tame", "breuil", "candidates",
                "predicted", "elimination", "cycling", "slopes")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _envelope(command: str, params: dict) -> str:
    return json.dumps({"version": 1, "command": command, "params": params})


def _irreducible(rng: random.Random, p: int) -> int:
    while True:
        rep = orbit_rep(p, rng.randrange(p**3 - 1))
        if rep is not None:
            return rep


def _restricted(rng: random.Random, p: int, span_range) -> tuple[int, int, int]:
    while True:
        g1, g2 = rng.randrange(p), rng.randrange(p)
        if g1 + g2 in span_range:
            z = rng.randrange(p - 1)
            return (z + g1 + g2, z + g2, z)


def _cycle_case(rng: random.Random, p: int):
    a, b, c = rng.choice(list(table_triples(p)))
    start = rng.choice(nine_weight_table(a, b, c, p).sorted_weights())
    if rng.random() < 0.5:
        return ["--xi", "123", "--mu", _csv((a + 2, b + 1, c))], start.coords, \
            {"xi": "123", "mu": [a + 2, b + 1, c]}
    t = dual_twist(tau("123", (a + 2, b + 1, c), p), 2)
    rep = t.orbit_rep()
    return ["--orbit-rep", str(rep)], dual(start).coords, {"orbit_rep": rep}


def build_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool: list[dict] = []

    def add(args, stdin=None):
        pool.append({"args": [str(a) for a in args], "stdin": stdin})

    for _ in range(12):
        p = rng.choice((5, 7, 11, 13, 29, 31))
        add(["decompose", "--n", rng.randrange(p * p + p + 12), "--p", p])
    for _ in range(12):
        p = rng.choice((7, 29, 31, 53))
        add(["dims", "--p", p, "--F", _csv(_restricted(rng, p, range(2 * p - 3)))])
    for _ in range(20):
        p = rng.choice((29, 31, 53))
        if rng.random() < 0.5:
            add(["predict", "--p", p, "--orbit-rep", _irreducible(rng, p)])
        else:
            mu = sorted(rng.sample(range(3 * p), 3), reverse=True)
            add(["predict", "--p", p, "--xi", rng.choice(("123", "132")), "--mu", _csv(mu)])
    for _ in range(30):
        p = rng.choice((29, 31, 53))
        if rng.random() < 0.5:
            w = _restricted(rng, p, range(p - 3))            # crystalline branch
        else:
            w = _restricted(rng, p, range(p + 2, 2 * p - 10))  # intersection branch
            if not (w[0] - w[1] < p - 5 and w[1] - w[2] < p - 5):
                w = (w[2] + p + 3, w[2] + p // 2, w[2])
        if rng.random() < 0.5:
            x, y, z = w
            type_args = ["--xi", rng.choice(("123", "132")), "--mu", _csv((x + 2, y + 1, z))]
        else:
            type_args = ["--orbit-rep", _irreducible(rng, p)]
        add(["eliminate", "--p", p, "--F", _csv(w), *type_args])
    for _ in range(30):
        p = rng.choice((29, 31))
        type_args, start, _ = _cycle_case(rng, p)
        dot = ["--dot"] if rng.random() < 0.5 else []
        add(["cycle", "--p", p, "--start", _csv(start), *type_args, *dot])
    for _ in range(10):
        p = rng.choice((5, 7, 11))
        e = p**3 - 1
        add(["breuil", "--p", p, "--heights", _csv((e, e, e)), "--k0", rng.randrange(e)])
    for _ in range(18):
        suite = rng.choice(SWEEP_SUITES)
        heavy = suite in ("candidates", "predicted", "elimination", "cycling")
        p = 29 if heavy else rng.choice((7, 11, 29))
        args = ["sweep", "--suite", suite, "--p", p, "--seed", rng.randrange(1000),
                "--count", rng.choice((2, 4, 6, 8))]
        if rng.random() < 0.4:
            args += ["--jobs", 2]
        add(args)
    for _ in range(24):
        p = rng.choice((29, 31))
        kind = rng.choice(("decompose", "dims", "predict", "eliminate", "cycle", "sweep"))
        if kind == "decompose":
            params = {"n": rng.randrange(p * p + p + 1), "p": p}
        elif kind == "dims":
            params = {"p": p, "weight": list(_restricted(rng, p, range(2 * p - 3)))}
        elif kind == "predict":
            params = {"p": p, "type": {"orbit_rep": _irreducible(rng, p)}}
        elif kind == "eliminate":
            w = _restricted(rng, p, range(p - 3))
            params = {"p": p, "weight": list(w), "type": {"orbit_rep": _irreducible(rng, p)}}
        elif kind == "cycle":
            _, start, type_doc = _cycle_case(rng, p)
            params = {"p": p, "start": list(start), "type": type_doc}
        else:
            params = {"suite": "cycling", "p": p, "seed": rng.randrange(1000), "count": 4}
        add(["query"], stdin=_envelope(kind, params))
    # domain errors: exit 1 with one JSON error object
    for p in (9, 15, 21, 25):
        add(["dims", "--p", p, "--F", "3,2,0"])
        add(["predict", "--p", p, "--orbit-rep", 100])
    add(["eliminate", "--p", 29, "--F", "54,27,0", "--orbit-rep", 278])
    add(["eliminate", "--p", 31, "--F", "60,30,1", "--orbit-rep", 500])
    add(["cycle", "--p", 29, "--start", "3,2,0", "--xi", "123", "--mu", "17,9,0"])
    add(["query"], stdin=_envelope("dims", {"p": 27, "weight": [3, 2, 0]}))
    add(["query"], stdin=_envelope("predict", {"p": 33, "type": {"orbit_rep": 278}}))
    return pool


def capture(pool: list[dict]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    out = []
    for entry in pool:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SNIPPET, *entry["args"]],
            input=entry["stdin"].encode("utf-8") if entry["stdin"] is not None else None,
            stdin=None if entry["stdin"] is not None else subprocess.DEVNULL,
            capture_output=True, env=env, cwd=ROOT, timeout=120,
        )
        if proc.returncode not in (0, 1) or proc.stderr:
            raise SystemExit(f"{entry['args']}: exit {proc.returncode}, "
                             f"stderr {proc.stderr.decode()!r}")
        out.append({**entry, "exit": proc.returncode,
                    "stdout": proc.stdout.decode("utf-8")})
    return out


def main() -> None:
    corpus = capture(build_pool())
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for entry in corpus:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    errors = sum(1 for e in corpus if e["exit"] == 1)
    print(f"wrote {len(corpus)} commands ({errors} domain errors) to {CORPUS}")


if __name__ == "__main__":
    main()
