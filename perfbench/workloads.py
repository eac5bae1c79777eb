"""Seeded inputs, the timed operation and the output check of each workload.

A workload object is built inside a fresh worker process after
`import gl3weights` has finished.  `inputs` is the list handed to `run`
one at a time; `run` is the timed call into the library, and `reduce`
turns its result into a small canonical value outside the timed
interval, so results held until the check do not inflate memory.
`check` compares every reduced output against the expected one and
returns the failures; it runs after the timed loop, so the library
calls it makes do not warm the caches the operations use.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli_corpus.jsonl")
CLI_SNIPPET = "from gl3weights.cli import main; main()"


def table_triples(p: int):
    """The acceptance-3 parameter range: a-b > 5, b-c > 4, a-c < p-7, c in [0, p-2]."""
    for g1 in range(6, p):
        for g2 in range(5, p):
            if g1 + g2 > p - 8:
                continue
            for c in range(p - 1):
                yield (c + g1 + g2, c + g2, c)


def orbit_rep(p: int, n: int) -> int | None:
    """Least member of the Frobenius orbit of n mod p^3 - 1; None below niveau 3."""
    e = p**3 - 1
    n1 = n * p % e
    if n1 == n:
        return None
    return min(n, n1, n1 * p % e)


def systematic_sample(rng: random.Random, population: list, k: int) -> list:
    """k evenly spaced members from a seeded offset, in a seeded order.

    The sample's mix (of primes, spans, type shapes) then barely depends
    on the seed, so runs with different seeds measure the same work.
    """
    step = len(population) / k
    offset = rng.random() * step
    chosen = [population[int(offset + i * step)] for i in range(k)]
    rng.shuffle(chosen)
    return chosen


class CycleBatch:
    """All 9 starts of seeded nine-weight-table types at p=29 and p=31.

    Every third type is given as the double-twisted dual of
    tau((1 2 3), (a+2, b+1, c)) with dualised starts, the rest directly,
    so both cycling cases run.  Not half and half: a dual closure takes
    about twice as long as a direct one, and the median of an even mix of
    the two falls in the gap between them and jumps from pass to pass.
    The 9 starts of one type run back to back.
    """

    name = "cycle-batch"
    ops_per_pass = 1800

    def __init__(self, seed: int, pass_index: int) -> None:
        from gl3weights import predicted, tame_types, weights

        del pass_index  # every pass repeats the same work
        rng = random.Random(f"{self.name}:{seed}")
        population = [(p, abc) for p in (29, 31) for abc in table_triples(p)]
        chosen = systematic_sample(rng, population, self.ops_per_pass // 9)
        self.inputs = []
        self.expected = []
        for i, (p, (a, b, c)) in enumerate(chosen):
            table = predicted.nine_weight_table(a, b, c, p)
            starts = table.sorted_weights()
            t = tame_types.tau("123", (a + 2, b + 1, c), p)
            nodes = frozenset(w.coords for w in starts)
            if i % 3 == 2:
                t = tame_types.dual_twist(t, 2)
                starts = tuple(weights.dual(w) for w in starts)
                nodes = frozenset(weights.dual(w).coords for w in table.weights)
            for start in starts:
                self.inputs.append((t, start))
                self.expected.append(nodes)

    @staticmethod
    def run(item):
        from gl3weights import cycling

        return cycling.cycle(*item)

    @staticmethod
    def reduce(g):
        return (
            g.status,
            tuple(sorted(w.coords for w in g.nodes)),
            tuple(sorted((u.coords, v.coords, j) for u, v, j in g.edges)),
            tuple(sorted((w.coords, j, tuple(v.coords for v in vs))
                         for w, j, vs in g.non_singletons)),
        )

    def check(self, outputs) -> list[str]:
        failures = []
        for i, out in enumerate(outputs):
            if out[0] == "error":
                failures.append(f"op {i}: raised {out[1]}")
                continue
            status, nodes, edges, stalls = out
            if status != "complete":
                failures.append(f"op {i}: status {status}")
            elif frozenset(nodes) != self.expected[i]:
                failures.append(f"op {i}: nodes differ from the nine-weight table")
            elif len(edges) != 12 or len(stalls) != 6:
                failures.append(f"op {i}: {len(edges)} edges, {len(stalls)} stalls")
        return failures


class TypeScan:
    """Distinct seeded niveau-3 types at p=53: predict, then eliminate.

    One operation enumerates the predicted set of a type and runs
    weight elimination for every predicted weight against that type and
    against one other seeded type.  Types do not repeat, so the memo
    caches mostly miss and only grow.
    """

    name = "type-scan"
    ops_per_pass = 1500
    p = 53

    def __init__(self, seed: int, pass_index: int) -> None:
        from gl3weights import tame_types

        del pass_index  # every pass repeats the same work
        p = self.p
        e = p**3 - 1
        rng = random.Random(f"{self.name}:{seed}")
        reps = sorted({orbit_rep(p, n) for n in range(e)} - {None})
        pairs = []
        for rep in systematic_sample(rng, reps, self.ops_per_pass):
            other = rep
            while other == rep:
                other = rng.choice(reps)
            pairs.append((rep, other))
        self.inputs = [
            (tame_types.type_from_exponent(p, r), tame_types.type_from_exponent(p, o))
            for r, o in pairs
        ]

    @staticmethod
    def run(item):
        from gl3weights import elimination, predicted

        t, other = item
        pred = predicted.enumerate_predicted(t)
        verdicts = []
        for w in pred.sorted_weights():
            for target in (t, other):
                try:
                    report = elimination.eliminate(w, target)
                except elimination.UnsupportedWeight:
                    verdicts.append((w.coords, "unsupported", None))
                else:
                    verdicts.append((w.coords, report.branch, report.verdict))
        return verdicts

    @staticmethod
    def reduce(verdicts):
        return tuple(verdicts)

    def _tables(self) -> dict[int, tuple[int, int, int]]:
        """Orbit representative of each direct nine-weight-table type."""
        p = self.p
        e = p**3 - 1
        return {
            orbit_rep(p, ((a + 2) + p * (b + 1) + p * p * c) % e): (a, b, c)
            for a, b, c in table_triples(p)
        }

    @staticmethod
    def regime(coords, p: int) -> str:
        x, y, z = coords
        if x - z < p - 3:
            return "crystalline"
        if x - y < p - 5 and y - z < p - 5 and x - z > p + 1:
            return "intersection"
        return "unsupported"

    def check(self, outputs) -> list[str]:
        from gl3weights import predicted, tame_types, weights

        p = self.p
        tables = self._tables()
        failures = []
        self.tally = {"crystalline": 0, "intersection": 0, "unsupported": 0,
                      "eliminated": 0}
        for i, out in enumerate(outputs):
            if out and out[0] == "error":
                failures.append(f"op {i}: raised {out[1]}")
                continue
            t, other = self.inputs[i]
            got = frozenset(coords for coords, _, _ in out)
            rep = t.orbit_rep()
            flipped = tame_types.dual_twist(t, 2).orbit_rep()
            if rep in tables:
                want = predicted.nine_weight_table(*tables[rep], p).weights
                want = frozenset(w.coords for w in want)
            elif flipped in tables:
                want = predicted.nine_weight_table(*tables[flipped], p).weights
                want = frozenset(weights.dual(w).coords for w in want)
            else:
                want = None
            if want is not None and got != want:
                failures.append(f"op {i}: predicted set of [{rep}] is not its table")
            for k, (coords, branch, verdict) in enumerate(out):
                target = (t, other)[k % 2]
                regime = self.regime(coords, p)
                self.tally[branch] = self.tally.get(branch, 0) + 1
                if verdict == "eliminated":
                    self.tally["eliminated"] += 1
                if branch != regime:
                    failures.append(f"op {i}: {coords} took {branch}, expected {regime}")
                    continue
                if regime == "unsupported":
                    continue
                w = weights.WeightClass(p, 3, coords)
                if (verdict == "consistent") != predicted.is_predicted(w, target):
                    failures.append(
                        f"op {i}: verdict {verdict} at {coords} for [{target.orbit_rep()}]"
                        " disagrees with is_predicted")
        return failures


def load_corpus() -> list[dict]:
    with open(CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def error_shape_ok(stdout: bytes) -> bool:
    """One JSON object holding an `error` object with a type and a message."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != 1:
        return False
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return False
    return (isinstance(doc, dict) and list(doc) == ["error"]
            and isinstance(doc["error"], dict)
            and set(doc["error"]) == {"type", "message"})


CLI_KINDS = ("cycle", "eliminate", "predict", "query", "small", "sweep", "error")


def cli_kind(entry: dict) -> str:
    """Kind of a corpus command: its subcommand, `small` or `error`."""
    if entry["exit"] == 1:
        return "error"
    command = entry["args"][0]
    return "small" if command in ("decompose", "dims", "breuil") else command


class CliMix:
    """Fresh `gl3weights` processes drawn from the captured command corpus.

    Each pass runs one command of every kind in CLI_KINDS (`small` is
    decompose, dims or breuil; `error` is a domain error).  Within a kind
    the seed fixes an order and pass i takes its i-th command, so a run
    cycles through every kind at the same rate and the mix, and with it
    the percentiles, does not depend on how many passes fit in a run.
    """

    name = "cli-mix"
    ops_per_pass = len(CLI_KINDS)

    def __init__(self, seed: int, pass_index: int) -> None:
        corpus = load_corpus()
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for kind in CLI_KINDS:
            group = [entry for entry in corpus if cli_kind(entry) == kind]
            order = rng.sample(group, len(group))
            self.inputs.append(order[pass_index % len(order)])

    def check(self, outputs) -> list[str]:
        failures = []
        for entry, (code, stdout) in zip(self.inputs, outputs):
            label = " ".join(entry["args"])
            if code != entry["exit"]:
                failures.append(f"{label}: exit {code}, expected {entry['exit']}")
            elif code == 1:
                if not error_shape_ok(stdout):
                    failures.append(f"{label}: not a single JSON error object")
            elif stdout != entry["stdout"].encode("utf-8"):
                failures.append(f"{label}: stdout differs from the corpus")
            elif entry["args"][0] == "sweep":
                doc = json.loads(stdout)
                if doc["failures"] or doc["checks"] != doc["count"]:
                    failures.append(f"{label}: sweep reported {doc['checks']} checks,"
                                    f" {len(doc['failures'])} failures")
        return failures


WORKLOADS = {cls.name: cls for cls in (CycleBatch, TypeScan, CliMix)}
