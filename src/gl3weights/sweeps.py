"""Named invariant sweeps, runnable from the command line.

Each suite re-checks a family of library invariants on exhaustive or
seeded-random instances and reports machine-readable counterexamples.
A randomized suite checks one instance per call, and instance i of a
run draws from `random.Random(f"{seed}:{i}")`, so a run is a pure
function of (suite, p, seed, count) however many processes share it.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from . import arith, breuil, cycling, elimination, induction, predicted, slopes
from . import tame_types as tt
from . import weights as wt


def _fail(failures: list[dict], **kw) -> None:
    failures.append(dict(sorted(kw.items())))


def sweep_decompose(p: int) -> tuple[int, list[dict]]:
    """Exhaustive split of one period of exponents: shape validity,
    reassembly, the translation rule, and the case counts."""
    c2 = p * p + p + 1
    failures: list[dict] = []
    tally = {arith.CASE_I: 0, arith.CASE_II: 0, arith.DIVISIBLE: 0}
    for n in range(c2):
        d = arith.decompose_exponent(n, p)
        tally[d.kind] += 1
        if d.kind == arith.DIVISIBLE:
            if n % c2:
                _fail(failures, n=n, reason="claimed divisible")
            continue
        x, y, z = d.coords
        ok_shape = (x > y >= z) if d.kind == arith.CASE_I else (x >= y > z)
        if not (ok_shape and x - z <= p and d.value(p) == n):
            _fail(failures, n=n, kind=d.kind, coords=[x, y, z])
        shifted = arith.decompose_exponent(n + c2, p)
        if shifted.kind != d.kind or shifted.coords != (x + 1, y + 1, z + 1):
            _fail(failures, n=n, reason="translation rule broken")
    want = (p * p + p) // 2
    if tally[arith.CASE_I] != want or tally[arith.CASE_II] != want:
        _fail(failures, reason="case counts off", tally=dict(tally))
    return c2 + 1, failures


def sweep_orbits(rng: random.Random, p: int, failures: list[dict]) -> None:
    e = p**3 - 1
    v = rng.randrange(e)
    o = arith.orbit_of(p, 3, v)
    for m in o.elements():
        if arith.orbit_of(p, 3, m) != o:
            _fail(failures, value=v, reason="orbit depends on the member")
    if 3 % o.size:
        _fail(failures, value=v, reason="orbit size must divide 3")
    # the niveau-1 embedding the library shifts exponents by: v -> v*(p^2+p+1)
    u = rng.randrange(p - 1)
    w = rng.randrange(p - 1)
    c = p * p + p + 1
    if (u * c + w * c) % e != (u + w) % (p - 1) * c:
        _fail(failures, u=u, w=w, reason="embedding is not additive")
    if arith.orbit_of(p, 3, u * c).size != 1:
        _fail(failures, u=u, reason="embedded class must have niveau 1")


def _random_weight(rng: random.Random, p: int) -> wt.WeightClass:
    z = rng.randrange(p - 1)
    g1 = rng.randrange(p)
    g2 = rng.randrange(p)
    return wt.canonicalize((z + g1 + g2, z + g2, z), p)


def sweep_weights(rng: random.Random, p: int, failures: list[dict]) -> None:
    w = _random_weight(rng, p)
    shift = rng.randrange(-3, 4) * (p - 1)
    again = wt.canonicalize(tuple(c + shift for c in w.coords), p)
    if again != w:
        _fail(failures, coords=list(w.coords), reason="canonical form unstable")
    if wt.dual(wt.dual(w)) != w:
        _fail(failures, coords=list(w.coords), reason="dual not involutive")
    try:
        pos = wt.alcove(w)
    except ValueError:
        return
    if wt.alcove(wt.dual(w)) != pos:
        _fail(failures, coords=list(w.coords), reason="dual changes alcove")
    delta = rng.randrange(0, 7)
    if wt.is_delta_generic(w, delta) != wt.is_delta_generic(wt.dual(w), delta):
        _fail(failures, coords=list(w.coords), reason="dual changes genericity")
    if pos == wt.ALCOVE_UPPER:
        s = wt.shadow(w)
        if wt.reflect(s) != w:
            _fail(failures, coords=list(w.coords), reason="shadow not involutive")
        if wt.dim_weight(w) + wt.weyl_dim(*s.coords) != wt.weyl_dim(*w.coords):
            _fail(failures, coords=list(w.coords), reason="upper dimension wrong")


def sweep_tame(rng: random.Random, p: int, failures: list[dict]) -> None:
    e = p**3 - 1
    c = rng.randrange(-p, p)
    g1 = rng.randrange(1, p)
    g2 = rng.randrange(1, max(2, p + 1 - g1))
    abc = (c + g1 + g2, c + g2, c)
    total = sum(abc)
    # a second triple with the same sum inside the window
    while True:
        h1 = rng.randrange(1, p)
        h2 = rng.randrange(1, p + 1 - h1)
        if (total - h1 - 2 * h2) % 3 == 0:
            z = (total - h1 - 2 * h2) // 3
            xyz = (z + h1 + h2, z + h2, z)
            break
    # rigidity: for strictly decreasing triples of span at most p and equal
    # sums (both draws are, by construction), tau(xi, abc) = tau(xi', xyz)
    # only for the same cycle and triple
    cycles = tt.ORDER_THREE_CYCLES
    matches = [(i, j) for i in cycles for j in cycles
               if tt.iso(tt.tau(i, abc, p), tt.tau(j, xyz, p))]
    if matches != ([(i, i) for i in cycles] if abc == xyz else []):
        _fail(failures, abc=list(abc), xyz=list(xyz), reason="rigidity failed")
    t = tt.tau(tt.XI_123, abc, p)
    if not tt.iso(t, tt.tau(tt.XI_123, (abc[2], abc[0], abc[1]), p)):
        _fail(failures, abc=list(abc), reason="cyclic shift changes the type")
    k = rng.randrange(0, p)
    if not tt.iso(tt.dual_twist(tt.dual_twist(t, k), k), t):
        _fail(failures, abc=list(abc), k=k, reason="dual twist not involutive")
    v = rng.randrange(e)
    t2 = tt.type_from_exponent(p, v)
    if not tt.iso(t2, tt.type_from_exponent(p, v * p % e)):
        _fail(failures, value=v, reason="type depends on orbit member")


def sweep_breuil(rng: random.Random, p: int, failures: list[dict]) -> None:
    m = breuil.random_module(rng, p, 3, 2)
    try:
        shifts = [breuil.fractional_shift(m, i) for i in range(m.d)]
    except ValueError:
        _fail(failures, heights=list(m.heights), reason="shift not integral")
        return
    for i in range(m.d):
        if shifts[i] < m.heights[i]:
            _fail(failures, heights=list(m.heights), reason="shift below height")
        want = m.p * (shifts[i] - m.heights[i])
        if shifts[(i + 1) % m.d] != want:
            _fail(failures, heights=list(m.heights), reason="shift recursion")
    mx = breuil.maximal_model(m)
    if not breuil.is_maximal(mx):
        _fail(failures, heights=list(m.heights), reason="model not maximal")
    if breuil.inertial_character(mx) != breuil.inertial_character(m):
        _fail(failures, heights=list(m.heights), reason="character changed")
    if breuil.maximal_model(mx) != mx:
        _fail(failures, heights=list(m.heights), reason="not idempotent")


def _random_table_triple(rng: random.Random, p: int) -> tuple[int, int, int]:
    g1 = rng.randrange(6, p - 12)
    g2 = rng.randrange(5, p - 7 - g1)
    c = rng.randrange(p - 1)
    return (c + g1 + g2, c + g2, c)


def sweep_candidates(rng: random.Random, p: int, failures: list[dict]) -> None:
    g1 = rng.randrange(3, p - 6)
    g2 = rng.randrange(3, p - 3 - g1)
    c = rng.randrange(-p, p)
    a, b = c + g1 + g2, c + g2
    params = (a, b, c)
    for make in (breuil.principal_series, breuil.cuspidal, breuil.cuspidal_dual):
        lift = make(p, params)
        for value in breuil.candidate_exponents(lift):
            if (value - (a + b + c + 3)) % (p - 1):
                _fail(failures, params=list(params), kind=lift.kind,
                      value=value, reason="determinant digit sum")


def sweep_predicted(rng: random.Random, p: int, failures: list[dict]) -> None:
    if p >= 19:
        a, b, c = _random_table_triple(rng, p)
        table = predicted.nine_weight_table(a, b, c, p)
        por = predicted.enumerate_predicted(table.source)
        if por.weights != table.weights:
            _fail(failures, params=[a, b, c], reason="table/enumeration mismatch")
        rotated = predicted.theta(a, b, c, p)
        table2 = predicted.nine_weight_table(*rotated, p)
        if table2.weights != table.weights:
            _fail(failures, params=[a, b, c], reason="theta changes the nine-set")
    t = tt.type_from_exponent(p, rng.randrange(p**3 - 1))
    if not t.is_irreducible():
        return
    fast = predicted.enumerate_predicted(t)
    dual_set = predicted.enumerate_predicted(tt.dual_twist(t, 2))
    if frozenset(wt.dual(w) for w in fast.weights) != dual_set.weights:
        _fail(failures, rep=t.orbit_rep(), reason="duality mismatch")
    if p <= 13:
        strip = [(z + g1 + g2, z + g2, z)
                 for g1 in range(p - 2) for g2 in range(p - 2) for z in range(p - 1)]
        member = predicted.are_members(p, strip, t.orbit_rep())
        if {wt.WeightClass(p, 3, v) for v, m in zip(strip, member) if m} != fast.weights:
            _fail(failures, rep=t.orbit_rep(), reason="solver/scan mismatch")


def sweep_elimination(rng: random.Random, p: int, failures: list[dict]) -> None:
    """A small-span or a large-span weight, half the time each, and a type
    whose verdict must match the weight's evidence: the membership orbit set
    at small span, the report's lift intersection at large span.  Most types
    are eliminated, so a share is drawn from the evidence: at small span half
    from the membership set, at large span a third from the intersection and
    a third from one lift's set less the intersection; the rest uniformly."""
    z = rng.randrange(p - 1)
    small = rng.random() < 0.5
    g1 = rng.randrange(p - 3) if small else rng.randrange(8, p - 5)
    g2 = rng.randrange(p - 3 - g1) if small else rng.randrange(max(8, p + 2 - g1), p - 5)
    w = wt.canonicalize((z + g1 + g2, z + g2, z), p)
    members = predicted.membership_reps(p, w.coords)
    if small:
        draws = (members, None)
    else:
        *lift_sets, inter = elimination.intersection_sets(w)
        if not all(set(inter) <= set(reps) for reps in lift_sets):
            _fail(failures, coords=list(w.coords), reason="intersection not minimal")
        if inter != members:
            _fail(failures, coords=list(w.coords), reason="prediction mismatch")
        draws = (inter, sorted(set(rng.choice(lift_sets)).difference(inter)), None)
    draw = rng.choice(draws)
    t = tt.type_from_exponent(p, rng.choice(draw) if draw else rng.randrange(p**3 - 1))
    if not t.is_irreducible():
        return
    report = elimination.eliminate(w, t)
    consistent = report.verdict == elimination.CONSISTENT
    if not small and consistent != predicted.is_predicted(w, t):
        _fail(failures, coords=list(w.coords), rep=t.orbit_rep(),
              reason="verdict disagrees with membership")
    # the verdict is a hit test, the evidence an orbit set
    if consistent != (t.orbit_rep() in (members if small else report.intersection)):
        _fail(failures, coords=list(w.coords), rep=t.orbit_rep(),
              reason="verdict disagrees with its evidence")


def sweep_cycling(rng: random.Random, p: int, failures: list[dict]) -> None:
    a, b, c = _random_table_triple(rng, p)
    table = predicted.nine_weight_table(a, b, c, p)
    t = table.source if rng.random() < 0.5 else tt.dual_twist(table.source, 2)
    start = rng.choice(sorted(table.weights, key=lambda v: v.coords))
    if t is not table.source:
        start = wt.dual(start)
    g = cycling.cycle(t, start)
    if g.status != cycling.STATUS_COMPLETE:
        _fail(failures, params=[a, b, c], start=list(start.coords),
              reason="closure incomplete")


def sweep_slopes(rng: random.Random, p: int, failures: list[dict]) -> None:
    del p
    n = rng.randrange(2, 5)
    f = rng.randrange(1, 4)
    e_ram = rng.randrange(1, 4)
    hodge = []
    for _ in range(f * e_ram):
        lam = sorted((rng.randrange(0, 30) for _ in range(n)), reverse=True)
        hodge.append(tuple(lam))
    j = rng.randrange(1, n)
    thr = slopes.ordinarity_threshold(
        slopes.hodge_data(n, f, e_ram, hodge, [0] * n), j
    )
    vals = sorted(Fraction(rng.randrange(0, 200), rng.randrange(1, 8))
                  for _ in range(n))
    h = slopes.hodge_data(n, f, e_ram, hodge, vals)
    mu = induction.AntidominantCochar((0,) * (n - j) + (1,) * j)
    if thr != Fraction(slopes.hecke_normalization(mu, h), e_ram):
        _fail(failures, reason="threshold/normalization mismatch")
    gap = slopes.newton_hodge_gap(h, j)
    if gap != h.t_vals[j - 1] - thr:
        _fail(failures, reason="gap identity broken")
    crit = slopes.slope_criticality(h, j)
    want = (slopes.CRITICAL if gap == 0
            else slopes.ABOVE_BOUND if gap > 0 else slopes.BELOW_BOUND)
    if crit != want:
        _fail(failures, reason="criticality tag mismatch")


# name -> (check, largest prime, smallest prime).  An exhaustive check
# takes p and returns (checks, failures); its work grows like p^2, so its
# row names the largest prime it accepts (decompose: about 10 s at 1021).
# A randomized check (None there) checks the instance its rng draws, and at
# most COUNT_LIMIT run (cycling, the slowest: about 30 s at p = 29 and 75 s
# at p = 1009 and at p = 65521).  Below the smallest prime, a randomized
# suite's draws (such as the table triples of `cycling`) have empty ranges.
SUITES = {
    "decompose": (sweep_decompose, 1021, 5),
    "orbits": (sweep_orbits, None, 5),
    "weights": (sweep_weights, None, 5),
    "tame": (sweep_tame, None, 5),
    "breuil": (sweep_breuil, None, 5),
    "candidates": (sweep_candidates, None, 11),
    "predicted": (sweep_predicted, None, 5),
    "elimination": (sweep_elimination, None, 17),
    "cycling": (sweep_cycling, None, 19),
    "slopes": (sweep_slopes, None, 5),
}
COUNT_LIMIT = 100_000


def _run_instances(
    name: str, p: int, seed: int, start: int, stop: int
) -> tuple[int, list[dict]]:
    """Instances start..stop-1 of a suite; an exhaustive suite runs whole."""
    check, largest, _floor = SUITES[name]
    if largest:
        return check(p)
    failures: list[dict] = []
    for i in range(start, stop):
        check(random.Random(f"{seed}:{i}"), p, failures)
    return stop - start, failures


def run_suite(
    name: str, p: int, seed: int, count: int, jobs: int = 1
) -> tuple[int, list[dict]]:
    """Instances 0..count-1 of a suite, with the same result for any jobs.

    Each of up to `jobs` processes takes a contiguous range of instance
    indices (sizes differ by at most one), and failures are joined in
    index order.  jobs must be at least 1; more processes than CPUs are
    not started, and an exhaustive suite runs whole in this process.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    _check, largest, floor = SUITES[name]
    arith.check_prime(p)
    if p < floor:
        raise ValueError(f"suite {name!r} needs p >= {floor}, got {p}")
    if largest and p > largest:
        raise ValueError(f"suite {name!r} needs p <= {largest}, got {p}")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    if count > COUNT_LIMIT:
        raise ValueError(f"count must be at most {COUNT_LIMIT}, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, count, os.cpu_count() or 1)
    if jobs <= 1 or largest:
        return _run_instances(name, p, seed, 0, count)
    from concurrent.futures import ProcessPoolExecutor

    size, extra = divmod(count, jobs)
    bounds = [i * size + min(i, extra) for i in range(jobs + 1)]
    args = [(name, p, seed, bounds[i], bounds[i + 1]) for i in range(jobs)]
    checks = 0
    failures: list[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for got_checks, got_failures in pool.map(_run_star, args):
            checks += got_checks
            failures.extend(got_failures)
    return checks, failures


def _run_star(args: tuple[str, int, int, int, int]) -> tuple[int, list[dict]]:
    return _run_instances(*args)
