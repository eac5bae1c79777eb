"""Brute-force reference implementations used to pin down closed forms.

Everything here is deliberately naive: exhaustive searches over the full
shape space, with no arithmetic shortcuts, so the fast library code has
an independent witness to agree with.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from gl3weights.arith import MEMO_SIZE
from gl3weights.cycling import CASE_DIRECT, CASE_DUAL, STATUS_COMPLETE, STATUS_STUCK, CyclingGraph
from gl3weights.induction import implied_weights
from gl3weights.predicted import PredictedSet, is_predicted, nine_weight_families
from gl3weights.tame_types import XI_123, XI_132, TameType, tau_exponent
from gl3weights.weights import WeightClass, canonicalize, dual

# The library derives two tables from smaller data: the nine-weight
# families as three forms rotated by theta (predicted.nine_weight_families)
# and the lifts' candidates as rank-one Breuil height data, the cuspidal-dual
# rows reflected from the cuspidal ones (breuil.LIFT_HEIGHTS).  These are the
# tables typed out by hand, the lifts' as digit formulas over parameter triples.


def nine_weight_triples(a: int, b: int, c: int, p: int) -> dict[str, tuple]:
    """The nine-weight families of tau((1 2 3), (a+2, b+1, c)), listed triple
    by triple: lower-alcove members, remaining upper-alcove members, and the
    upper-alcove reflection partners of the lower ones."""
    return {
        "lower": ((a, b, c), (c + p - 2, a, b + 1), (b, c - 1, a - p + 2)),
        "upper": ((c + p - 2, b + 1, a - p + 1), (b + p - 1, a + 1, c - 1),
                  (a, c, b - p + 1)),
        "shadow": ((c + p - 2, b, a - p + 2), (b + p - 1, a, c), (a, c - 1, b - p + 2)),
    }


# parameter triples (a0, a1, a2) of the lifts' digit formulas
SHORT_PS = ((1, 1, 1), (1, 2, 0), (2, 1, 0))
SHORT_CUSP = ((0, 2, 1), (1, 1, 1), (1, 2, 0))
SUM3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def principal_series_exponents(p: int, a: int, b: int, c: int) -> list[int]:
    """The candidate exponents of the principal-series lift at (a, b, c):
    two digit formulas per short triple, interleaved."""
    out = []
    for a0, a1, a2 in SHORT_PS:
        out.append((a + a0) + p * (c + a2) + p * p * (b + a1))
        out.append((a + 2 - a2) + p * (b + 2 - a1) + p * p * (c + 2 - a0))
    return out


def cuspidal_exponents(p: int, a: int, b: int, c: int) -> list[int]:
    """The candidate exponents of the cuspidal lift at (a, b, c): digits
    (a, c, b) over the short triples, then (a, b, c) over those of sum 3."""
    out = [(a + a0) + p * (c + a2) + p * p * (b + a1) for a0, a1, a2 in SHORT_CUSP]
    out += [(a + a0) + p * (b + a2) + p * p * (c + a1) for a0, a1, a2 in SUM3]
    return out


def cuspidal_dual_exponents(p: int, a: int, b: int, c: int) -> list[int]:
    """The candidate exponents of the cuspidal-dual lift at (a, b, c): the
    digits of the cuspidal table reversed and reflected, term by term."""
    out = [(c + 2 - a0) + p * (a + 2 - a2) + p * p * (b + 2 - a1) for a0, a1, a2 in SHORT_CUSP]
    out += [(c + 2 - a0) + p * (b + 2 - a2) + p * p * (a + 2 - a1) for a0, a1, a2 in SUM3]
    return out


def split_solutions(n: int, p: int) -> list[tuple[str, int, int, int]]:
    """All (case, x, y, z) solving the three-digit split of n, by search.

    Case I demands n = x + p y + p^2 z with x > y >= z and x - z <= p;
    case II demands n = p^2 x + p y + z with x >= y > z and x - z <= p.
    The search range covers every triple that could conceivably hit a
    value in [0, p^3 - 1) given those inequalities.
    """
    found = []
    lo, hi = -(p + 2), p * p + p + 2
    for z in range(lo, hi):
        for y in range(z, hi):
            for x in range(y, x_upper(y, z, p)):
                if x > y >= z and x - z <= p and x + p * y + p * p * z == n:
                    found.append(("I", x, y, z))
                if x >= y > z and x - z <= p and p * p * x + p * y + z == n:
                    found.append(("II", x, y, z))
    return found


def x_upper(y: int, z: int, p: int) -> int:
    # x ranges over [y, z + p] inclusive; +1 for range()
    return z + p + 1


def orbit_elements(p: int, d: int, value: int) -> set[int]:
    e = p**d - 1
    out = set()
    v = value % e
    while v not in out:
        out.add(v)
        v = v * p % e
    return out


def least_orbit_member(p: int, d: int, value: int) -> int:
    """Frobenius orbit representative by walking the whole orbit."""
    return min(orbit_elements(p, d, value))


def weyl_dimension(x: int, y: int, z: int) -> int:
    return (x - y + 1) * (y - z + 1) * (x - z + 2) // 2


# Two O(p) scans witnessing the closed-form solve of the library
# (predicted._solutions): for each orbit member and each g2 they
# solve the membership congruence for g1 alone, with the rows written out
# by hand instead of derived from tau_exponent.

# solver rows: (needs_span_above_wall, coefficient of g1, baseline(g2))
def _solver_rows(p: int) -> tuple[tuple[bool, int, object], ...]:
    p2 = p * p
    return (
        (False, 1, lambda g2: (g2 + 2) + p * (g2 + 1)),
        (False, 1, lambda g2: (g2 + 2) + p2 * (g2 + 1)),
        (True, p2, lambda g2: p + p * (g2 + 1) + p2 * (g2 + 2 - p)),
        (True, p, lambda g2: p + p * (g2 + 2 - p) + p2 * (g2 + 1)),
    )


def enumerate_predicted_rowscan(t: TameType) -> PredictedSet:
    """All weights in the validity strip predicted for the type.

    For fixed differences (g1, g2) the membership exponent is linear in
    the last coordinate with slope p^2 + p + 1, so each Frobenius orbit
    member contributes at most one weight per (row, g2): solve for g1
    modulo p^2 + p + 1, then divide out the slope to recover z.
    """
    p = t.p
    if not t.is_irreducible():
        raise ValueError("predicted sets are computed for irreducible niveau-3 types")
    e = p**3 - 1
    c2 = p * p + p + 1
    inv = {1: 1, p: p * p % c2, p * p: p % c2}
    found: set[WeightClass] = set()
    for n in t.chars[0].elements():
        for needs_high, coef, baseline in _solver_rows(p):
            ic = inv[coef]
            for g2 in range(p - 2):
                g1 = (n - baseline(g2)) * ic % c2
                if g1 > p - 3:
                    continue
                if needs_high and g1 + g2 <= p - 2:
                    continue
                a_val = (baseline(g2) + coef * g1) % e
                z = (n - a_val) % e // c2
                found.add(WeightClass(p, 3, (z + g1 + g2, z + g2, z)))
    return PredictedSet(p, frozenset(found), t)


def table_parameter_scan(t: TameType) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, c) with a-b > 5, b-c > 4, a-c < p-7, last coordinate
    in [0, p-2], whose attached type tau((1 2 3), (a+2, b+1, c)) is t."""
    p = t.p
    e = p**3 - 1
    c2 = p * p + p + 1
    found = set()
    for n in t.chars[0].elements():
        for g2 in range(5, p - 13):
            base = (g2 + 2) + p * (g2 + 1)
            g1 = (n - base) % c2
            if not 6 <= g1 <= p - 8 - g2:
                continue
            a_val = (base + g1) % e
            z = (n - a_val) % e // c2
            found.add((z + g1 + g2, z + g2, z))
    return tuple(sorted(found))


def enumerate_predicted_bruteforce(t: TameType) -> PredictedSet:
    """Quadratic-in-p scan of the whole validity strip; slow oracle."""
    p = t.p
    if not t.is_irreducible():
        raise ValueError("predicted sets are computed for irreducible niveau-3 types")
    found = set()
    for g1 in range(p - 2):
        for g2 in range(p - 2):
            for z in range(p - 1):
                w = WeightClass(p, 3, (z + g1 + g2, z + g2, z))
                if is_predicted(w, t):
                    found.add(w)
    return PredictedSet(p, frozenset(found), t)


def implied_weight_tables(w: WeightClass, j: int) -> frozenset[WeightClass]:
    """The implied weights of the library (induction.implied_weights)
    typed out by hand: a 2-row table for the lower range and a 5-row
    table for the upper range, with no reference to the induction lists."""
    p = w.p
    x, y, z = w.coords
    if x - y > 0 and y - z > 0 and x - z < p - 1:
        if j == 1:
            raw = ((z + p - 1, x, y), (x, z, y - p + 1))
        else:
            raw = ((y, z, x - p + 1), (y + p - 1, x, z))
    elif x - y < p - 1 and y - z < p - 1 and x - z > p - 1:
        if j == 1:
            raw = (
                (x, z + p - 1, y),
                (x - 1, z + p - 1, y + 1),
                (y - 1, x - p + 1, z + 1),
                (z + p - 2, y, x - p + 2),
                (z + 2 * p - 2, x, y),
            )
        else:
            raw = (
                (y, x - p + 1, z),
                (y - 1, x - p + 1, z + 1),
                (x - 1, z + p - 1, y + 1),
                (z + p - 2, y, x - p + 2),
                (y, z, x - 2 * p + 2),
            )
    else:
        raise ValueError(f"{w} lies outside both implied-weight ranges")
    return frozenset(canonicalize(t, p) for t in raw)


# Two witnesses for the cycling engine (cycling.cycle), which reads every
# step from a per-type frame built once, in the orientation of the caller.


def _by_coords(ws) -> tuple[WeightClass, ...]:
    return tuple(sorted(ws, key=lambda v: v.coords))


def _graph(**fields) -> CyclingGraph:
    """A CyclingGraph from named fields (records take positional fields only)."""
    assert set(fields) == set(CyclingGraph._fields)
    return CyclingGraph(*(fields[f] for f in CyclingGraph._fields))


def closure_bfs(
    t: TameType, start: WeightClass, params: tuple[int, int, int],
    implied=implied_weights,
) -> CyclingGraph:
    """The direct cycling closure by a plain BFS over the nine-weight table.

    Every step filters implied(w, j) through is_predicted afresh; nothing
    is memoized and no step is shared between starts.
    """
    fams = nine_weight_families(*params, t.p)
    table = frozenset(w for fam in fams.values() for w in fam)
    nodes = {start}
    edges, stalls = [], []
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for j in (1, 2):
            forced = _by_coords(v for v in implied(w, j) if is_predicted(v, t))
            if len(forced) == 1:
                edges.append((w, forced[0], j))
                if forced[0] not in nodes:
                    nodes.add(forced[0])
                    queue.append(forced[0])
            elif forced:
                stalls.append((w, j, forced))
    missing = _by_coords(table - nodes)
    return _graph(
        p=t.p,
        case=CASE_DIRECT,
        params=params,
        source=t,
        start=start,
        nodes=frozenset(nodes),
        edges=tuple(edges),
        non_singletons=tuple(stalls),
        families=tuple(sorted(((w, name) for name, fam in fams.items() for w in fam),
                              key=lambda pair: pair[0].coords)),
        predicted=PredictedSet(t.p, table, t),
        status=STATUS_STUCK if missing else STATUS_COMPLETE,
        stuck_node=missing[0] if missing else None,
        stuck_reason=(f"closure reached {len(nodes)} of {len(table)} predicted weights"
                      if missing else None),
    )


def dualized_closure(g: CyclingGraph, t: TameType, start: WeightClass) -> CyclingGraph:
    """The dual-case graph of t from start, given the direct closure g of
    dual_twist(t, 2) from dual(start): every weight dualized, T1 and T2
    swapped, list order kept, stalls and families re-sorted by coordinates.
    """
    swap = {1: 2, 2: 1}
    return _graph(
        p=g.p,
        case=CASE_DUAL,
        params=g.params,
        source=t,
        start=start,
        nodes=frozenset(dual(w) for w in g.nodes),
        edges=tuple((dual(u), dual(v), swap[j]) for u, v, j in g.edges),
        non_singletons=tuple(
            (dual(w), swap[j], _by_coords(dual(v) for v in vs))
            for w, j, vs in g.non_singletons
        ),
        families=tuple(sorted(((dual(w), name) for w, name in g.families),
                              key=lambda pair: pair[0].coords)),
        predicted=PredictedSet(g.p, frozenset(dual(w) for w in g.predicted.weights), t),
        status=g.status,
        stuck_node=None if g.stuck_node is None else dual(g.stuck_node),
        stuck_reason=g.stuck_reason,
    )


@lru_cache(maxsize=MEMO_SIZE)
def surviving_family_reps(w: WeightClass) -> tuple[int, ...]:
    """Closed form of the large-span intersection: two short families,
    as an orbit set (a sorted tuple of distinct representatives).

    tau((1 3 2), (y+b0, x-p+1+b1, z+b2)) for (b0, b1, b2) in
    {(1,2,0), (2,1,0)} together with tau((1 2 3), same coordinates) for
    (b0, b1, b2) in {(1,1,1), (2,1,0)}.
    """
    x, y, z = w.coords
    p = w.p
    reps = set()
    for xi, triples in (
        (XI_132, ((1, 2, 0), (2, 1, 0))),
        (XI_123, ((1, 1, 1), (2, 1, 0))),
    ):
        for b0, b1, b2 in triples:
            mu = (y + b0, x - p + 1 + b1, z + b2)
            reps.add(least_orbit_member(p, 3, tau_exponent(xi, mu, p)))
    return tuple(sorted(reps))


def membership_reps_by_tau(p: int, coords: tuple[int, int, int]) -> tuple[int, ...]:
    """The orbit set of predicted.membership_reps, one tau_exponent per
    membership row, each reduced by walking its orbit: both cycles at
    (x+2, y+1, z) and, above the wall x - z > p - 2, also at
    (z+p, y+1, x-p+2)."""
    x, y, z = coords
    mus = [(x + 2, y + 1, z)]
    if x - z > p - 2:
        mus.append((z + p, y + 1, x - p + 2))
    return tuple(sorted({
        least_orbit_member(p, 3, tau_exponent(xi, mu, p)) for mu in mus for xi in (XI_123, XI_132)
    }))
