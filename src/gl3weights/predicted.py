"""Predicted weight sets of irreducible niveau-3 tame types.

Membership of a weight F(x, y, z) with both differences at most p - 3
is decided by comparing the type against tau(xi, (x+2, y+1, z)) for the
two order-3 cycles, and additionally against tau(xi, (z+p, y+1, x-p+2))
when x - z exceeds p - 2.  For generic parameters the resulting set has
exactly nine classes, organised in three cyclically related families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import orbit_rep
from .tame_types import (
    ORDER_THREE_CYCLES,
    TameType,
    tau_exponent,
    type_from_exponent,
)
from .weights import WeightClass, canonicalize

LOWER_FAMILY = "lower"
UPPER_FAMILY = "upper"
SHADOW_FAMILY = "shadow"


@dataclass(frozen=True)
class PredictedSet:
    """Predicted weights of a type, as a set of canonical classes."""

    p: int
    weights: frozenset[WeightClass]
    source: TameType

    def sorted_weights(self) -> tuple[WeightClass, ...]:
        return tuple(sorted(self.weights, key=lambda w: w.coords))


def _require_irreducible(t: TameType) -> int:
    if not t.is_irreducible():
        raise ValueError("predicted sets are computed for irreducible niveau-3 types")
    return t.orbit_rep()


@lru_cache(maxsize=None)
def membership_reps(p: int, coords: tuple[int, int, int]) -> frozenset[int]:
    """Orbit representatives a type must hit for the weight to be predicted."""
    x, y, z = coords
    candidates = [tau_exponent(xi, (x + 2, y + 1, z), p) for xi in ORDER_THREE_CYCLES]
    if x - z > p - 2:
        candidates += [
            tau_exponent(xi, (z + p, y + 1, x - p + 2), p) for xi in ORDER_THREE_CYCLES
        ]
    return frozenset(orbit_rep(p, v) for v in candidates)


def is_predicted(w: WeightClass, t: TameType) -> bool:
    """Whether the weight lies in the predicted set of the type."""
    if w.n != 3:
        raise ValueError("membership is defined for rank-3 weights")
    if w.p != t.p:
        raise ValueError("weight and type live over different characteristics")
    rep = _require_irreducible(t)
    x, y, z = w.coords
    if not (x - y <= w.p - 3 and y - z <= w.p - 3):
        raise ValueError(
            f"{w} has a difference above p-3; membership is undefined there"
        )
    return rep in membership_reps(w.p, w.coords)


# solver rows: (needs_span_above_wall, coefficient of g1, baseline(g2))
def _solver_rows(p: int) -> tuple[tuple[bool, int, object], ...]:
    p2 = p * p
    return (
        (False, 1, lambda g2: (g2 + 2) + p * (g2 + 1)),
        (False, 1, lambda g2: (g2 + 2) + p2 * (g2 + 1)),
        (True, p2, lambda g2: p + p * (g2 + 1) + p2 * (g2 + 2 - p)),
        (True, p, lambda g2: p + p * (g2 + 2 - p) + p2 * (g2 + 1)),
    )


def enumerate_predicted(t: TameType) -> PredictedSet:
    """All weights in the validity strip predicted for the type.

    For fixed differences (g1, g2) the membership exponent is linear in
    the last coordinate with slope p^2 + p + 1, so each Frobenius orbit
    member contributes at most one weight per (row, g2): solve for g1
    modulo p^2 + p + 1, then divide out the slope to recover z.
    """
    p = t.p
    _require_irreducible(t)
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


def enumerate_predicted_bruteforce(t: TameType) -> PredictedSet:
    """Quadratic-in-p scan of the whole validity strip; slow oracle."""
    p = t.p
    _require_irreducible(t)
    found = set()
    for g1 in range(p - 2):
        for g2 in range(p - 2):
            for z in range(p - 1):
                w = WeightClass(p, 3, (z + g1 + g2, z + g2, z))
                if is_predicted(w, t):
                    found.add(w)
    return PredictedSet(p, frozenset(found), t)


def check_table_range(a: int, b: int, c: int, p: int) -> None:
    if not (a - b > 5 and b - c > 4 and a - c < p - 7):
        raise ValueError(
            f"({a},{b},{c}) violates a-b > 5, b-c > 4, a-c < p-7 at p={p}"
        )


def theta(a: int, b: int, c: int, p: int) -> tuple[int, int, int]:
    """Parameter rotation preserving the predicted set: cube is a shift
    by p - 1 and therefore fixes all nine classes."""
    return (c + p - 2, a, b + 1)


def nine_weight_families(
    a: int, b: int, c: int, p: int
) -> dict[str, tuple[WeightClass, WeightClass, WeightClass]]:
    """The predicted set of tau((1 2 3), (a+2, b+1, c)), by family.

    Lower-alcove members, their upper-alcove reflection partners
    ("shadow"), and the remaining upper-alcove members.
    """
    check_table_range(a, b, c, p)
    lower = (
        canonicalize((a, b, c), p),
        canonicalize((c + p - 2, a, b + 1), p),
        canonicalize((b, c - 1, a - p + 2), p),
    )
    upper = (
        canonicalize((c + p - 2, b + 1, a - p + 1), p),
        canonicalize((b + p - 1, a + 1, c - 1), p),
        canonicalize((a, c, b - p + 1), p),
    )
    shadow = (
        canonicalize((c + p - 2, b, a - p + 2), p),
        canonicalize((b + p - 1, a, c), p),
        canonicalize((a, c - 1, b - p + 2), p),
    )
    return {LOWER_FAMILY: lower, UPPER_FAMILY: upper, SHADOW_FAMILY: shadow}


def nine_weight_table(a: int, b: int, c: int, p: int) -> PredictedSet:
    fams = nine_weight_families(a, b, c, p)
    weights = frozenset(w for fam in fams.values() for w in fam)
    source = type_from_exponent(p, tau_exponent("123", (a + 2, b + 1, c), p))
    return PredictedSet(p, weights, source)
