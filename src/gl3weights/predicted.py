"""Predicted weight sets of irreducible niveau-3 tame types.

Membership of a weight F(x, y, z) with both differences at most p - 3
is decided by comparing the type against tau(xi, (x+2, y+1, z)) for the
two order-3 cycles, and additionally against tau(xi, (z+p, y+1, x-p+2))
when x - z exceeds p - 2.  For generic parameters the resulting set has
exactly nine classes, organised in three cyclically related families.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import MEMO_SIZE, Record, check_prime, orbit_reps, solve_digit_pair
from .tame_types import ORDER_THREE_CYCLES, XI_123, TameType, tau, tau_exponent
from .weights import WeightClass, canonical

LOWER_FAMILY = "lower"
UPPER_FAMILY = "upper"
SHADOW_FAMILY = "shadow"


class PredictedSet(Record):
    """Predicted weights of a type, as a set of canonical classes."""

    __slots__ = ()
    _fields = ("p", "weights", "source")

    def sorted_weights(self) -> tuple[WeightClass, ...]:
        return tuple(sorted(self.weights, key=lambda w: w.coords))


def _require_irreducible(t: TameType) -> int:
    if not t.is_irreducible():
        raise ValueError("predicted sets are computed for irreducible niveau-3 types")
    return t.orbit_rep()


# membership rows (xi, above the wall); the upper two apply when x - z > p - 2
MEMBERSHIP_ROWS = tuple((xi, high) for high in (False, True) for xi in ORDER_THREE_CYCLES)


def _mu(x: int, y: int, z: int, p: int, high: bool) -> tuple[int, int, int]:
    return (z + p, y + 1, x - p + 2) if high else (x + 2, y + 1, z)


@lru_cache(maxsize=MEMO_SIZE)
def _row_congruence(p: int, xi: str, high: bool) -> tuple[int, int, int, int, int]:
    """(e0, k1, k2, u, slope): the row's exponent of F(g1+g2, g2, 0) is
    e0 + k1*g1 + k2*g2 mod p^3-1, and u*k1 = 1, u*k2 = slope mod p^2+p+1."""
    c2 = p * p + p + 1
    e0, e1, e2 = (
        tau_exponent(xi, _mu(g1 + g2, g2, 0, p, high), p)
        for g1, g2 in ((0, 0), (1, 0), (0, 1))
    )
    u = pow(e1 - e0, -1, c2)
    return e0, e1 - e0, e2 - e0, u, (e2 - e0) * u % c2


@lru_cache(maxsize=MEMO_SIZE)
def membership_reps(p: int, coords: tuple[int, int, int]) -> frozenset[int]:
    """Orbit representatives a type must hit for the weight to be predicted.

    Each row's exponent is its `_row_congruence` at (x-y, y-z) plus z*(p^2+p+1)."""
    x, y, z = coords
    rows = MEMBERSHIP_ROWS if x - z > p - 2 else MEMBERSHIP_ROWS[:2]
    shift = z * (p * p + p + 1)
    return orbit_reps(p, [e0 + k1 * (x - y) + k2 * (y - z) + shift
                          for e0, k1, k2, _, _ in (_row_congruence(p, *row) for row in rows)])


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


def membership_solution(p: int, n: int, xi: str, high: bool) -> tuple[int, int, int]:
    """The weight F(x, y, z), 0 <= z <= p-2, with exponent n on the row
    (xi, high); it is the only one with both differences at most p-3.

    Moving z by one adds p^2+p+1 to the exponent, so the differences
    solve one congruence modulo p^2+p+1 and z is the quotient of the rest.
    """
    e0, k1, k2, u, slope = _row_congruence(p, xi, high)
    g1, g2 = solve_digit_pair(p, slope, (n - e0) * u)
    c2 = p * p + p + 1
    z = (n - e0 - k1 * g1 - k2 * g2) % (c2 * (p - 1)) // c2
    return (g1 + g2 + z, g2 + z, z)


def enumerate_predicted(t: TameType) -> PredictedSet:
    """All weights in the validity strip predicted for the type.

    Each Frobenius orbit member and membership row contribute at most
    one weight, the row's `membership_solution`, kept when both its
    differences are at most p-3 (and x - z > p-2 on the upper rows).
    """
    p = t.p
    _require_irreducible(t)
    found: set[WeightClass] = set()
    for n in t.chars[0].elements():
        for xi, high in MEMBERSHIP_ROWS:
            x, y, z = membership_solution(p, n, xi, high)
            if x - y <= p - 3 and y - z <= p - 3 and (x - z > p - 2 or not high):
                found.add(canonical((x, y, z), p))
    return PredictedSet(p, frozenset(found), t)


def in_table_range(a: int, b: int, c: int, p: int) -> bool:
    """Whether (a, b, c) parametrizes a nine-weight table."""
    return a - b > 5 and b - c > 4 and a - c < p - 7


def theta(a: int, b: int, c: int, p: int) -> tuple[int, int, int]:
    """Parameter rotation preserving the predicted set: cube is a shift
    by p - 1 and therefore fixes all nine classes."""
    return (c + p - 2, a, b + 1)


def nine_weight_families(
    a: int, b: int, c: int, p: int
) -> dict[str, tuple[WeightClass, WeightClass, WeightClass]]:
    """The predicted set of tau((1 2 3), (a+2, b+1, c)), by family.

    Lower-alcove members, their upper-alcove reflection partners
    ("shadow"), and the remaining upper-alcove members.  Each family is
    one form of the parameters, taken over their theta-orbit.
    """
    if not in_table_range(a, b, c, p):
        raise ValueError(
            f"({a},{b},{c}) violates a-b > 5, b-c > 4, a-c < p-7 at p={p}"
        )
    check_prime(p)
    turned = theta(a, b, c, p)
    orbit = ((a, b, c), turned, theta(*turned, p))
    return {
        LOWER_FAMILY: tuple(canonical((x, y, z), p) for x, y, z in orbit),
        UPPER_FAMILY: tuple(canonical((z + p - 2, y + 1, x - p + 1), p) for x, y, z in orbit),
        SHADOW_FAMILY: tuple(canonical((z + p - 2, y, x - p + 2), p) for x, y, z in orbit),
    }


def nine_weight_table(a: int, b: int, c: int, p: int) -> PredictedSet:
    fams = nine_weight_families(a, b, c, p)
    weights = frozenset(w for fam in fams.values() for w in fam)
    source = tau(XI_123, (a + 2, b + 1, c), p)
    return PredictedSet(p, weights, source)
