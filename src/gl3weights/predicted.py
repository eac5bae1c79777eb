"""Predicted weight sets of irreducible niveau-3 tame types.

Membership of a weight F(x, y, z) with both differences at most p - 3
is decided by comparing the type against tau(xi, (x+2, y+1, z)) for the
two order-3 cycles, and additionally against tau(xi, (z+p, y+1, x-p+2))
when x - z exceeds p - 2.  For generic parameters the resulting set has
exactly nine classes, organised in three cyclically related families.
The comparisons are the per-prime membership digit rows: `are_members`
tests one type's orbit against them at a batch of weights (`is_member` is
its one-point call), and every verdict, `eliminate`'s small-span one
included, is that hit test.  `membership_reps` reduces the rows to the
orbit set a type must hit, memoized per weight: evidence for the sweeps,
read by no verdict.  One closed-form solve of the membership rows answers
both inverse questions, `enumerate_predicted` and `table_parameters`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .arith import MEMO_SIZE, Record, check_prime, digit_rows, row_reps
from .tame_types import ORDER_THREE_CYCLES, XI_123, TameType, tau, tau_exponent
from .weights import WeightClass, canonical, reflect

LOWER_FAMILY = "lower"
UPPER_FAMILY = "upper"
SHADOW_FAMILY = "shadow"


class PredictedSet(Record):
    """Predicted weights of a type, as a set of canonical classes."""

    __slots__ = ()
    _fields = ("p", "weights", "source")

    def sorted_weights(self) -> tuple[WeightClass, ...]:
        return tuple(sorted(self.weights, key=itemgetter(2)))  # by coords


# membership rows (xi, above the wall); the upper two apply when x - z > p - 2
MEMBERSHIP_ROWS = tuple((xi, high) for high in (False, True) for xi in ORDER_THREE_CYCLES)


def _mu(x: int, y: int, z: int, p: int, high: bool) -> tuple[int, int, int]:
    return (z + p, y + 1, x - p + 2) if high else (x + 2, y + 1, z)


@lru_cache(maxsize=MEMO_SIZE)
def _membership_rows(p: int) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """The exponent of F(x, y, z) on each of MEMBERSHIP_ROWS, as digit rows
    and scales (`arith.digit_rows`)."""
    return digit_rows(p, lambda v: [tau_exponent(xi, _mu(*v, p, high), p)
                                    for xi, high in MEMBERSHIP_ROWS])


@lru_cache(maxsize=MEMO_SIZE)
def membership_reps(p: int, coords: tuple[int, int, int]) -> tuple[int, ...]:
    """Orbit set (sorted, distinct) a type must hit for the weight to be
    predicted: the per-prime table `_membership_rows`, its upper two rows
    only when x - z > p - 2, evaluated at (x, y, z) in one `row_reps` call.
    It serves evidence and the sweeps only: no verdict reads it, as
    `are_members` answers `rep in membership_reps(p, coords)` itself.
    Below the wall mu = (x+2, y+1, z) is strictly decreasing of span at most
    p, so by tame rigidity (`sweeps.sweep_tame`) its two rows never collide."""
    x, y, z = coords
    rows = _membership_rows(p)[0]
    if x - z > p - 2:
        return tuple(sorted(set(row_reps(p, rows, x, y, z))))
    reps = row_reps(p, rows[:2], x, y, z)
    reps.sort()
    return tuple(reps)


def is_predicted(w: WeightClass, t: TameType) -> bool:
    """Whether the weight lies in the predicted set of the type."""
    if w.p != t.p:
        raise ValueError("weight and type live over different characteristics")
    return is_member(w.p, w.coords, t.orbit_rep())


def is_member(p: int, coords: tuple[int, int, int], rep: int) -> bool:
    """`is_predicted` for F(coords) and the type of orbit representative
    rep, past its entry checks: the one-point call of `are_members`."""
    return are_members(p, (coords,), rep)[0]


def are_members(p: int, points, rep: int) -> list[bool]:
    """`is_member` at each of points, in order, for one orbit's least member
    rep: the strip check, then a hit test of the membership rows (the upper
    two only when x - z > p - 2).  A row hits when its digit-row value
    f + k0 lies in {rep, p*rep, p^2*rep}, so the answer is
    `rep in membership_reps(p, coords)` without reducing a row, sorting an
    orbit set or adding a memo entry."""
    e, pp = p**3 - 1, p * p
    orbit = {rep, rep * p % e, rep * pp % e}
    (fa, ka, _, _), (fb, kb, _, _), (fc, kc, _, _), (fd, kd, _, _) = _membership_rows(p)[0]
    out = []
    for x, y, z in points:
        if not (x - y <= p - 3 and y - z <= p - 3):
            raise ValueError(f"F({x},{y},{z}) has a difference above p-3;"
                             " membership is undefined there")
        forms = (x + p * y + pp * z, x + pp * y + p * z)
        out.append((forms[fa] + ka) % e in orbit or (forms[fb] + kb) % e in orbit
                   or x - z > p - 2 and ((forms[fc] + kc) % e in orbit
                                         or (forms[fd] + kd) % e in orbit))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _solvers(p: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(q, k0, u, s, least) per membership row and power q of p, the row's
    scale first: on F(g1+g2+z, g2+z, z) a digit row is g1 + s*g2 + k0 +
    z*(p^2+p+1), so the base-(p+1) digits of (q*n-k0)*u mod p^2+p+1 are
    (g2, g1) on form 0 (u = 1, s = p+1), and (g1, g2) on form 1 (u = p+1,
    s = p^2+1, as -p(p+1) = 1); least is the least x - z of the row."""
    e = p**3 - 1
    rows, scales = _membership_rows(p)
    return tuple((scale * q % e, k0, p + 1 if form else 1, p * p + 1 if form else p + 1,
                  p - 1 if high else 0)
                 for (form, k0, _, _), scale, (_, high) in zip(rows, scales, MEMBERSHIP_ROWS)
                 for q in (1, p, p * p))


def _solutions(p: int, n: int, solvers):
    """Each solver's F(x, y, z), 0 <= z <= p-2, with q*n on its digit row,
    when x - y and y - z are at most top = p-3 (the strip) and x - z at least
    least.  A step in z adds p^2+p+1, so (x - y, y - z) solve one congruence
    modulo p^2+p+1, by a base-(p+1) split that is injective on [0, p-3]^2,
    where it stays below (p+2)(p-3) < p^2+p+1: no other strip weight has q*n."""
    c2 = p * p + p + 1
    e, base, top = c2 * (p - 1), p + 1, p - 3
    for q, k0, u, s, least in solvers:
        m = n * q - k0
        g, h = divmod(m * u % c2, base)
        g1, g2 = (h, g) if u == 1 else (g, h)
        if g1 <= top and g2 <= top and g1 + g2 >= least:
            z = (m - g1 - s * g2) % e // c2
            yield g1 + g2 + z, g2 + z, z


def enumerate_predicted(t: TameType) -> PredictedSet:
    """All weights in the validity strip predicted for the type.

    Each Frobenius orbit member and membership row contribute at most
    one weight, kept when both its differences are at most p-3 (and
    x - z > p-2 on the upper rows).  As q*rep runs over the orbit, the
    12 solves read only the representative.
    """
    p, rep = t.p, t.orbit_rep()
    found = frozenset(WeightClass._make((p, 3, xyz)) for xyz in _solutions(p, rep, _solvers(p)))
    return PredictedSet._make((p, found, t))


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
    check_prime(p)
    if not in_table_range(a, b, c, p):
        raise ValueError(
            f"({a},{b},{c}) violates a-b > 5, b-c > 4, a-c < p-7 at p={p}"
        )
    turned = theta(a, b, c, p)
    orbit = ((a, b, c), turned, theta(*turned, p))
    lower = tuple(canonical(coords, p) for coords in orbit)
    return {
        LOWER_FAMILY: lower,
        UPPER_FAMILY: tuple(canonical((z + p - 2, y + 1, x - p + 1), p) for x, y, z in orbit),
        SHADOW_FAMILY: tuple(map(reflect, lower)),
    }


def nine_weight_table(a: int, b: int, c: int, p: int) -> PredictedSet:
    fams = nine_weight_families(a, b, c, p)
    weights = frozenset(w for fam in fams.values() for w in fam)
    source = tau(XI_123, (a + 2, b + 1, c), p)
    return PredictedSet(p, weights, source)


def table_parameters(t: TameType) -> tuple[tuple[int, int, int], ...]:
    """The inverse of `nine_weight_table`: every (a, b, c) in the table range,
    0 <= c <= p-2, with tau((1 2 3), (a+2, b+1, c)) = t, sorted.  These are
    the solves on the membership row ((1 2 3), low), the first three."""
    p = t.p
    found = _solutions(p, t.orbit_rep(), _solvers(p)[:3])
    return tuple(sorted({abc for abc in found if in_table_range(*abc, p)}))
