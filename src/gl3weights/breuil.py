"""Rank-one Breuil modules with descent data, and reduction candidates.

A rank-one module over the tame extension of degree e = p^d - 1 is
described by Frobenius heights r_i in [0, e*r] and descent exponents
k_i mod e on the d embedding components, subject to the cyclic
congruence k_i = p (k_{i-1} + r_{i-1}) mod e.  Its generic fibre is
determined on inertia by a single exponent kappa_0, computed exactly.

The second half tabulates, for the three relevant shapes of potentially
crystalline rank-3 lifts, the finitely many niveau-3 exponents whose
characters can appear in mod-p reductions of the lift's inertial type.
`LIFT_HEIGHTS` holds them as data of the first half: each is the inertial
character of a module with d = 3, r = 2, k_0 a digit order of (a, b, c)
and heights h*e, h in {0, 1, 2}^3.  As p = 1 mod p - 1, a candidate and
its digits are a + b + c + h_0 + h_1 + h_2 mod p - 1, and every h sums to
3, the determinant condition: hence acceptance 7's digit sum a + b + c + 3.
Which vectors of sum 3 each (kind, digit order) admits is not derived here,
but at the large-span lifts of F(x, y, z) (`elimination`) rows 4, 1, 4 of
(principal series, cuspidal, cuspidal dual) give, up to a power of p,
`predicted`'s membership row ((1 2 3), low); rows 1, 4, 1 give ((1 3 2),
low), rows 5, 6, 0 ((1 2 3), high) and rows 2, 0, 6 ((1 3 2), high), and
acceptance 5's identity fixes these twelve.  The other rows shape only the
`lift_sets` evidence, which the tests pin only through a second, hand-written
transcription (tests/oracles.py) and through frozen outputs.
"""

from __future__ import annotations

import random
from itertools import product

from .arith import ExpClass, Record, check_niveau, check_prime, exp_class, orbit_rep

PRINCIPAL_SERIES = "principal_series"
CUSPIDAL = "cuspidal"
CUSPIDAL_DUAL = "cuspidal_dual"

# per kind, its candidates in order: (digit order (i, j, k) of (a, b, c), h);
# the cuspidal dual's are 2(p^2+p+1) - n of the cuspidal n at (-c, -b, -a)
LIFT_HEIGHTS = {
    PRINCIPAL_SERIES: (((0, 2, 1), (1, 1, 1)), ((0, 1, 2), (1, 1, 1)),
                       ((0, 2, 1), (1, 2, 0)), ((0, 1, 2), (2, 1, 0)),
                       ((0, 2, 1), (2, 1, 0)), ((0, 1, 2), (2, 0, 1))),
    CUSPIDAL: tuple(((0, 2, 1), h) for h in ((0, 2, 1), (1, 1, 1), (1, 2, 0)))
    + tuple(((0, 1, 2), h) for h in product(range(3), repeat=3) if sum(h) == 3),
}
LIFT_HEIGHTS[CUSPIDAL_DUAL] = tuple((tuple(2 - i for i in order), tuple(2 - x for x in h))
                                    for order, h in LIFT_HEIGHTS[CUSPIDAL])
LIFT_KINDS = tuple(LIFT_HEIGHTS)


class BreuilModule(Record):
    """Rank-one module datum (p, d, r, heights r_i, descent exponents k_i)."""

    __slots__ = ()
    _fields = ("p", "d", "r", "heights", "exponents")

    @property
    def e(self) -> int:
        return self.p**self.d - 1


def _check_parameters(p: int, d: int, r: int) -> None:
    """Reject p, d and the weight bound r before any work modulo p^d - 1."""
    check_prime(p)
    check_niveau(d)
    if not 0 <= r <= p - 2:
        raise ValueError(f"weight bound r={r} must lie in [0, {p - 2}]")


def validate(
    p: int, d: int, r: int, heights: tuple[int, ...], exponents: tuple[int, ...]
) -> BreuilModule:
    """Check the defining inequalities and congruences; raise on failure."""
    _check_parameters(p, d, r)
    if len(heights) != d or len(exponents) != d:
        raise ValueError(f"need {d} heights and {d} exponents")
    e = p**d - 1
    for i, ri in enumerate(heights):
        if not 0 <= ri <= e * r:
            raise ValueError(f"height r_{i}={ri} outside [0, {e * r}]")
    ks = tuple(k % e for k in exponents)
    for i in range(d):
        want = p * (ks[i - 1] + heights[i - 1]) % e
        if ks[i] != want:
            raise ValueError(
                f"descent congruence fails at i={i}: "
                f"k_{i}={ks[i]} but p*(k_{(i - 1) % d}+r_{(i - 1) % d}) = {want} mod {e}"
            )
    return BreuilModule(p, d, r, tuple(heights), ks)


def descent_exponents(p: int, d: int, k0: int, heights: tuple[int, ...]) -> tuple[int, ...]:
    """The descent exponents k_i = p (k_{i-1} + r_{i-1}) mod p^d - 1 from k_0."""
    check_prime(p)
    check_niveau(d)
    if len(heights) != d:
        raise ValueError(f"need {d} heights, got {len(heights)}")
    e = p**d - 1
    ks = [k0]
    for i in range(1, d):
        ks.append(p * (ks[-1] + heights[i - 1]) % e)
    return tuple(ks)


def _height_sum(m: BreuilModule, start: int) -> int:
    """sum_j r_{start+j} p^(d-1-j), indices mod d."""
    total = 0
    for j in range(m.d):
        total += m.heights[(start + j) % m.d] * m.p ** (m.d - 1 - j)
    return total


def fractional_shift(m: BreuilModule, i: int = 0) -> int:
    """The integer s_i = p * sum_j r_{i+j} p^(d-1-j) / e.

    Integrality is forced by the cyclic descent congruence; s satisfies
    s_{i+1} = p (s_i - r_i) and s_i >= r_i.
    """
    num = m.p * _height_sum(m, i)
    if num % m.e:
        raise ValueError("height vector violates the cyclic divisibility")
    return num // m.e


def inertial_character(m: BreuilModule) -> ExpClass:
    """Exponent kappa_0 of the inertial action on the generic fibre."""
    return exp_class(m.p, m.d, m.exponents[0] + fractional_shift(m, 0))


def maximal_model(m: BreuilModule) -> BreuilModule:
    """The unique model of the same generic fibre with all heights e*r."""
    e = m.e
    kappa = inertial_character(m).value
    unit = e // (m.p - 1)
    heights = (e * m.r,) * m.d
    ks = descent_exponents(m.p, m.d, (kappa - m.r * unit) % e, heights)
    return BreuilModule(m.p, m.d, m.r, heights, ks)


def is_maximal(m: BreuilModule) -> bool:
    return all(ri == m.e * m.r for ri in m.heights)


def is_minimal(m: BreuilModule) -> bool:
    return all(ri == 0 for ri in m.heights)


def random_module(rng: random.Random, p: int, d: int, r: int) -> BreuilModule:
    """Draw a random valid module; used by sweeps and tests.

    All but the last height are free; the last is chosen among the
    residues in [0, e*r] making the cyclic divisibility hold.
    """
    _check_parameters(p, d, r)
    e = p**d - 1
    heights = [rng.randrange(0, e * r + 1) for _ in range(d - 1)]
    partial = sum(h * p ** (d - 1 - j) for j, h in enumerate(heights))
    # the cyclic divisibility asks e | sum_j r_j p^(d-1-j); solve for the last
    residue = (-partial) % e
    # never empty: e*r >= e > residue for r >= 1, and residue = 0 for r = 0
    heights.append(rng.choice(range(residue, e * r + 1, e)))
    ks = descent_exponents(p, d, rng.randrange(0, e), heights)
    return validate(p, d, r, tuple(heights), ks)


def _check_lift(kind: str, p: int) -> None:
    """The prime check, then the kind check, by comparison: an unhashable kind is unknown too."""
    check_prime(p)
    if kind not in LIFT_KINDS:
        raise ValueError(f"unknown lift kind {kind!r}")


class LiftType(Record):
    """Inertial type of a potentially crystalline rank-3 lift.

    kind selects the digit layout of the characteristic-zero type:
    a sum of three tame characters (principal series), a niveau-3
    character with ascending digits (a, b, c), or one with the digits
    reversed (c, b, a).  The checked constructor, which every factory
    calls, also requires the gaps a-b > 2, b-c > 2 and a-c < p-3.
    """

    __slots__ = ()
    _fields = ("kind", "p", "a", "b", "c")

    def __init__(self, kind: str, p: int, a: int, b: int, c: int) -> None:
        _check_lift(kind, p)
        if not (a - b > 2 and b - c > 2 and a - c < p - 3):
            raise ValueError(
                f"parameters {(a, b, c)} violate a-b > 2, b-c > 2, a-c < p-3 at p={p}"
            )

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def principal_series(p: int, exps: tuple[int, int, int]) -> LiftType:
    a, b, c = sorted(exps, reverse=True)
    return LiftType(PRINCIPAL_SERIES, p, a, b, c)


def cuspidal(p: int, params: tuple[int, int, int]) -> LiftType:
    return LiftType(CUSPIDAL, p, *params)


def cuspidal_dual(p: int, params: tuple[int, int, int]) -> LiftType:
    return LiftType(CUSPIDAL_DUAL, p, *params)


def candidate_exponents(lift: tuple) -> list[int]:
    """Candidate niveau-3 exponents of a lift, before reduction to orbit representatives.

    Row (i, j, k), h of the kind's `LIFT_HEIGHTS` is k_0 = v_i + p v_j + p^2 v_k,
    v = (a, b, c), plus `fractional_shift` of heights h*e: p (h_0 p^2 + h_1 p + h_2)
    = h_0 + p h_2 + p^2 h_1 mod p^3 - 1.  Plain fields get the prime and kind
    checks of `LiftType`, not its gap check."""
    kind, p, *v = lift
    _check_lift(kind, p)
    return [v[i] + h0 + p * (v[j] + h2) + p * p * (v[k] + h1)
            for (i, j, k), (h0, h1, h2) in LIFT_HEIGHTS[kind]]


def candidate_orbits(lift: tuple) -> tuple[int, ...]:
    """All inertial exponents of rank-one subquotients of reductions.

    Each candidate is the niveau-3 exponent of a character that can
    occur in a reduction of a lattice in the lift; candidates are
    collected as Frobenius orbit representatives, a sorted tuple.  The
    lift is a `LiftType` or its fields (kind, p, a, b, c).
    """
    return tuple(sorted({orbit_rep(lift[1], n) for n in candidate_exponents(lift)}))
