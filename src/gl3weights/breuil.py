"""Rank-one Breuil modules with descent data, and reduction candidates.

A rank-one module over the tame extension of degree e = p^d - 1 is
described by Frobenius heights r_i in [0, e*r] and descent exponents
k_i mod e on the d embedding components, subject to the cyclic
congruence k_i = p (k_{i-1} + r_{i-1}) mod e.  Its generic fibre is
determined on inertia by a single exponent kappa_0, computed exactly.

The second half tabulates, for the three relevant shapes of potentially
crystalline rank-3 lifts, the finitely many niveau-3 exponents whose
characters can appear in mod-p reductions of the lift's inertial type.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .arith import MEMO_SIZE, ExpClass, Record, check_niveau, check_prime, exp_class, orbit_reps

PRINCIPAL_SERIES = "principal_series"
CUSPIDAL = "cuspidal"
CUSPIDAL_DUAL = "cuspidal_dual"

# parameter triples (a0, a1, a2) entering the candidate tables
TRIPLES_SHORT_PS = ((1, 1, 1), (1, 2, 0), (2, 1, 0))
TRIPLES_SHORT_CUSP = ((0, 2, 1), (1, 1, 1), (1, 2, 0))
TRIPLES_SUM3 = tuple(
    (a0, a1, a2)
    for a0 in range(3)
    for a1 in range(3)
    for a2 in range(3)
    if a0 + a1 + a2 == 3
)


class BreuilModule(Record):
    """Rank-one module datum (p, d, r, heights r_i, descent exponents k_i)."""

    __slots__ = ()
    _fields = ("p", "d", "r", "heights", "exponents")

    @property
    def e(self) -> int:
        return self.p**self.d - 1


def validate(
    p: int, d: int, r: int, heights: tuple[int, ...], exponents: tuple[int, ...]
) -> BreuilModule:
    """Check the defining inequalities and congruences; raise on failure."""
    check_prime(p)
    check_niveau(d)
    if not 0 <= r <= p - 2:
        raise ValueError(f"weight bound r={r} must lie in [0, {p - 2}]")
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
    check_prime(p)
    check_niveau(d)
    e = p**d - 1
    heights = [rng.randrange(0, e * r + 1) for _ in range(d - 1)]
    partial = sum(h * p ** (d - 1 - j) for j, h in enumerate(heights))
    # the cyclic divisibility asks e | sum_j r_j p^(d-1-j); solve for the last
    residue = (-partial) % e
    choices = range(residue, e * r + 1, e)
    heights.append(rng.choice(list(choices)) if choices else 0)
    ks = descent_exponents(p, d, rng.randrange(0, e), heights)
    return validate(p, d, r, tuple(heights), ks)


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
        check_prime(p)
        if kind not in (PRINCIPAL_SERIES, CUSPIDAL, CUSPIDAL_DUAL):
            raise ValueError(f"unknown lift kind {kind!r}")
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


def candidate_exponents(t: LiftType) -> list[int]:
    """Candidate niveau-3 exponents of a lift, before reduction to orbit representatives.

    Those of the reversed digits at (a, b, c) are the twisted duals,
    2(p^2+p+1) - n, of those n of the ascending digits at (-c, -b, -a)."""
    p = t.p
    a, b, c = t.params
    if t.kind == CUSPIDAL_DUAL:
        lift = LiftType.__new__(LiftType, CUSPIDAL, p, -c, -b, -a)
        return [2 * (p * p + p + 1) - n for n in candidate_exponents(lift)]
    out: list[int] = []
    if t.kind == PRINCIPAL_SERIES:
        for a0, a1, a2 in TRIPLES_SHORT_PS:
            out.append((a + a0) + p * (c + a2) + p * p * (b + a1))
            out.append((a + 2 - a2) + p * (b + 2 - a1) + p * p * (c + 2 - a0))
    else:
        for a0, a1, a2 in TRIPLES_SHORT_CUSP:
            out.append((a + a0) + p * (c + a2) + p * p * (b + a1))
        for a0, a1, a2 in TRIPLES_SUM3:
            out.append((a + a0) + p * (b + a2) + p * p * (c + a1))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _candidate_rows(kind: str, p: int) -> tuple[tuple[tuple[int, int, int], tuple[int, ...]], ...]:
    """The table of kind at p as rows ((ka, kb, kc), offsets): its candidates
    at (a, b, c) are ka*a + kb*b + kc*c + offset.  Each is affine in
    (a, b, c), so the origin and the unit vectors fix it."""
    at = [candidate_exponents(LiftType.__new__(LiftType, kind, p, *v))
          for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rows: dict[tuple[int, int, int], list[int]] = {}
    for n0, *ns in zip(*at):
        rows.setdefault(tuple(n - n0 for n in ns), []).append(n0)
    return tuple((k, tuple(offsets)) for k, offsets in rows.items())


def candidate_orbits(t: LiftType) -> frozenset[int]:
    """All inertial exponents of rank-one subquotients of reductions.

    Each candidate is the niveau-3 exponent of a character that can
    occur in a reduction of a lattice in the lift; candidates are
    collected as Frobenius orbit representatives.  Both admissible
    digit patterns of the descent data contribute a family.
    """
    return lift_orbits(t.kind, t.p, t.a, t.b, t.c)


def lift_orbits(kind: str, p: int, a: int, b: int, c: int) -> frozenset[int]:
    """`candidate_orbits` of the lift with these fields, which it does not build."""
    return orbit_reps(p, [ka * a + kb * b + kc * c + offset
                          for (ka, kb, kc), offsets in _candidate_rows(kind, p)
                          for offset in offsets])
