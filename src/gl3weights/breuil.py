"""Rank-one Breuil modules with descent data.

A rank-one module over the tame extension of degree e = p^d - 1 is
described by Frobenius heights r_i in [0, e*r] and descent exponents
k_i mod e on the d embedding components, subject to the cyclic
congruence k_i = p (k_{i-1} + r_{i-1}) mod e.  Its generic fibre is
determined on inertia by a single exponent kappa_0, computed exactly.
The lifts' candidate tables (`elimination.LIFT_HEIGHTS`) are inertial
characters of such modules with d = 3 and r = 2.
"""

from __future__ import annotations

import random

from .arith import ExpClass, Record, check_niveau, check_prime, exp_class


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
