"""Slope bounds for normalised Hecke eigenvalues.

For a point with labelled Hodge-Tate weights lambda_tau the normalised
level-j Hecke eigenvalue t_j has p-adic valuation at least
(1/e') sum_tau sum_{i<=j} lambda_{tau, n+1-i}, where e' is the
ramification degree; equality (criticality) forces reducibility of the
attached local representation.  Everything is computed in exact
rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .arith import Record
from .induction import AntidominantCochar

BELOW_BOUND = "below_bound"
CRITICAL = "critical"
ABOVE_BOUND = "above_bound"


class HodgeData(Record):
    """Hodge and eigenvalue data at one place.

    n: rank; f: unramified degree; e_ram: ramification degree; hodge:
    one non-increasing n-tuple per embedding (f * e_ram of them);
    t_vals: valuations of the normalised eigenvalues t_1, ..., t_n.
    """

    __slots__ = ("n", "f", "e_ram", "hodge", "t_vals")

    def __init__(self, n: int, f: int, e_ram: int, hodge: tuple[tuple[int, ...], ...],
                 t_vals: tuple[Fraction, ...]) -> None:
        if n < 2:
            raise ValueError("rank must be at least 2")
        if f < 1 or e_ram < 1:
            raise ValueError("field degrees must be positive")
        if len(hodge) != f * e_ram:
            raise ValueError(
                f"need one tuple per embedding: {f * e_ram}, got {len(hodge)}"
            )
        for lam in hodge:
            if len(lam) != n:
                raise ValueError("each Hodge tuple must have length n")
            if any(a < b for a, b in zip(lam, lam[1:])):
                raise ValueError(f"Hodge tuple {lam} is not non-increasing")
        if len(t_vals) != n:
            raise ValueError("need one valuation per eigenvalue")


def hodge_data(
    n: int,
    f: int,
    e_ram: int,
    hodge: Sequence[Sequence[int]],
    t_vals: Sequence[Fraction | int],
) -> HodgeData:
    return HodgeData(
        n,
        f,
        e_ram,
        tuple(tuple(lam) for lam in hodge),
        tuple(Fraction(v) for v in t_vals),
    )


def hecke_normalization(mu: AntidominantCochar | Iterable[int], hodge) -> int:
    """sum over embeddings of <mu, lambda_tau>."""
    entries = tuple(mu.entries if isinstance(mu, AntidominantCochar) else mu)
    if isinstance(hodge, HodgeData):
        hodge = hodge.hodge
    total = 0
    for lam in hodge:
        if len(lam) != len(entries):
            raise ValueError("cocharacter and Hodge tuple ranks differ")
        total += sum(m * v for m, v in zip(entries, lam))
    return total


def ordinarity_threshold(h: HodgeData, j: int) -> Fraction:
    """Lower bound (1/e') sum_tau sum_{i<=j} lambda_{tau, n+1-i} for val(t_j)."""
    if not 1 <= j <= h.n - 1:
        raise ValueError(f"level j={j} must lie in [1, {h.n - 1}]")
    total = sum(sum(lam[h.n - i] for i in range(1, j + 1)) for lam in h.hodge)
    return Fraction(total, h.e_ram)


def slope_criticality(h: HodgeData, j: int) -> str:
    """Compare val(t_j) against the ordinarity threshold.

    The valuation can never genuinely fall below the threshold, so the
    below tag is a diagnostic about inconsistent input, not an error.
    """
    thr = ordinarity_threshold(h, j)
    v = h.t_vals[j - 1]
    if v == thr:
        return CRITICAL
    return ABOVE_BOUND if v > thr else BELOW_BOUND


def newton_hodge_gap(h: HodgeData, j: int) -> Fraction:
    """Newton-minus-Hodge estimate for the span of the first j slopes.

    Upper bound for the Newton number: j(j-1)/2 * f + val(t_j); lower
    bound for the Hodge number: (1/e') sum_tau sum_{i<=j}
    (lambda_{tau, n+1-i} + i - 1).  The gap vanishes exactly at
    criticality.  Requires the recorded valuations in ascending order.
    """
    if any(a > b for a, b in zip(h.t_vals, h.t_vals[1:])):
        raise ValueError("eigenvalue valuations must be sorted ascending")
    if not 1 <= j <= h.n - 1:
        raise ValueError(f"level j={j} must lie in [1, {h.n - 1}]")
    newton_upper = Fraction(j * (j - 1), 2) * h.f + h.t_vals[j - 1]
    hodge_total = sum(
        sum(lam[h.n - i] + i - 1 for i in range(1, j + 1)) for lam in h.hodge
    )
    return newton_upper - Fraction(hodge_total, h.e_ram)
