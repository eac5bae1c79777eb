"""Weight elimination against an irreducible niveau-3 tame type.

Two supported regimes.  Small span (x - z < p - 3): a crystalline lift
with consecutive Hodge-Tate weights exists, and modularity forces the
type to match tau(xi, (x+2, y+1, z)) on the nose.  Large span
(x - y < p - 5, y - z < p - 5, x - z > p + 1): three potentially
crystalline lifts (one principal series, two cuspidal shapes) each
constrain the type to a finite candidate set, and only types in the
intersection of the three sets survive.  Weights in neither regime are
rejected rather than guessed at.

The lifts' candidates are affine in the weight's coordinates, so the
large-span branch reads one table of digit rows (`arith.digit_rows`) per
prime, derived from `breuil.candidate_exponents`, at F(x, y, z).  Rows that
differ by a power of p share a Frobenius orbit at every point and a digit
row, so the table keeps one row per such class (14 for the lifts' 26 rows,
4 of them shared by all three), an index getter per lift, and per digit form
a dict from a class row's constant to the bits of the lifts owning it.
At large span all three lifts must hit the type's orbit: six probes of the
dicts a weight (`arith.row_masks`), building no set.  At small span the
verdict is the membership hit test of tau(xi, (x+2, y+1, z)), so every
verdict is a hit test and none reduces a row.  `eliminate` decides one
weight so (at small span by `predicted.is_member`), and its report reads the
lifts' orbit sets, memoized per weight (`_intersection_data`, the one set
computation, behind `intersection_sets`), only when its evidence is read;
`are_consistent` gives the bare verdict for one type at a batch of weights
(`is_consistent` is its one-point call), and at small span it asks
`predicted.are_members` once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .arith import MEMO_SIZE, Record, digit_rows, row_masks, row_reps
from .breuil import CUSPIDAL, CUSPIDAL_DUAL, LIFT_KINDS, PRINCIPAL_SERIES, candidate_exponents
from .predicted import are_members, is_member
from .tame_types import TameType
from .weights import WeightClass

BRANCH_CRYSTALLINE = "crystalline"
BRANCH_INTERSECTION = "intersection"

CONSISTENT = "consistent"
ELIMINATED = "eliminated"


class UnsupportedWeight(ValueError):
    """Raised for weights where neither elimination regime applies."""


class EliminationReport(Record):
    """A verdict and its evidence: lift_sets ((kind, candidate orbit set) per
    lift) and intersection are None on the crystalline branch.  Both are
    functions of the weight, so they are not fields: each read takes the
    orbit sets from the `_intersection_data` memo, and only a read builds
    them; the repr still prints them after the fields."""

    __slots__ = ()
    _fields = ("weight", "source", "branch", "verdict", "matched_orbit")

    @property
    def lift_sets(self) -> tuple[tuple[str, tuple[int, ...]], ...] | None:
        if self.branch != BRANCH_INTERSECTION:
            return None
        return tuple(zip(LIFT_KINDS, _intersection_data(self.weight.p, self.weight.coords)))

    @property
    def intersection(self) -> tuple[int, ...] | None:
        if self.branch != BRANCH_INTERSECTION:
            return None
        return _intersection_data(self.weight.p, self.weight.coords)[3]

    def __repr__(self) -> str:
        return (f"{Record.__repr__(self)[:-1]}, lift_sets={self.lift_sets!r}, "
                f"intersection={self.intersection!r})")


def _branch_of(p: int, coords: tuple[int, int, int]) -> str:
    x, y, z = coords
    if x - z < p - 3:
        return BRANCH_CRYSTALLINE
    if x - y < p - 5 and y - z < p - 5 and x - z > p + 1:
        return BRANCH_INTERSECTION
    raise UnsupportedWeight(f"F({x},{y},{z}) falls in neither the small-span"
                            " nor the large-span regime")


def _lifts(p: int, coords: tuple[int, int, int]) -> tuple[tuple[str, int, int, int, int], ...]:
    """The fields (kind, p, a, b, c) of the three large-span lifts at F(coords)."""
    x, y, z = coords
    # y > x - p + 1 > z here, so the principal series digits are already sorted
    return (
        (PRINCIPAL_SERIES, p, y, x - p + 1, z),
        (CUSPIDAL, p, y + 1, x - p + 1, z - 1),
        (CUSPIDAL_DUAL, p, x + 1, z + p - 1, y - 1),
    )


@lru_cache(maxsize=MEMO_SIZE)
def _lift_rows(p: int) -> tuple[tuple, tuple[itemgetter, ...], tuple[dict, dict]]:
    """(rows, lifts, masks): one digit row per Frobenius class of the lifts' rows, per lift
    the getter of its classes, whose values at F(x, y, z) hold its candidates' orbits, and
    per form a dict (read only) from a class row's k0 to the bits 1 << i of its lifts i."""
    index: dict[tuple[int, int, int, int], int] = {}
    lifts, masks = [], ({}, {})
    for i in range(3):
        rows = digit_rows(p, lambda v: candidate_exponents(_lifts(p, v)[i]))[0]
        lifts.append(itemgetter(*(index.setdefault(row, len(index)) for row in rows)))
        for form, k0, _, _ in rows:
            masks[form][k0] = masks[form].get(k0, 0) | 1 << i
    return tuple(index), tuple(lifts), masks


# the candidate orbit sets of the lifts, in LIFT_KINDS order, and their
# intersection.  No lift is built, so none is gap-checked;
# test_large_span_lifts_pass_the_gap_check shows their gaps hold
@lru_cache(maxsize=MEMO_SIZE)
def _intersection_data(p: int, coords: tuple) -> tuple[tuple[int, ...], ...]:
    rows, (get_ps, get_cusp, get_cusp_dual), _ = _lift_rows(p)
    reps = row_reps(p, rows, *coords)
    ps, cusp, cusp_dual = set(get_ps(reps)), set(get_cusp(reps)), set(get_cusp_dual(reps))
    return (tuple(sorted(ps)), tuple(sorted(cusp)), tuple(sorted(cusp_dual)),
            tuple(sorted(ps.intersection(cusp, cusp_dual))))


def intersection_sets(w: WeightClass) -> tuple[tuple[int, ...], ...]:
    """Candidate orbit sets of the three large-span lifts at w, and their intersection."""
    if _branch_of(w.p, w.coords) != BRANCH_INTERSECTION:
        raise UnsupportedWeight(f"{w} is not in the large-span regime")
    return _intersection_data(w.p, w.coords)


def is_consistent(p: int, coords: tuple[int, int, int], rep: int) -> bool:
    """The verdict of `eliminate` for F(coords) and the type of orbit
    representative rep, past its entry checks: the one-point call of
    `are_consistent`."""
    return are_consistent(p, (coords,), rep)[0]


def are_consistent(p: int, points, rep: int) -> list[bool]:
    """`is_consistent` at each of points, in order, for one orbit's least
    member rep; a point in neither regime raises `UnsupportedWeight`.  At
    large span no set is built: the lifts with a class row valued in rep's
    orbit (`arith.row_masks`) must be all three, as (form, k0) fixes a class
    row.  The small-span points are answered by one `are_members` call,
    the membership of tau(xi, (x+2, y+1, z))."""
    small, large, flags = [], [], []
    for coords in points:
        if _branch_of(p, coords) == BRANCH_CRYSTALLINE:
            small.append(coords)
            flags.append(True)
        else:
            large.append(coords)
            flags.append(False)
    members = iter(are_members(p, small, rep))
    lifts = iter(row_masks(p, _lift_rows(p)[2], large, rep))
    return [next(members) if s else next(lifts) == 0b111 for s in flags]


def eliminate(w: WeightClass, t: TameType) -> EliminationReport:
    """Decide whether modularity of w is consistent with the type t.  The
    verdict is a hit test that builds no orbit set and fills no per-weight
    memo: at large span the lifts' mask probe, as `are_consistent` reads it,
    and at small span `predicted.is_member`; the report's evidence is built
    when read."""
    if w.p != t.p:
        raise ValueError("weight and type live over different characteristics")
    rep = t.orbit_rep()
    p, coords = w.p, w.coords
    branch = _branch_of(p, coords)
    if branch == BRANCH_INTERSECTION:
        hit = row_masks(p, _lift_rows(p)[2], (coords,), rep)[0] == 0b111
    else:
        # the types tau(xi, (x+2, y+1, z)); small span lies in the strip
        hit = is_member(p, coords, rep)
    return EliminationReport._make((w, t, branch, CONSISTENT if hit else ELIMINATED,
                                    rep if hit else None))
