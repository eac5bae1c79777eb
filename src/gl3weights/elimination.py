"""Weight elimination against an irreducible niveau-3 tame type.

Two supported regimes.  Small span (x - z < p - 3): a crystalline lift
with consecutive Hodge-Tate weights exists, and modularity forces the
type to match tau(xi, (x+2, y+1, z)) on the nose.  Large span
(x - y < p - 5, y - z < p - 5, x - z > p + 1): three potentially
crystalline lifts (one principal series, two cuspidal shapes) each
constrain the type to a finite candidate set, and only types in the
intersection of the three sets survive.  Weights in neither regime are
rejected rather than guessed at.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import MEMO_SIZE, Record
from .breuil import CUSPIDAL, CUSPIDAL_DUAL, PRINCIPAL_SERIES, LiftType, lift_orbits
from .predicted import membership_reps
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
    lift) and intersection are None on the crystalline branch."""

    __slots__ = ()
    _fields = ("weight", "source", "branch", "verdict", "matched_orbit", "lift_sets",
               "intersection")


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
    if _branch_of(p, coords) != BRANCH_INTERSECTION:
        raise UnsupportedWeight(f"F({x},{y},{z}) is not in the large-span regime")
    # y > x - p + 1 > z here, so the principal series digits are already sorted
    return (
        (PRINCIPAL_SERIES, p, y, x - p + 1, z),
        (CUSPIDAL, p, y + 1, x - p + 1, z - 1),
        (CUSPIDAL_DUAL, p, x + 1, z + p - 1, y - 1),
    )


def lift_types_for(w: WeightClass) -> tuple[LiftType, ...]:
    """The three lifts used in the large-span regime at w."""
    return tuple(LiftType.__new__(LiftType, *fields) for fields in _lifts(w.p, w.coords))


# one memo for every reader: (kind, orbit set) per lift for the report, and
# the tuple intersection_sets returns.  No lift is built, so none is gap-checked;
# test_large_span_lifts_pass_the_gap_check shows their gaps hold
@lru_cache(maxsize=MEMO_SIZE)
def _intersection_data(p: int, coords: tuple) -> tuple[tuple, tuple[frozenset[int], ...]]:
    lift_sets = tuple((fields[0], lift_orbits(*fields)) for fields in _lifts(p, coords))
    sets = tuple(reps for _, reps in lift_sets)
    return lift_sets, (*sets, sets[0] & sets[1] & sets[2])


def intersection_sets(w: WeightClass) -> tuple[frozenset[int], ...]:
    """Candidate orbit sets of the three lifts, in the order of
    `lift_types_for`, and their intersection."""
    return _intersection_data(w.p, w.coords)[1]


def is_consistent(p: int, coords: tuple[int, int, int], rep: int) -> bool:
    """The verdict of `eliminate` for F(coords) and the type of orbit
    representative rep, past its entry checks."""
    if _branch_of(p, coords) == BRANCH_CRYSTALLINE:
        return rep in membership_reps(p, coords)
    return rep in _intersection_data(p, coords)[1][3]


def eliminate(w: WeightClass, t: TameType) -> EliminationReport:
    """Decide whether modularity of w is consistent with the type t."""
    if w.p != t.p:
        raise ValueError("weight and type live over different characteristics")
    if not t.is_irreducible():
        raise ValueError("elimination requires an irreducible niveau-3 type")
    rep = t.orbit_rep()
    branch = _branch_of(w.p, w.coords)
    lift_sets = inter = None
    if branch == BRANCH_CRYSTALLINE:
        # below the wall these are the types tau(xi, (x+2, y+1, z))
        allowed = membership_reps(w.p, w.coords)
    else:
        lift_sets, sets = _intersection_data(w.p, w.coords)
        allowed = inter = sets[3]
    hit = rep in allowed
    return EliminationReport(w, t, branch, CONSISTENT if hit else ELIMINATED,
                             rep if hit else None, lift_sets, inter)
