"""Weight elimination: branch selection, candidate intersections, verdicts."""

import pytest

from gl3weights import breuil, elimination
from gl3weights.breuil import (
    CUSPIDAL,
    CUSPIDAL_DUAL,
    PRINCIPAL_SERIES,
    LiftType,
    candidate_orbits,
)
from gl3weights.elimination import (
    BRANCH_CRYSTALLINE,
    BRANCH_INTERSECTION,
    CONSISTENT,
    ELIMINATED,
    UnsupportedWeight,
    eliminate,
    intersection_sets,
    lift_types_for,
)
from gl3weights.predicted import is_predicted
from gl3weights.tame_types import XI_123, XI_132, tau, type_from_exponent
from gl3weights.weights import weight

from oracles import surviving_family_reps


def test_crystalline_branch_positive():
    w = weight(29, 5, 3, 1)
    t = tau(XI_123, (7, 4, 1), 29)
    rep = eliminate(w, t)
    assert rep.branch == BRANCH_CRYSTALLINE
    assert rep.verdict == CONSISTENT
    assert rep.matched_orbit == t.orbit_rep()
    assert rep.lift_sets is None and rep.intersection is None


def test_crystalline_branch_negative():
    w = weight(29, 5, 3, 1)
    t = tau(XI_123, (8, 4, 1), 29)
    rep = eliminate(w, t)
    assert rep.verdict == ELIMINATED
    assert rep.matched_orbit is None


def test_lift_parameters():
    w = weight(29, 32, 16, 0)
    ps, cusp, cusp_dual = lift_types_for(w)
    assert ps.kind == PRINCIPAL_SERIES and ps.params == (16, 4, 0)
    assert cusp.kind == CUSPIDAL and cusp.params == (17, 4, -1)
    assert cusp_dual.kind == CUSPIDAL_DUAL and cusp_dual.params == (33, 28, 15)


def test_intersection_example():
    w = weight(29, 32, 16, 0)
    set_ps, set_c, set_cd, inter = intersection_sets(w)
    assert inter == frozenset({163, 499, 527, 1003})
    for s in (set_ps, set_c, set_cd):
        assert inter <= s
    assert len(set_ps) == 6


def test_intersection_matches_closed_form():
    for coords in ((32, 16, 0), (33, 17, 1), (36, 17, 2), (36, 18, 2)):
        w = weight(29, *coords)
        _, _, _, inter = intersection_sets(w)
        assert inter == surviving_family_reps(w)


def test_one_intersection_miss_reduces_each_lift_once(monkeypatch):
    # the candidate rows are derived once per (kind, p) from the tables; an
    # intersection miss then evaluates them and reduces each lift's 6, 10
    # and 10 candidates in one orbit_reps call
    w = weight(29, 32, 16, 0)
    tables, reduced = [], []
    real_table, real_reps = breuil.candidate_exponents, breuil.orbit_reps

    def counting_table(t):
        tables.append(t.kind)
        return real_table(t)

    def counting_reps(p, values):
        reduced.append(len(values))
        return real_reps(p, values)

    def counting_lift(cls, *fields):
        lifts.append(fields[0])
        return real_lift(cls, *fields)

    lifts, real_lift = [], LiftType.__new__
    monkeypatch.setattr(breuil, "candidate_exponents", counting_table)
    monkeypatch.setattr(breuil, "orbit_reps", counting_reps)
    monkeypatch.setattr(LiftType, "__new__", staticmethod(counting_lift))
    breuil._candidate_rows.cache_clear()
    elimination._intersection_data.cache_clear()
    intersection_sets(w)
    # origin and three unit vectors per kind; the dual table recurses once each
    assert sorted(tables) == sorted([PRINCIPAL_SERIES] * 4 + [CUSPIDAL] * 8 + [CUSPIDAL_DUAL] * 4)
    assert reduced == [6, 10, 10]
    # the only lifts built are those the tables are evaluated at
    assert sorted(lifts) == sorted(tables)
    tables.clear()
    reduced.clear()
    lifts.clear()
    elimination._intersection_data.cache_clear()
    assert intersection_sets(w)[3] == frozenset({163, 499, 527, 1003})
    # a miss evaluates the rows at the weight's coordinates and builds no lift
    assert tables == [] and reduced == [6, 10, 10] and lifts == []


@pytest.mark.parametrize("p", [17, 29, 53])
def test_large_span_lifts_pass_the_gap_check(p):
    # lift_types_for takes the trusted path, which skips the gap check of
    # the checked constructor; the gaps depend on the differences only
    for g1 in range(1, p - 5):
        for g2 in range(max(1, p + 2 - g1), p - 5):
            w = weight(p, g1 + g2, g2, 0)
            sets = intersection_sets(w)
            checked = tuple(LiftType(lift.kind, p, *lift.params) for lift in lift_types_for(w))
            assert sets[:3] == tuple(candidate_orbits(lift) for lift in checked), w.coords


def test_closed_form_families():
    # the survivors are exactly the four cyclically shifted digit layouts
    w = weight(29, 32, 16, 0)
    x, y, z = w.coords
    p = 29
    expected = set()
    for b0, b1, b2 in ((1, 2, 0), (2, 1, 0)):
        t = tau(XI_132, (y + b0, x - p + 1 + b1, z + b2), p)
        expected.add(t.orbit_rep())
    for b0, b1, b2 in ((1, 1, 1), (2, 1, 0)):
        t = tau(XI_123, (y + b0, x - p + 1 + b1, z + b2), p)
        expected.add(t.orbit_rep())
    assert surviving_family_reps(w) == frozenset(expected)


def test_intersection_branch_verdicts():
    w = weight(29, 32, 16, 0)
    for rep_value in (163, 499, 527, 1003):
        report = eliminate(w, type_from_exponent(29, rep_value))
        assert report.branch == BRANCH_INTERSECTION
        assert report.verdict == CONSISTENT
        assert report.matched_orbit == rep_value
    for rep_value in (975, 1339, 135):
        report = eliminate(w, type_from_exponent(29, rep_value))
        assert report.verdict == ELIMINATED


def test_first_membership_branch_applies_at_large_span():
    # tau(xi, (x+2, y+1, z)) stays consistent even past the wall: the
    # first membership branch carries no span restriction
    w = weight(29, 32, 16, 0)
    t = tau(XI_123, (34, 17, 0), 29)
    assert is_predicted(w, t)
    assert eliminate(w, t).verdict == CONSISTENT


def test_verdict_is_orbit_invariant():
    w = weight(29, 32, 16, 0)
    t = type_from_exponent(29, 527)
    for member in t.chars[0].elements():
        assert eliminate(w, type_from_exponent(29, member)).verdict == CONSISTENT


def test_agreement_with_membership_sample():
    w = weight(29, 32, 16, 0)
    for rep_value in range(0, 2000, 37):
        t = type_from_exponent(29, rep_value)
        if not t.is_irreducible():
            continue
        want = CONSISTENT if is_predicted(w, t) else ELIMINATED
        assert eliminate(w, t).verdict == want


def test_grey_zone_unsupported():
    t = type_from_exponent(29, 163)
    for coords in ((27, 14, 0), (28, 14, 0), (30, 15, 0), (32, 26, 0), (32, 6, 0)):
        w = weight(29, *coords)
        with pytest.raises(UnsupportedWeight):
            eliminate(w, t)
    with pytest.raises(UnsupportedWeight):
        intersection_sets(weight(29, 27, 14, 0))


def test_reducible_type_rejected():
    w = weight(29, 5, 3, 1)
    with pytest.raises(ValueError, match="irreducible"):
        eliminate(w, type_from_exponent(29, 0))
