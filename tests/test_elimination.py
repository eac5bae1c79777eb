"""Weight elimination: branch selection, candidate intersections, verdicts."""

import gc
import random
import re

import pytest

from gl3weights import breuil, elimination, predicted
from gl3weights.arith import P_LIMIT, is_prime, orbit_rep, row_masks
from gl3weights.breuil import (
    CUSPIDAL,
    CUSPIDAL_DUAL,
    LIFT_KINDS,
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
    are_consistent,
    eliminate,
    intersection_sets,
    is_consistent,
)
from gl3weights.predicted import are_members, is_predicted, membership_reps
from gl3weights.tame_types import XI_123, XI_132, tau, type_from_exponent
from gl3weights.weights import weight

from oracles import lift_hits, surviving_family_reps


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
    ps, cusp, cusp_dual = elimination._lifts(29, (32, 16, 0))
    assert ps == (PRINCIPAL_SERIES, 29, 16, 4, 0)
    assert cusp == (CUSPIDAL, 29, 17, 4, -1)
    assert cusp_dual == (CUSPIDAL_DUAL, 29, 33, 28, 15)


def test_intersection_example():
    w = weight(29, 32, 16, 0)
    set_ps, set_c, set_cd, inter = intersection_sets(w)
    assert inter == (163, 499, 527, 1003)
    for s in (set_ps, set_c, set_cd):
        assert set(inter) <= set(s)
    assert len(set_ps) == 6


def test_intersection_matches_closed_form():
    for coords in ((32, 16, 0), (33, 17, 1), (36, 17, 2), (36, 18, 2)):
        w = weight(29, *coords)
        _, _, _, inter = intersection_sets(w)
        assert inter == surviving_family_reps(w)


def test_one_intersection_miss_reduces_each_lift_once(monkeypatch):
    # the lifts' rows in the weight's coordinates are derived once per p from
    # the candidate tables, one digit_rows call per lift, and kept one digit
    # row per Frobenius class: 14 classes for the 6, 10 and 10 rows.  An
    # intersection miss then evaluates the 14 digit rows in one row_reps call
    # and reads each lift's set through its index getter
    tables, derived, evaluated, lifts = [], [], [], []
    real_table, real_rows = breuil.candidate_exponents, elimination.digit_rows
    real_reps = elimination.row_reps

    def counting_table(t):
        tables.append(t[0])
        return real_table(t)

    def counting_rows(p, values_at):
        derived.append(p)
        return real_rows(p, values_at)

    def counting_reps(p, rows, *point):
        evaluated.append(len(rows))
        return real_reps(p, rows, *point)

    def counting_lift(cls, *fields):
        lifts.append(fields[0])
        return real_lift(cls, *fields)

    real_lift = LiftType.__new__
    monkeypatch.setattr(breuil, "candidate_exponents", counting_table)
    monkeypatch.setattr(elimination, "candidate_exponents", counting_table)
    monkeypatch.setattr(elimination, "digit_rows", counting_rows)
    monkeypatch.setattr(elimination, "row_reps", counting_reps)
    monkeypatch.setattr(LiftType, "__new__", staticmethod(counting_lift))
    elimination._lift_rows.cache_clear()
    elimination._intersection_data.cache_clear()
    intersection_sets(weight(29, 32, 16, 0))
    # origin and three unit vectors per lift
    assert sorted(tables) == sorted([PRINCIPAL_SERIES] * 4 + [CUSPIDAL] * 4 + [CUSPIDAL_DUAL] * 4)
    assert derived == [29, 29, 29] and evaluated == [14]
    # the tables are evaluated at plain field tuples: no lift is built
    assert lifts == []
    rows, getters, _ = elimination._lift_rows(29)
    assert len(rows) == 14 and {form for form, *_ in rows} == {0, 1}
    classes = [set(get(range(14))) for get in getters]
    assert [len(c) for c in classes] == [6, 10, 10] and len(set.intersection(*classes)) == 4
    for coords in ((33, 17, 1), (32, 16, 0)):
        tables.clear()
        evaluated.clear()
        elimination._intersection_data.cache_clear()
        intersection_sets(weight(29, *coords))
        # a miss evaluates the rows at the weight's coordinates and builds no lift
        assert tables == [] and evaluated == [14] and lifts == []
    assert intersection_sets(weight(29, 32, 16, 0))[3] == (163, 499, 527, 1003)
    assert elimination._lift_rows.cache_info().misses == 1
    intersection_sets(weight(31, 34, 17, 0))
    assert elimination._lift_rows.cache_info().misses == 2 and evaluated == [14, 14]
    assert derived == [29, 29, 29, 31, 31, 31]


def test_a_verdict_builds_no_evidence(monkeypatch):
    # eliminate decides a small-span weight by the membership hit test and a
    # large-span one by the lifts' mask probe, and builds no orbit set;
    # reading a large-span report's evidence fills one _intersection_data
    # entry, which a second report at the weight shares
    reduced = []
    real_reps = elimination.row_reps

    def counting_reps(p, rows, *point):
        reduced.append(point)
        return real_reps(p, rows, *point)

    for module in (elimination, predicted):
        monkeypatch.setattr(module, "row_reps", counting_reps)
    predicted.membership_reps.cache_clear()
    v = weight(29, 15, 8, 0)
    kept, dropped = (eliminate(v, type_from_exponent(29, rep)) for rep in (278, 975))
    assert kept.branch == dropped.branch == BRANCH_CRYSTALLINE
    assert kept.verdict == CONSISTENT and dropped.verdict == ELIMINATED
    assert predicted.membership_reps.cache_info().currsize == 0 and reduced == []
    memo = elimination._intersection_data
    memo.cache_clear()
    w = weight(29, 32, 16, 0)
    kept, dropped = (eliminate(w, type_from_exponent(29, rep)) for rep in (163, 975))
    assert kept.verdict == CONSISTENT and dropped.verdict == ELIMINATED
    assert memo.cache_info().currsize == 0 and reduced == []
    lift_sets = kept.lift_sets
    assert memo.cache_info().currsize == 1 and reduced == [(32, 16, 0)]
    sets = memo(29, (32, 16, 0))
    assert [reps for _, reps in lift_sets] == list(sets[:3])
    assert all(a is b for (_, a), b in zip(dropped.lift_sets, sets))
    assert dropped.intersection is sets[3] and kept.intersection is sets[3]
    assert memo.cache_info().currsize == 1 and len(reduced) == 1


def test_a_type_scan_batch_fills_no_evidence_memo():
    # 50 seeded operations shaped like the type-scan workload at p = 53:
    # predict a type's weights, then eliminate each against the type and one
    # other.  Every verdict is a hit test, so neither orbit-set memo gains an
    # entry, on both branches and for both verdicts
    p = 53
    rng = random.Random("type-scan batch")
    types = []
    while len(types) < 51:
        t = type_from_exponent(p, rng.randrange(p**3 - 1))
        if t.is_irreducible() and t not in types:
            types.append(t)
    memos = (predicted.membership_reps, elimination._intersection_data)
    for memo in memos:
        memo.cache_clear()
    seen = set()
    for t, other in zip(types, types[1:]):
        for w in predicted.enumerate_predicted(t).sorted_weights():
            for target in (t, other):
                try:
                    report = eliminate(w, target)
                except UnsupportedWeight:
                    continue
                seen.add((report.branch, report.verdict))
    assert seen == {(branch, verdict) for branch in (BRANCH_CRYSTALLINE, BRANCH_INTERSECTION)
                    for verdict in (CONSISTENT, ELIMINATED)}
    infos = [memo.cache_info() for memo in memos]
    assert [(i.hits, i.misses, i.currsize) for i in infos] == [(0, 0, 0)] * 2


@pytest.mark.parametrize("p", [29, 53, 65521])
def test_a_report_reads_its_evidence_from_the_orbit_sets(p):
    # a report's verdict comes from the mask probe (large span) or the
    # membership rows (small span); its evidence from the orbit sets.  At
    # seeded points of both regimes, for seeded reps and for the reps of
    # the points' own lift and membership sets (so that lifts hit alone and
    # together), the two agree and the evidence is the lifts' sets in
    # LIFT_KINDS order; the crystalline branch carries none
    rng = random.Random(f"report evidence:{p}")
    small, large = kernel_points(p, rng)[2:]
    assert small and large, p
    reps = {orbit_rep(p, v) for v in range(1, p**3 - 1, (p**3 - 1) // 7)}
    reps.discard(orbit_rep(p, 0))
    for v in large:
        reps.update(set().union(*intersection_sets(weight(p, *v))[:3]))
    for v in small:
        reps.update(membership_reps(p, v))
    verdicts = set()
    for rep in sorted(reps):
        t = type_from_exponent(p, rep)
        if not t.is_irreducible():
            continue
        for v in small:
            report = eliminate(weight(p, *v), t)
            hit = rep in membership_reps(p, v)
            assert report.branch == BRANCH_CRYSTALLINE, (v, rep)
            assert report.lift_sets is None and report.intersection is None, (v, rep)
            assert report.verdict == (CONSISTENT if hit else ELIMINATED), (v, rep)
            assert report.matched_orbit == (rep if hit else None), (v, rep)
        for v in large:
            w = weight(p, *v)
            report, sets = eliminate(w, t), intersection_sets(w)
            hit = rep in report.intersection
            assert report.branch == BRANCH_INTERSECTION, (v, rep)
            assert report.lift_sets == tuple(zip(LIFT_KINDS, sets[:3])), (v, rep)
            assert report.intersection == sets[3], (v, rep)
            assert report.verdict == (CONSISTENT if hit else ELIMINATED), (v, rep)
            assert report.matched_orbit == (rep if hit else None), (v, rep)
            verdicts.add((hit, tuple(rep in s for s in sets[:3])))
    # consistent reps, and eliminated ones in the principal series set and
    # in each cuspidal set alone
    assert {(True, (True, True, True)), (False, (True, True, False)),
            (False, (False, True, False)), (False, (False, False, True))} <= verdicts, p


def test_lift_masks_match_the_getters_at_every_prime():
    # the third table of _lift_rows holds, per digit form, each class row's
    # k0 with the bits 1 << i of the lifts i whose getter reads that class:
    # 14 keys, 7 per form, no two class rows on one key, and the lifts own
    # 6, 10 and 10 of them, 4 shared by all three, at every prime below 2^16
    for p in (p for p in range(5, P_LIMIT) if is_prime(p)):
        rows, getters, masks = elimination._lift_rows.__wrapped__(p)
        classes = [set(get(range(len(rows)))) for get in getters]
        owners = [sum(1 << i for i, c in enumerate(classes) if k in c) for k in range(len(rows))]
        want = ({}, {})
        for (form, k0, _, _), bits in zip(rows, owners):
            want[form][k0] = bits
        assert masks == want and [len(m) for m in masks] == [7, 7] and len(rows) == 14, p
        assert [len(c) for c in classes] == [6, 10, 10] and owners.count(0b111) == 4, p


def is_orbit_set(reps):
    return (type(reps) is tuple and all(type(r) is int for r in reps)
            and list(reps) == sorted(set(reps)))


def test_orbit_sets_are_sorted_tuples_of_distinct_ints():
    p, w = 29, weight(29, 32, 16, 0)
    assert is_orbit_set(candidate_orbits(breuil.cuspidal(17, (8, 4, 0))))
    # below the wall (2 rows) and above it (4 rows)
    assert is_orbit_set(predicted.membership_reps(p, (15, 8, 0)))
    assert is_orbit_set(predicted.membership_reps(p, (43, 28, 8)))
    assert all(is_orbit_set(reps) for reps in intersection_sets(w))
    report = eliminate(w, type_from_exponent(p, 163))
    assert [kind for kind, _ in report.lift_sets] == [PRINCIPAL_SERIES, CUSPIDAL, CUSPIDAL_DUAL]
    assert all(is_orbit_set(reps) for _, reps in report.lift_sets)
    assert is_orbit_set(report.intersection)


def test_memo_values_are_untracked_after_collection():
    # memo values hold only ints and tuples of them, so the collector stops
    # walking them: a tuple of ints is untracked at the first collection that
    # sees it, and the intersection memo's 4-tuple of orbit sets, whose sets
    # may still be tracked when it is examined, by the second
    elimination._intersection_data.cache_clear()
    predicted.membership_reps.cache_clear()
    sets = intersection_sets(weight(29, 32, 16, 0))
    below = predicted.membership_reps(29, (15, 8, 0))
    above = predicted.membership_reps(29, (43, 28, 8))
    gc.collect()
    assert not any(gc.is_tracked(v) for v in (*sets, below, above))
    gc.collect()
    assert not gc.is_tracked(sets)
    assert sets is intersection_sets(weight(29, 32, 16, 0))


def gap_check_weights(p):
    """Large-span weights F(g1+g2+z, g2+z, z): every difference pair at a
    few z up to p = 53, then 500 seeded ones."""
    if p <= 53:
        return [(g1 + g2 + z, g2 + z, z)
                for g1 in range(1, p - 5) for g2 in range(max(1, p + 2 - g1), p - 5)
                for z in sorted({0, 1, p // 2, p - 2})]
    rng = random.Random(f"gaps:{p}")
    found = []
    while len(found) < 500:
        g1, g2, z = rng.randrange(1, p - 5), rng.randrange(1, p - 5), rng.randrange(p - 1)
        if g1 + g2 > p + 1:
            found.append((g1 + g2 + z, g2 + z, z))
    return found


@pytest.mark.parametrize("p", [17, 29, 53, 1009, 65521])
def test_large_span_lifts_pass_the_gap_check(p):
    # elimination reads the lifts' rows and builds no lift, so it skips the
    # gap check of the checked constructor; the gaps depend on the differences
    # only, and the rows carry a z coefficient.  The lifts' 26 rows fall in 14
    # Frobenius classes
    assert len(elimination._lift_rows(p)[0]) == 14
    for coords in gap_check_weights(p):
        w = weight(p, *coords)
        sets = intersection_sets(w)
        checked = tuple(LiftType(*fields) for fields in elimination._lifts(p, w.coords))
        assert sets[:3] == tuple(candidate_orbits(lift) for lift in checked), w.coords


@pytest.mark.parametrize("p", [19, 23])
def test_is_consistent_reads_the_intersection(p):
    # at large span is_consistent tests one orbit against the lifts' rows and
    # builds no set; it must read as membership in the intersection of the
    # three lift sets.  Every large-span weight at z in {0, 1, p//2, p-2},
    # each against the union of its lift sets and 20 seeded irreducible reps
    rng = random.Random(f"consistent:{p}")
    e, c2 = p**3 - 1, p * p + p + 1
    patterns = set()
    for coords in gap_check_weights(p):
        sets = intersection_sets(weight(p, *coords))
        reps = set().union(*sets[:3])
        seeded = set()
        while len(seeded) < 20:
            v = rng.randrange(e)
            if v % c2:  # a multiple of p^2+p+1 is a reducible type's
                seeded.add(orbit_rep(p, v))
        for rep in sorted(reps | seeded):
            assert is_consistent(p, coords, rep) == (rep in sets[3]), (coords, rep)
            patterns.add(tuple(rep in s for s in sets[:3]))
    # reps in exactly one lift set, and in exactly each two of them: a test
    # that any lift hits, or one that drops a lift, reads some as consistent.
    # The principal series set lies in the union of the cuspidal ones
    assert patterns == {(a, b, c) for a in (False, True) for b in (False, True)
                        for c in (False, True)} - {(True, False, False)}


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
    assert surviving_family_reps(w) == tuple(sorted(expected))


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


# each inequality of the regimes on both sides of its edge at p = 29:
# (supported coordinates, branch), then the first coordinates past the edge
REGIME_EDGES = [
    ((25, 10, 0), BRANCH_CRYSTALLINE, (26, 10, 0)),     # x - z < p - 3
    ((33, 10, 0), BRANCH_INTERSECTION, (34, 10, 0)),    # x - y < p - 5
    ((33, 23, 0), BRANCH_INTERSECTION, (34, 24, 0)),    # y - z < p - 5
    ((31, 15, 0), BRANCH_INTERSECTION, (30, 15, 0)),    # x - z > p + 1
]


@pytest.mark.parametrize("inside, branch, outside", REGIME_EDGES)
def test_regime_edges(inside, branch, outside):
    # the one-point and the batched consistency kernel agree with eliminate
    # on the supported side of each edge, and refuse the weight past it
    p, reps = 29, (100, 163, 527)
    w = weight(p, *inside)
    verdicts = [eliminate(w, type_from_exponent(p, rep)) for rep in reps]
    assert {report.branch for report in verdicts} == {branch}
    for rep, report in zip(reps, verdicts):
        want = report.verdict == CONSISTENT
        assert is_consistent(p, inside, rep) == want, rep
        assert are_consistent(p, (inside, inside), rep) == [want, want], rep
    with pytest.raises(UnsupportedWeight):
        eliminate(weight(p, *outside), type_from_exponent(p, 163))
    named = re.escape("F(%d,%d,%d)" % outside)
    with pytest.raises(UnsupportedWeight, match=named):
        is_consistent(p, outside, 163)
    with pytest.raises(UnsupportedWeight, match=named):
        are_consistent(p, (inside, outside, inside), 163)


def kernel_primes():
    """Every prime 5 <= p < 200, then 20 seeded ones up to 65521."""
    rng = random.Random("batched kernels")
    large = set()
    while len(large) < 20:
        n = rng.randrange(200, P_LIMIT)
        if is_prime(n):
            large.add(n)
    return [p for p in range(5, 200) if is_prime(p)] + sorted(large)


def kernel_points(p, rng):
    """Seeded strip weights: (below the wall, above it, small span, large span)."""
    def draw(keep, count=6):
        found, tries = [], 0
        while len(found) < count and tries < 2000:
            tries += 1
            g1, g2, z = rng.randrange(p - 2), rng.randrange(p - 2), rng.randrange(p - 1)
            if keep(g1, g2):
                found.append((z + g1 + g2, z + g2, z))
        return found
    return (draw(lambda g1, g2: g1 + g2 <= p - 2), draw(lambda g1, g2: g1 + g2 > p - 2),
            draw(lambda g1, g2: g1 + g2 < p - 3),
            draw(lambda g1, g2: g1 < p - 5 and g2 < p - 5 and g1 + g2 > p + 1))


def test_batched_kernels_match_the_orbit_sets():
    # are_members against membership_reps, on both sides of the wall
    # x - z = p - 2, and are_consistent against the orbit sets, on both
    # regimes (membership_reps at small span, the lifts' intersection at
    # large span), point by point, for seeded representatives and for
    # members of the points' own orbit sets (so that some points hit)
    for p in kernel_primes():
        rng = random.Random(f"batched kernels:{p}")
        e, c2 = p**3 - 1, p * p + p + 1
        below, above, small, large = kernel_points(p, rng)
        strip, regimes = below + above, small + large
        assert below and above and small and (large or p < 17), p
        seeded = set()
        while len(seeded) < 3:
            v = rng.randrange(e)
            if v % c2:  # a multiple of p^2+p+1 is a reducible type's
                seeded.add(orbit_rep(p, v))
        members = {rep for v in strip for rep in membership_reps(p, v)}
        for rep in sorted(seeded | set(rng.sample(sorted(members), 6))):
            got = are_members(p, strip, rep)
            assert got == [rep in membership_reps(p, v) for v in strip], (p, rep)
        survivors = {rep for v in small for rep in membership_reps(p, v)}
        survivors |= {rep for v in large
                      for rep in intersection_sets(weight(p, *v))[3]}
        hits = 0
        for rep in sorted(seeded | set(rng.sample(sorted(survivors), 6))):
            want = [rep in membership_reps(p, v) for v in small]
            want += [rep in intersection_sets(weight(p, *v))[3] for v in large]
            assert are_consistent(p, regimes, rep) == want, (p, rep)
            hits += sum(want)
        assert hits, p


def test_the_lift_probe_matches_the_built_lifts():
    # row_masks over the lift masks against the lift_hits oracle, which
    # builds each lift and reduces its candidates, at seeded large-span
    # points per prime, for the reps of the points' lift sets (so lifts hit
    # alone and together) and seeded ones; are_consistent reads "all three
    # bits" there
    seen = set()
    for p in kernel_primes():
        rng = random.Random(f"lift probe:{p}")
        large = kernel_points(p, rng)[3]
        assert large or p < 17, p
        masks = elimination._lift_rows(p)[2]
        reps = {rep for v in large for rep in set().union(*intersection_sets(weight(p, *v))[:3])}
        reps.update(orbit_rep(p, rng.randrange(p**3 - 1)) for _ in range(3))
        for rep in sorted(reps):
            want = [lift_hits(p, v, rep) for v in large]
            assert row_masks(p, masks, large, rep) == want, (p, rep)
            assert are_consistent(p, large, rep) == [bits == 0b111 for bits in want], (p, rep)
            seen.update(want)
    # every pattern but the principal series alone, whose set lies in the
    # union of the cuspidal ones
    assert seen == set(range(8)) - {0b001}


def test_a_grey_zone_point_inside_a_batch_is_refused():
    p, rep = 29, 163
    batch = [(25, 10, 0), (32, 16, 0), (27, 14, 0), (31, 15, 0)]
    with pytest.raises(UnsupportedWeight, match=re.escape("F(27,14,0)")):
        are_consistent(p, batch, rep)
    assert are_consistent(p, batch[:2] + batch[3:], rep) == [
        is_consistent(p, v, rep) for v in batch[:2] + batch[3:]]
