"""Predicted weight sets: membership, fast enumeration, nine-weight table."""

import random
import re

import pytest

from gl3weights import arith, predicted
from gl3weights.arith import orbit_rep
from gl3weights.predicted import (
    LOWER_FAMILY,
    SHADOW_FAMILY,
    UPPER_FAMILY,
    are_members,
    enumerate_predicted,
    is_member,
    is_predicted,
    membership_reps,
    nine_weight_families,
    nine_weight_table,
    table_parameters,
    theta,
)
from gl3weights.tame_types import XI_123, XI_132, dual_twist, iso, tau, type_from_exponent
from gl3weights.weights import WeightClass, alcove, dual, is_generic, shadow, weight

from oracles import (
    enumerate_predicted_bruteforce,
    enumerate_predicted_rowscan,
    membership_reps_by_tau,
    nine_weight_triples,
)
from test_acceptance import _table_triples


def the_table_type(p=29, abc=(15, 8, 0)):
    a, b, c = abc
    return tau(XI_123, (a + 2, b + 1, c), p)


def test_membership_positive():
    t = the_table_type()
    assert is_predicted(weight(29, 15, 8, 0), t)
    assert is_predicted(weight(29, 43, 28, 8), t)  # needs the above-wall branch


def test_membership_negative():
    t = the_table_type()
    assert not is_predicted(weight(29, 16, 8, 0), t)
    assert not is_predicted(weight(29, 5, 3, 1), t)


def test_membership_requires_strip():
    t = the_table_type()
    with pytest.raises(ValueError, match="p-3"):
        is_predicted(weight(29, 28, 0, 0), t)


@pytest.mark.parametrize("inside, outside", [
    ((26, 0, 0), (27, 0, 0)),     # x - y <= p - 3
    ((26, 26, 0), (27, 27, 0)),   # y - z <= p - 3
])
def test_membership_strip_edges(inside, outside):
    # the one-point and the batched membership kernel answer on each edge
    # of the strip and refuse the weight just past it, inside a batch too
    p, rep = 29, the_table_type().orbit_rep()
    assert is_member(p, inside, rep) == (rep in membership_reps(p, inside))
    assert are_members(p, (inside, inside), rep) == [is_member(p, inside, rep)] * 2
    named = re.escape("F(%d,%d,%d) has a difference above p-3" % outside)
    with pytest.raises(ValueError, match=named):
        is_member(p, outside, rep)
    with pytest.raises(ValueError, match=named):
        are_members(p, (inside, outside), rep)


def test_membership_rejects_reducible_type():
    t = type_from_exponent(29, 0)
    with pytest.raises(ValueError, match="irreducible"):
        is_predicted(weight(29, 15, 8, 0), t)


def test_every_entry_refuses_a_reducible_type_with_one_message():
    # TameType.orbit_rep is the one gate: cycle reaches it through is_predicted
    from gl3weights.cycling import cycle
    from gl3weights.elimination import eliminate

    w = weight(29, 15, 8, 0)
    entries = (lambda t: is_predicted(w, t), enumerate_predicted, table_parameters,
               lambda t: eliminate(w, t), lambda t: cycle(t, w))
    for entry in entries:
        with pytest.raises(ValueError) as info:
            entry(type_from_exponent(29, 0))
        assert str(info.value) == "type [0]+[0]+[0] is not an irreducible niveau-3 type"


def strip_weights(p):
    return [(z + g1 + g2, z + g2, z)
            for g1 in range(p - 2) for g2 in range(p - 2) for z in range(p - 1)]


def seeded_strip_weights(p, count):
    # as many below the wall x - z <= p - 2 as above it
    rng = random.Random(f"membership:{p}")
    found = {False: [], True: []}
    while min(map(len, found.values())) < count // 2:
        g1, g2, z = rng.randrange(p - 2), rng.randrange(p - 2), rng.randrange(p - 1)
        side = found[g1 + g2 > p - 2]
        if len(side) < count // 2:
            side.append((z + g1 + g2, z + g2, z))
    return found[False] + found[True]


def test_the_two_membership_rows_never_collide_below_the_wall():
    # below the wall the two membership rows never share an orbit: mu =
    # (x+2, y+1, z) is strictly decreasing of span at most p there, so tame
    # rigidity gives the two cycles different types.  Every below-wall strip
    # point up to p = 31, then 200 seeded ones at 20 seeded primes and 65521
    rng = random.Random("below the wall")
    large = {65521}
    while len(large) < 21:
        n = rng.randrange(32, arith.P_LIMIT)
        if arith.is_prime(n):
            large.add(n)
    for p in [p for p in range(5, 32) if arith.is_prime(p)] + sorted(large):
        rows = predicted._membership_rows(p)[0][:2]
        below = ([xyz for xyz in strip_weights(p) if xyz[0] - xyz[2] <= p - 2] if p < 32
                 else seeded_strip_weights(p, 400)[:200])
        for x, y, z in below:
            a, b = arith.row_reps(p, rows, x, y, z)
            assert a != b, (p, x, y, z)
        assert membership_reps(p, below[-1]) == tuple(sorted((a, b))), p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 53, 1009, 65521])
def test_membership_reps_match_the_rows_by_tau(p):
    # the whole strip up to p = 13, then 2,000 seeded weights
    for xyz in strip_weights(p) if p <= 13 else seeded_strip_weights(p, 2000):
        assert membership_reps(p, xyz) == membership_reps_by_tau(p, xyz), (p, xyz)


def test_membership_miss_reads_the_row_constants(monkeypatch):
    # the membership digit rows and the solver constants are derived once per
    # p, in one table; each membership_reps call then evaluates 2 or 4 digit
    # rows at the weight's coordinates in one row_reps call, and an
    # enumeration solves from the solver constants alone
    p, below, above = 29, (15, 8, 0), (43, 28, 8)
    taus, evaluated = [], []
    real_tau, real_reps = predicted.tau_exponent, arith.row_reps

    def counting_tau(*args):
        taus.append(args)
        return real_tau(*args)

    def counting_reps(p, rows, *point):
        evaluated.append(len(rows))
        return real_reps(p, rows, *point)

    monkeypatch.setattr(predicted, "tau_exponent", counting_tau)
    monkeypatch.setattr(predicted, "row_reps", counting_reps)
    monkeypatch.setattr(arith, "row_reps", counting_reps)
    predicted._membership_rows.cache_clear()
    membership_reps(p, below)
    # origin and three unit vectors, four rows at each
    assert len(taus) == 16 and evaluated == [2]
    taus.clear()
    membership_reps(p, above)
    assert taus == [] and evaluated == [2, 4]
    for abc in ((15, 8, 0), (16, 8, 1)):
        enumerate_predicted(the_table_type(p, abc))
    assert taus == [] and evaluated == [2, 4]
    assert predicted._membership_rows.cache_info().misses == 1
    membership_reps(31, below)
    assert predicted._membership_rows.cache_info().misses == 2
    # three solver constants per row, each row's own scale first
    _, scales, _, solvers = predicted._membership_rows(p)
    assert len(solvers) == 12 and [c[0] for c in solvers[::3]] == list(scales)


def test_nine_weight_families_example():
    fams = nine_weight_families(15, 8, 0, 29)
    assert {w.coords for w in fams[LOWER_FAMILY]} == {
        (15, 8, 0), (27, 15, 9), (36, 27, 16),
    }
    assert {w.coords for w in fams[UPPER_FAMILY]} == {
        (55, 37, 15), (64, 44, 27), (43, 28, 8),
    }
    assert {w.coords for w in fams[SHADOW_FAMILY]} == {
        (55, 36, 16), (36, 15, 0), (43, 27, 9),
    }
    for w in fams[LOWER_FAMILY]:
        assert alcove(w) == "lower"
    for w in fams[UPPER_FAMILY] + fams[SHADOW_FAMILY]:
        assert alcove(w) == "upper"
    # shadows are the reflections of the lower family
    assert [shadow(w) for w in fams[SHADOW_FAMILY]] == list(fams[LOWER_FAMILY])
    # all nine are 4-generic
    for fam in fams.values():
        assert all(is_generic(w) for w in fam)


def test_table_matches_enumeration():
    t = the_table_type()
    table = nine_weight_table(15, 8, 0, 29)
    assert iso(table.source, t)
    enum = enumerate_predicted(t)
    assert enum.weights == table.weights
    assert len(enum.weights) == 9


def test_enumeration_matches_bruteforce_small_p():
    for p in (5, 7, 11):
        e = p**3 - 1
        seen = set()
        for v in range(e):
            o = type_from_exponent(p, v)
            if not o.is_irreducible() or o.orbit_rep() in seen:
                continue
            seen.add(o.orbit_rep())
            fast = enumerate_predicted(o).weights
            slow = enumerate_predicted_bruteforce(o).weights
            assert fast == slow, f"p={p} rep={o.orbit_rep()}"


def irreducible_types(p):
    c2 = p * p + p + 1
    reps = sorted({orbit_rep(p, v) for v in range(p**3 - 1) if v % c2})
    return [type_from_exponent(p, rep) for rep in reps]


def test_enumeration_matches_membership_scan_p13():
    # enumerate_predicted_bruteforce with the loops turned inside out, so
    # each strip weight is built once for all 728 types
    p = 13
    types = irreducible_types(p)
    want = {t: set() for t in types}
    for g1 in range(p - 2):
        for g2 in range(p - 2):
            for z in range(p - 1):
                w = WeightClass(p, 3, (z + g1 + g2, z + g2, z))
                for t in types:
                    if is_predicted(w, t):
                        want[t].add(w)
    for t in types:
        assert enumerate_predicted(t).weights == want[t], f"rep={t.orbit_rep()}"


def rowscan_types(p, sample):
    """Every type, a seeded sample of them, or above p = 53 the types of
    seeded exponents."""
    rng = random.Random(f"rowscan:{p}")
    if p <= 53:
        types = irreducible_types(p)
        return types if sample is None else rng.sample(types, sample)
    types = set()
    while len(types) < sample:
        t = type_from_exponent(p, rng.randrange(p**3 - 1))
        if t.is_irreducible():
            types.add(t)
    return sorted(types, key=lambda t: t.orbit_rep())


@pytest.mark.parametrize("p, sample", [(17, None), (29, 300), (53, 300), (1009, 100),
                                       (65521, 2)])
def test_enumeration_matches_rowscan(p, sample):
    types = rowscan_types(p, sample)
    for t in types:
        assert enumerate_predicted(t) == enumerate_predicted_rowscan(t), t.orbit_rep()


def test_theta_example():
    assert theta(15, 8, 0, 29) == (27, 15, 9)
    a, b, c = 15, 8, 0
    t3 = theta(*theta(*theta(a, b, c, 29), 29), 29)
    assert t3 == (a + 28, b + 28, c + 28)


@pytest.mark.parametrize("p", [29, 31])
def test_families_match_the_hand_written_triples(p):
    # the theta-rotated forms, family by family and in listed order
    for a, b, c in _table_triples(p):
        want = {name: tuple(weight(p, *v) for v in vs)
                for name, vs in nine_weight_triples(a, b, c, p).items()}
        assert nine_weight_families(a, b, c, p) == want, (a, b, c)


def test_theta_preserves_type_and_permutes_families():
    p = 29
    a, b, c = 15, 8, 0
    t = the_table_type()
    a2, b2, c2 = theta(a, b, c, p)
    assert iso(tau(XI_123, (a2 + 2, b2 + 1, c2), p), t)
    fams = nine_weight_families(a, b, c, p)
    fams2 = nine_weight_families(a2, b2, c2, p)
    for name in (LOWER_FAMILY, UPPER_FAMILY, SHADOW_FAMILY):
        assert set(fams2[name]) == set(fams[name])


def test_duality():
    p = 29
    for rep in (278, 163, 1003):
        t = type_from_exponent(p, rep)
        lhs = enumerate_predicted(dual_twist(t, 2)).weights
        rhs = frozenset(dual(w) for w in enumerate_predicted(t).weights)
        assert lhs == rhs


def test_both_cycles_can_build_the_same_set():
    # the 132-parametrization of the same orbit enumerates identically
    p = 29
    t = the_table_type()
    rep = t.orbit_rep()
    t2 = tau(XI_132, (17, 0, 9), p)  # 17 + 29*9 + 841*0 ... cyclically equal orbit
    if iso(t, t2):
        assert enumerate_predicted(t2).weights == enumerate_predicted(t).weights
    else:
        # fall back: reconstruct from the raw orbit member
        t3 = type_from_exponent(p, rep)
        assert enumerate_predicted(t3).weights == enumerate_predicted(t).weights


def test_table_range_validation():
    with pytest.raises(ValueError, match="a-b > 5"):
        nine_weight_families(5, 3, 1, 29)
    with pytest.raises(ValueError, match="a-b > 5"):
        nine_weight_table(22, 14, 0, 29)  # a-c = 22 reaches p-7
    nine_weight_table(20, 14, 0, 29)  # boundary-interior case stays legal
