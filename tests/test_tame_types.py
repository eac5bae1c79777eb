"""Tame inertial types: construction, isomorphism, twisted duality, rigidity."""

import itertools

import pytest

from gl3weights.arith import orbit_of
from gl3weights.tame_types import (
    ORDER_THREE_CYCLES,
    XI_123,
    XI_132,
    TameType,
    dual_twist,
    iso,
    tau,
    tau_exponent,
    type_from_exponent,
)

from oracles import orbit_elements


def test_tau_exponent_digit_layout():
    assert tau_exponent(XI_123, (3, 1, 0), 7) == 10
    assert tau_exponent(XI_132, (3, 1, 0), 7) == 52
    with pytest.raises(ValueError):
        tau_exponent("231", (3, 1, 0), 7)


def test_tau_examples():
    t = tau(XI_123, (3, 1, 0), 7)
    assert t.is_irreducible()
    assert set(t.chars[0].elements()) == {10, 70, 148}
    t2 = tau(XI_132, (3, 1, 0), 7)
    assert set(t2.chars[0].elements()) == {52, 22, 154}
    assert not iso(t, t2)


def test_tau_member_independence():
    # any member of the orbit reconstructs the same type
    t = tau(XI_123, (3, 1, 0), 7)
    for v in orbit_elements(7, 3, 10):
        assert iso(type_from_exponent(7, v), t)


def test_cyclic_shift_identities():
    for p in (7, 11):
        for mu in ((5, 2, 0), (8, 3, 1), (4, 2, 1)):
            a, b, c = mu
            assert iso(tau(XI_123, (a, b, c), p), tau(XI_123, (c, a, b), p))
            assert iso(tau(XI_132, (a, b, c), p), tau(XI_132, (b, c, a), p))


def test_degenerate_type_is_three_copies():
    t = type_from_exponent(7, 57)
    assert not t.is_irreducible()
    assert t.niveau == 1
    assert len(t.chars) == 3
    with pytest.raises(ValueError):
        t.orbit_rep()


def test_type_validation():
    good = type_from_exponent(7, 10)
    with pytest.raises(ValueError):
        TameType(7, (good.chars[0], good.chars[0]))  # sizes add to 6
    with pytest.raises(ValueError):
        iso(type_from_exponent(7, 10), type_from_exponent(11, 10))


def test_dual_twist_examples():
    t0 = type_from_exponent(7, 0)
    d = dual_twist(t0, 2)
    assert [o.rep for o in d.chars] == [114, 114, 114]
    # involution: twice the twist-2 dual is the identity
    t = tau(XI_123, (8, 3, 1), 11)
    assert iso(dual_twist(dual_twist(t, 2), 2), t)


def test_dual_twist_degenerate_shift():
    # the niveau-1 exponents 1, 2, 3 embedded at niveau 3
    t = TameType(7, tuple(orbit_of(7, 3, v * 57) for v in (1, 2, 3)))
    d = dual_twist(t, 1)
    assert sorted(o.rep for o in d.chars) == sorted(
        (-o.rep + 57) % 342 for o in t.chars
    )


def test_distinguish_rigidity_exhaustive_small_p():
    """Over all pairs of strictly decreasing span-bounded triples with
    equal sums at p=7, isomorphism happens only at identical data."""
    p = 7
    triples = [
        (a, b, c)
        for c in range(0, p)
        for b in range(c + 1, c + p)
        for a in range(b + 1, c + p + 1)
    ]
    by_sum = {}
    for t in triples:
        by_sum.setdefault(sum(t), []).append(t)
    for group in by_sum.values():
        for t1, t2 in itertools.product(group, repeat=2):
            matches = [(xi1, xi2) for xi1, xi2 in itertools.product(ORDER_THREE_CYCLES, repeat=2)
                       if iso(tau(xi1, t1, p), tau(xi2, t2, p))]
            assert matches == ([(xi, xi) for xi in ORDER_THREE_CYCLES] if t1 == t2 else []), (
                t1, t2)
