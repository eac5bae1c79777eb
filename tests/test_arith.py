"""Digit arithmetic: exponent classes, Frobenius orbits, the 3-digit split."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3weights.arith import (
    CASE_I,
    CASE_II,
    DIVISIBLE,
    P_LIMIT,
    ExpClass,
    check_prime,
    decompose_exponent,
    embed_niveau,
    exp_class,
    is_prime,
    niveau_of,
    orbit,
    orbit_of,
    orbit_rep,
    orbit_reps,
    solve_digit_pair,
)

from oracles import least_orbit_member, orbit_elements, split_solutions

PRIMES = (7, 11, 13)


def test_exp_class_reduces():
    c = exp_class(7, 3, 490)
    assert c.value == 148
    assert c.modulus == 342


def test_exp_class_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        ExpClass(6, 3, 1)
    with pytest.raises(ValueError):
        ExpClass(3, 3, 1)
    with pytest.raises(ValueError):
        ExpClass(7, 4, 1)


def test_check_prime_bound():
    check_prime(65521)  # the largest prime below the bound
    assert P_LIMIT == 2**16
    for p in (P_LIMIT, 65537, 1152921504606846883):
        with pytest.raises(ValueError, match="below 65536"):
            check_prime(p)
    with pytest.raises(ValueError, match="prime >= 5"):
        check_prime(65535)


def test_check_prime_rejects_on_repeat():
    # the primality verdict is memoized; a cached verdict must not let a
    # rejected p through on a later call
    for _ in range(3):
        for p in (5, 7, 29, 65521):
            check_prime(p)
        for p in (-7, 0, 1, 2, 3, 4, 9, 25, 841, 65535):
            with pytest.raises(ValueError, match="prime >= 5"):
                check_prime(p)
        for p in (P_LIMIT, 65537):
            with pytest.raises(ValueError, match="below 65536"):
                check_prime(p)
    assert [n for n in range(200) if is_prime(n)] == [
        n for n in range(200) if n > 1 and all(n % f for f in range(2, n))
    ]


def test_orbit_example():
    o = orbit_of(7, 3, 10)
    assert o.rep == 10
    assert set(o.elements()) == {10, 70, 148}
    assert orbit_of(7, 3, 70).rep == 10
    assert orbit_of(7, 3, 148).rep == 10


def test_niveau_examples():
    assert niveau_of(exp_class(7, 3, 57)) == 1
    assert niveau_of(exp_class(7, 3, 10)) == 3
    assert niveau_of(exp_class(7, 3, 0)) == 1


def test_orbit_matches_bruteforce():
    for p in (7, 11):
        for v in range(p**3 - 1):
            o = orbit_of(p, 3, v)
            want = orbit_elements(p, 3, v)
            assert set(o.elements()) == want
            assert o.rep == min(want)
            assert o.size == len(want)


def test_solve_digit_pair_matches_box_search():
    for p in (5, 7, 11, 13):
        c = p * p + p + 1
        for slope in (p + 1, -p):
            box: dict[int, list[tuple[int, int]]] = {}
            for g1 in range(p - 2):
                for g2 in range(p - 2):
                    box.setdefault((g1 + slope * g2) % c, []).append((g1, g2))
            for r in range(-c, c):
                for s in (slope, slope % c):
                    g1, g2 = solve_digit_pair(p, s, r)
                    assert 0 <= g1 <= p and 0 <= g2 <= p
                    assert (g1 + slope * g2 - r) % c == 0
                    assert box.get(r % c, []) in ([], [(g1, g2)]), (p, slope, r)


def test_solve_digit_pair_rejects_other_slopes():
    with pytest.raises(ValueError, match="slope"):
        solve_digit_pair(7, 1, 3)


def test_embed_niveau_example():
    c = embed_niveau(exp_class(7, 1, 1), 3)
    assert (c.p, c.d, c.value) == (7, 3, 57)


def test_embed_niveau_is_norm_compatible():
    # images are Frobenius-fixed, additive, and recover the source exponent
    for p in (7, 11):
        scale = p * p + p + 1
        for v in range(p - 1):
            c = embed_niveau(exp_class(p, 1, v), 3)
            assert niveau_of(c) == 1
            assert c.value == v * scale
        for v, w in ((1, 2), (3, 4), (p - 2, p - 2)):
            lhs = embed_niveau(exp_class(p, 1, v + w), 3).value
            a = embed_niveau(exp_class(p, 1, v), 3).value
            b = embed_niveau(exp_class(p, 1, w), 3).value
            assert lhs == (a + b) % (p**3 - 1)


def test_embed_rejects_higher_niveau_source():
    with pytest.raises(ValueError):
        embed_niveau(exp_class(7, 3, 10), 3)


def test_decompose_example():
    d = decompose_exponent(10, 7)
    assert (d.kind, d.x, d.y, d.z) == (CASE_I, 3, 1, 0)
    assert d.value(7) == 10


def test_decompose_divisible():
    d = decompose_exponent(57 * 2, 7)
    assert d.kind == DIVISIBLE
    with pytest.raises(ValueError):
        d.coords
    with pytest.raises(ValueError):
        d.value(7)


@pytest.mark.parametrize("p", PRIMES)
def test_split_matches_exhaustive_search(p):
    """The constructive split agrees with brute-force shape search.

    Existence, uniqueness, and case disjointness over one full period,
    and each case occurs exactly (p^2+p)/2 times.
    """
    c = p * p + p + 1
    counts = {CASE_I: 0, CASE_II: 0}
    for n in range(c):
        sols = split_solutions(n, p)
        d = decompose_exponent(n, p)
        if n % c == 0:
            assert sols == []
            assert d.kind == DIVISIBLE
            continue
        assert len(sols) == 1, f"n={n}: expected unique split, got {sols}"
        kind, x, y, z = sols[0]
        assert (d.kind, d.x, d.y, d.z) == (kind, x, y, z)
        counts[kind] += 1
    assert counts[CASE_I] == (p * p + p) // 2
    assert counts[CASE_II] == (p * p + p) // 2


@given(st.integers(min_value=-10**6, max_value=10**6), st.sampled_from(PRIMES))
def test_translation_rule(n, p):
    c = p * p + p + 1
    d0 = decompose_exponent(n, p)
    d1 = decompose_exponent(n + c, p)
    assert d0.kind == d1.kind
    if d0.kind != DIVISIBLE:
        assert d1.coords == tuple(v + 1 for v in d0.coords)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(PRIMES))
def test_reassembly_roundtrip(n, p):
    d = decompose_exponent(n, p)
    if d.kind != DIVISIBLE:
        assert d.value(p) == n
        x, y, z = d.coords
        assert x - z <= p
        if d.kind == CASE_I:
            assert x > y >= z
        else:
            assert x >= y > z


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=340))
def test_orbit_rep_is_invariant(v):
    o = orbit_of(7, 3, v)
    for w in o.elements():
        assert orbit_of(7, 3, w).rep == o.rep


def test_decomposition_guard():
    p = 7
    with pytest.raises(ValueError):
        decompose_exponent(p * p + p + 1, p).coords


@pytest.mark.parametrize("p,values", [
    (5, range(5**3 - 1)),
    (7, range(7**3 - 1)),
    (29, random.Random(29).sample(range(-29**3, 2 * 29**3), 2000)),
    (53, random.Random(53).sample(range(-53**3, 2 * 53**3), 2000)),
])
def test_orbit_rep_matches_orbit_walk(p, values):
    wants = set()
    for v in values:
        want = least_orbit_member(p, 3, v)
        assert orbit_rep(p, v) == orbit(exp_class(p, 3, v)).rep == want, (p, v)
        wants.add(want)
    assert orbit_reps(p, values) == wants
