"""Rank-one modules: validity, kappa invariants, reduction candidate tables."""

import random
import re

import pytest

from gl3weights.arith import is_prime
from gl3weights.breuil import (
    CUSPIDAL,
    CUSPIDAL_DUAL,
    LIFT_HEIGHTS,
    LIFT_KINDS,
    PRINCIPAL_SERIES,
    BreuilModule,
    LiftType,
    candidate_exponents,
    candidate_orbits,
    cuspidal,
    cuspidal_dual,
    descent_exponents,
    fractional_shift,
    inertial_character,
    is_maximal,
    is_minimal,
    maximal_model,
    principal_series,
    random_module,
    validate,
)
from gl3weights.tame_types import dual_twist, type_from_exponent

from oracles import (
    cuspidal_dual_exponents,
    cuspidal_exponents,
    least_orbit_member,
    principal_series_exponents,
)

HAND_TABLES = {PRINCIPAL_SERIES: principal_series_exponents, CUSPIDAL: cuspidal_exponents,
               CUSPIDAL_DUAL: cuspidal_dual_exponents}


def test_validate_examples():
    m = validate(7, 3, 2, (0, 0, 0), (5, 35, 245))
    assert is_minimal(m)
    m2 = validate(7, 3, 2, (684, 684, 684), (100, 16, 112))
    assert is_maximal(m2)
    assert m2.e == 342


def test_validate_rejects_bad_congruence():
    with pytest.raises(ValueError, match="descent congruence"):
        validate(7, 3, 2, (0, 0, 0), (5, 36, 245))
    with pytest.raises(ValueError, match="height"):
        validate(7, 3, 2, (0, 0, 685), (5, 35, 245))
    with pytest.raises(ValueError, match="weight bound"):
        validate(7, 3, 6, (0, 0, 0), (5, 35, 245))


@pytest.mark.parametrize("d", [0, 4])
def test_validate_rejects_unsupported_niveau(d):
    with pytest.raises(ValueError, match=rf"^niveau must be one of \(1, 2, 3\), got {d}$"):
        validate(7, d, 2, (0,) * d, (0,) * d)


def test_kappa_example():
    m = validate(7, 3, 2, (684, 684, 684), (100, 16, 112))
    assert fractional_shift(m, 0) == 798
    assert inertial_character(m).value == 214


def test_maximal_model_example():
    m = validate(7, 3, 2, (0, 0, 0), (5, 35, 245))
    assert inertial_character(m).value == 5
    mx = maximal_model(m)
    assert mx.heights == (684, 684, 684)
    assert mx.exponents[0] == 233
    assert inertial_character(mx).value == 5
    assert is_maximal(mx)
    assert maximal_model(mx) == mx


def test_fractional_shift_recursion():
    rng = random.Random(11)
    for _ in range(50):
        m = random_module(rng, 17, 3, 2)
        shifts = [fractional_shift(m, i) for i in range(3)]
        for i in range(3):
            assert shifts[i] >= m.heights[i]
            nxt = m.p * (shifts[i] - m.heights[i])
            assert shifts[(i + 1) % 3] == nxt


def test_fractional_shift_rejects_inconsistent_heights():
    m = BreuilModule(7, 3, 2, (1, 0, 0), (0, 7, 49))
    with pytest.raises(ValueError, match="divisibility"):
        fractional_shift(m, 0)


def test_kappa_invariance_random():
    rng = random.Random(3)
    for p in (17, 29):
        for _ in range(100):
            m = random_module(rng, p, 3, 2)
            mx = maximal_model(m)
            assert inertial_character(mx).value == inertial_character(m).value
            assert maximal_model(mx) == mx


def test_principal_series_candidates_example():
    t = principal_series(17, (8, 4, 0))
    cand = candidate_orbits(t)
    assert len(cand) == 6
    member = 9 + 17 * 1 + 289 * 5
    assert type_from_exponent(17, member).chars[0].rep in cand


def test_cuspidal_candidates_example():
    cand = candidate_orbits(cuspidal(17, (8, 4, 0)))
    assert len(cand) == 10
    assert all(type_from_exponent(17, rep).is_irreducible() for rep in cand)


def test_cuspidal_dual_is_twisted_dual_of_cuspidal():
    for p, (a, b, c) in ((17, (8, 4, 0)), (29, (14, 7, 0)), (29, (20, 12, 5))):
        fwd = candidate_orbits(cuspidal(p, (-c, -b, -a)))
        twisted = {dual_twist(type_from_exponent(p, rep), 2).orbit_rep() for rep in fwd}
        assert twisted == set(candidate_orbits(cuspidal_dual(p, (a, b, c))))


@pytest.mark.parametrize("kind", LIFT_KINDS)
@pytest.mark.parametrize("p", [11, 13, 17, 29])
def test_candidates_match_the_hand_written_tables(p, kind):
    # every gap triple a-b > 2, b-c > 2, a-c < p-3 over two periods of c: the
    # height data give the digit formulas exactly, unreduced and in order
    for g1 in range(3, p):
        for g2 in range(3, p - 3 - g1):
            for c in range(-p, p):
                a, b = c + g1 + g2, c + g2
                got = candidate_exponents(LiftType(kind, p, a, b, c))
                assert got == HAND_TABLES[kind](p, a, b, c), (p, a, b, c)


def module_witness_primes():
    """Every prime 11 <= p < 1000, 20 seeded ones up to 65521, and 65521."""
    rng = random.Random("module witness")
    large = set()
    while len(large) < 20:
        n = rng.randrange(1000, 65521)
        if is_prime(n):
            large.add(n)
    return [p for p in range(11, 1000) if is_prime(p)] + sorted(large) + [65521]


def test_candidates_are_inertial_characters_of_rank_one_modules():
    # each row (i, j, k), h of a kind's table is the module with d = 3, r = 2,
    # heights h*e and k_0 = v_i + p v_j + p^2 v_k, v = (a, b, c): its inertial
    # character is the candidate mod e.  Below p = 11 no gap triple exists
    assert all(sum(h) == 3 for rows in LIFT_HEIGHTS.values() for _, h in rows)
    for p in module_witness_primes():
        e = p**3 - 1
        rng = random.Random(f"module witness:{p}")
        for _ in range(10):
            g1 = rng.randrange(3, p - 6)
            g2 = rng.randrange(3, p - 3 - g1)
            c = rng.randrange(-p, p)
            v = (c + g1 + g2, c + g2, c)
            for kind in LIFT_KINDS:
                want = []
                for (i, j, k), h in LIFT_HEIGHTS[kind]:
                    heights = tuple(x * e for x in h)
                    ks = descent_exponents(p, 3, v[i] + p * v[j] + p * p * v[k], heights)
                    want.append(inertial_character(validate(p, 3, 2, heights, ks)).value)
                got = candidate_exponents(LiftType(kind, p, *v))
                assert [n % e for n in got] == want, (p, kind, v)


@pytest.mark.parametrize("p", [11, 13, 29, 53, 1009, 65521])
def test_candidate_rows_reproduce_the_tables(p):
    # 500 gap triples drawn as sweep_candidates draws them; below p = 11 no
    # triple has a-b > 2, b-c > 2 and a-c < p-3.  The orbit set is the least
    # members, found by walking each orbit, of the table as written
    rng = random.Random(f"rows:{p}")
    for _ in range(500):
        g1 = rng.randrange(3, p - 6)
        g2 = rng.randrange(3, p - 3 - g1)
        c = rng.randrange(-p, p)
        a, b = c + g1 + g2, c + g2
        for make in (principal_series, cuspidal, cuspidal_dual):
            t = make(p, (a, b, c))
            want = {least_orbit_member(p, 3, n) for n in candidate_exponents(t)}
            assert candidate_orbits(t) == tuple(sorted(want)), (p, t)


def test_candidate_digit_sum_rule():
    # every candidate's split digits sum to a+b+c+3 modulo p-1
    from gl3weights.arith import decompose_exponent

    for p, params in ((17, (8, 4, 0)), (29, (15, 8, 0))):
        a, b, c = params
        for maker in (principal_series, cuspidal, cuspidal_dual):
            for rep in candidate_orbits(maker(p, params)):
                d = decompose_exponent(rep, p)
                assert sum(d.coords) % (p - 1) == (a + b + c + 3) % (p - 1)


def test_gap_hypothesis_enforced():
    # every factory goes through the checked constructor
    with pytest.raises(ValueError, match="violate"):
        principal_series(17, (8, 6, 0))
    with pytest.raises(ValueError, match="violate"):
        cuspidal(17, (15, 8, 0))  # a-c = 15 > p-3
    with pytest.raises(ValueError, match="violate"):
        cuspidal_dual(17, (8, 4, 2))
    # the prime and the kind are checked first
    with pytest.raises(ValueError, match="prime"):
        cuspidal(9, (15, 8, 0))
    with pytest.raises(ValueError, match="unknown lift kind"):
        LiftType("nope", 17, 15, 8, 0)
    # the trusted path runs no check
    assert LiftType.__new__(LiftType, CUSPIDAL, 17, 15, 8, 0).params == (15, 8, 0)


@pytest.mark.parametrize("fields, message", [
    (("bogus", 17, 8, 4, 0), "unknown lift kind 'bogus'"),
    ((CUSPIDAL, 4, 8, 4, 0), "must be a prime >= 5, got 4"),
    (([], 17, 8, 4, 0), re.escape("unknown lift kind []")),
])
def test_plain_fields_get_the_prime_and_kind_checks(fields, message):
    for read in (candidate_exponents, candidate_orbits):
        with pytest.raises(ValueError, match=message):
            read(fields)


def test_random_module_is_valid():
    rng = random.Random(5)
    for _ in range(200):
        m = random_module(rng, 17, 3, 2)
        assert validate(m.p, m.d, m.r, m.heights, m.exponents) == m
        assert 0 <= min(m.heights) and max(m.heights) <= m.e * m.r
