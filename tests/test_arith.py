"""Digit arithmetic: exponent classes, Frobenius orbits, the 3-digit split."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3weights import elimination, predicted
from gl3weights.arith import (
    CASE_I,
    CASE_II,
    DIVISIBLE,
    P_LIMIT,
    ExpClass,
    check_prime,
    decompose_exponent,
    exp_class,
    is_prime,
    orbit,
    orbit_of,
    orbit_rep,
    row_masks,
    row_reps,
)
from gl3weights.breuil import candidate_exponents
from gl3weights.tame_types import tau_exponent

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
    # the niveau of an exponent class is its orbit size
    assert orbit(exp_class(7, 3, 57)).size == 1
    assert orbit(exp_class(7, 3, 10)).size == 3
    assert orbit(exp_class(7, 3, 0)).size == 1


def test_orbit_matches_bruteforce():
    for p in (7, 11):
        for v in range(p**3 - 1):
            o = orbit_of(p, 3, v)
            want = orbit_elements(p, 3, v)
            assert set(o.elements()) == want
            assert o.rep == min(want)
            assert o.size == len(want)


def test_embed_niveau_example():
    # a niveau-1 exponent v embeds at niveau 3 as v*(p^2+p+1)
    c = exp_class(7, 3, 7 * 7 + 7 + 1)
    assert (c.value, orbit(c).size) == (57, 1)


def test_embed_niveau_is_norm_compatible():
    # the shift by p^2+p+1 is the scaling (p^3-1)/(p-1); its images are
    # Frobenius-fixed and additive modulo p - 1
    for p in (7, 11):
        e, scale = p**3 - 1, p * p + p + 1
        assert e == (p - 1) * scale
        for v in range(p - 1):
            assert orbit_of(p, 3, v * scale).size == 1
            assert v * scale * p % e == v * scale
        for v, w in ((1, 2), (3, 4), (p - 2, p - 2)):
            assert (v + w) % (p - 1) * scale == (v * scale + w * scale) % e


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
    # one digit row (form 0, k, p*k, p^2*k) per value, at the origin
    e = p**3 - 1
    rows = [(0, v % e, v * p % e, v * p * p % e) for v in values]
    assert sorted(set(row_reps(p, rows, 0, 0, 0))) == sorted(wants)


def affine_rows(values_at):
    """The rows (kx, ky, kz, k0) of a table affine in three coordinates:
    values_at((x, y, z))[i] = kx*x + ky*y + kz*z + k0."""
    at = [values_at(v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return [(nx - n0, ny - n0, nz - n0, n0) for n0, nx, ny, nz in zip(*at)]


def package_tables(p):
    """Each per-prime table of the package: its (kx, ky, kz, k0) rows, its
    digit rows and their scales (None where the table keeps none).  The
    membership rows are typed out from tau(xi, mu) by hand; a lift's digit
    rows are its getter applied to the class table."""

    def membership(v):
        x, y, z = v
        return [tau_exponent(xi, (z + p, y + 1, x - p + 2) if high else (x + 2, y + 1, z), p)
                for xi, high in predicted.MEMBERSHIP_ROWS]

    yield (affine_rows(membership), *predicted._membership_rows(p)[:2])
    rows, lifts, *_ = elimination._lift_rows(p)
    for i, lift in enumerate(lifts):
        yield (affine_rows(lambda v: candidate_exponents(elimination._lifts(p, v)[i])),
               lift(rows), None)


def witness_primes():
    """Every prime 5 <= p < 1000, then 20 seeded ones up to 65521."""
    rng = random.Random("digit rows")
    large = set()
    while len(large) < 20:
        n = rng.randrange(1000, P_LIMIT)
        if is_prime(n):
            large.add(n)
    return [p for p in range(5, 1000) if is_prime(p)] + sorted(large)


def test_row_masks_match_row_reps():
    # row_masks probes each form's dict of row bits at the point's six
    # offsets, reducing no row; it reads as the OR of the bits of the rows
    # whose row_reps value is the orbit's least member, at seeded points and
    # rows at every prime below 1000 and at 65521, for each row's own rep (so
    # some rows hit) and a seeded one, one point at a time and as one batch
    rng = random.Random("row hits")
    for p in [p for p in range(5, 1000) if is_prime(p)] + [65521]:
        e = p**3 - 1
        rows = [(form, k, k * p % e, k * p * p % e)
                for form in (0, 1) for k in (rng.randrange(e) for _ in range(4))]
        masks = ({}, {})
        for i, (form, k0, _, _) in enumerate(rows):
            masks[form][k0] = masks[form].get(k0, 0) | 1 << i
        points, reps_seen = [], set()
        for _ in range(3):
            x, y, z = (rng.randrange(-2 * p, 3 * p) for _ in range(3))
            points.append((x, y, z))
            reps = row_reps(p, rows, x, y, z)
            for rep in (*reps, orbit_rep(p, rng.randrange(e))):
                reps_seen.add(rep)
                want = sum(1 << i for i, r in enumerate(reps) if r == rep)
                assert row_masks(p, masks, [(x, y, z)], rep) == [want], (p, x, y, z, rep)
        for rep in reps_seen:
            assert row_masks(p, masks, points, rep) == [
                row_masks(p, masks, [v], rep)[0] for v in points], (p, rep)


def test_every_table_row_is_a_power_of_p_times_a_digit_form():
    # row (kx, ky, kz, k0) is p^j*(x + p*y + p^2*z) + k0 (form 0) or
    # p^j*(x + p^2*y + p*z) + k0 (form 1) mod p^3 - 1; scaled by q = p^-j it
    # is the digit row (form, q*k0, p*q*k0, p^2*q*k0), whose value at every
    # point lies in the Frobenius orbit of the row's own
    rng = random.Random("digit row points")
    for p in witness_primes():
        e = p**3 - 1
        forms = ((p, p * p), (p * p, p))
        count = 0
        for affine, digit, scales in package_tables(p):
            assert len(affine) == len(digit)
            for i, ((kx, ky, kz, k0), (form, d0, d1, d2)) in enumerate(zip(affine, digit)):
                (q,) = [q for q in (1, p, p * p) if kx * q % e == 1]
                assert (ky * q % e, kz * q % e) == forms[form], (p, i)
                assert (d0, d1, d2) == (k0 * q % e, k0 * q * p % e, k0 * q * p * p % e), (p, i)
                assert scales is None or scales[i] == q, (p, i)
            for _ in range(3):
                x, y, z = (rng.randrange(-2 * p, 3 * p) for _ in range(3))
                want = [least_orbit_member(p, 3, kx * x + ky * y + kz * z + k0)
                        for kx, ky, kz, k0 in affine]
                assert row_reps(p, digit, x, y, z) == want, (p, x, y, z)
            count += len(digit)
        # 4 membership rows and the lifts' 6 + 10 + 10 rows
        assert count == 30, p


def signed_digits(p, k):
    """The (d0, d1, d2), each |d_i| <= 4, with d0 + p*d1 + p^2*d2 = k mod p^3 - 1.
    From p = 11 on there is at most one: two readings differ in value by at
    most 8(p^2+p+1) < p^3 - 1, so their values are equal, and then their
    digits, which differ by at most 8 < p, are equal too."""
    e = p**3 - 1
    (digits,) = [d for d in product(range(-4, 5), repeat=3)
                 if (d[0] + p * d[1] + p * p * d[2] - k) % e == 0]
    return digits


def evaluate_template(p, template):
    """The digit rows (form, k, p*k, p^2*k) at p of (form, signed digits) rows."""
    e = p**3 - 1
    ks = [(form, (d0 + p * d1 + p * p * d2) % e) for form, (d0, d1, d2) in template]
    return tuple((form, k, k * p % e, k * p * p % e) for form, k in ks)


def test_digit_row_tables_are_one_template_at_every_prime():
    # read at p = 11, each table row is (form, signed digit shifts), the lift
    # rows' shifts being the Breuil height data; with the lifts' class indices
    # and the membership scales' powers of p this template, evaluated at every
    # prime below 2^16, is what the uncached builders derive there.  At p = 5
    # and 7 some shift has more than one reading, but the template read at 11
    # evaluates to their tables all the same, so they need no case of their own
    rows, getters, *_ = elimination._lift_rows.__wrapped__(11)
    lift_template = [(form, signed_digits(11, k)) for form, k, _, _ in rows]
    classes = [get(range(len(rows))) for get in getters]
    member_rows, scales, *_ = predicted._membership_rows.__wrapped__(11)
    member_template = [(form, signed_digits(11, k)) for form, k, _, _ in member_rows]
    powers = [(1, 11, 121).index(q) for q in scales]
    # the determinant condition: every row's shifts sum to 3
    assert all(sum(d) == 3 for _, d in lift_template + member_template)
    for p in (p for p in range(5, P_LIMIT) if is_prime(p)):
        rows, getters, *_ = elimination._lift_rows.__wrapped__(p)
        assert rows == evaluate_template(p, lift_template), p
        assert [get(range(len(rows))) for get in getters] == classes, p
        want = (evaluate_template(p, member_template), tuple(p**j for j in powers))
        assert predicted._membership_rows.__wrapped__(p)[:2] == want, p
