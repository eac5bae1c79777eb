"""Slope thresholds, Hecke normalization exponents, criticality tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gl3weights.induction import AntidominantCochar
from gl3weights.slopes import (
    ABOVE_BOUND,
    BELOW_BOUND,
    CRITICAL,
    hecke_normalization,
    hodge_data,
    newton_hodge_gap,
    ordinarity_threshold,
    slope_criticality,
)

# the cocharacter of each Hecke operator level j
MUS = {1: AntidominantCochar((0, 0, 1)), 2: AntidominantCochar((0, 1, 1))}


def test_threshold_single_embedding():
    h = hodge_data(3, 1, 1, [(5, 3, 1)], [0, 0, 0])
    assert ordinarity_threshold(h, 1) == 1
    assert ordinarity_threshold(h, 2) == 4
    with pytest.raises(ValueError):
        ordinarity_threshold(h, 3)
    with pytest.raises(ValueError):
        ordinarity_threshold(h, 0)


def test_threshold_zero_hodge():
    h = hodge_data(3, 2, 1, [(0, 0, 0)] * 2, [0, 0, 0])
    assert ordinarity_threshold(h, 1) == 0
    assert ordinarity_threshold(h, 2) == 0


def test_threshold_linearity_in_embeddings():
    single = hodge_data(3, 1, 1, [(5, 3, 1)], [0, 0, 0])
    double = hodge_data(3, 2, 1, [(5, 3, 1)] * 2, [0, 0, 0])
    for j in (1, 2):
        assert ordinarity_threshold(double, j) == 2 * ordinarity_threshold(single, j)


def test_hecke_normalization_examples():
    assert hecke_normalization(MUS[1], [(5, 3, 1)]) == 1
    assert hecke_normalization(MUS[2], [(5, 3, 1)]) == 4
    assert hecke_normalization(MUS[2], [(0, 0, 0)] * 3) == 0
    assert hecke_normalization((0, 1, 1), [(5, 3, 1), (2, 1, 0)]) == 5


def test_threshold_equals_normalization():
    rng = random.Random(7)
    for _ in range(300):
        f = rng.randrange(1, 4)
        e_ram = rng.randrange(1, 4)
        lams = []
        for _ in range(f * e_ram):
            vals = sorted((rng.randrange(-20, 20) for _ in range(3)), reverse=True)
            lams.append(tuple(vals))
        h = hodge_data(3, f, e_ram, lams, [0, 0, 0])
        for j in (1, 2):
            assert ordinarity_threshold(h, j) == Fraction(
                hecke_normalization(MUS[j], h), e_ram
            )


def test_criticality_examples():
    lam = [(5, 3, 1)]
    thr = ordinarity_threshold(hodge_data(3, 1, 1, lam, [0, 0, 0]), 1)
    for delta, tag in ((0, CRITICAL), (1, ABOVE_BOUND), (-1, BELOW_BOUND)):
        h = hodge_data(3, 1, 1, lam, [thr + delta, 10, 10])
        assert slope_criticality(h, 1) == tag


def test_gap_examples():
    lam = [(5, 3, 1)]
    h0 = hodge_data(3, 1, 1, [(0, 0, 0)], [0, 0, 0])
    assert newton_hodge_gap(h0, 1) == 0
    assert newton_hodge_gap(h0, 2) == 0
    thr2 = ordinarity_threshold(hodge_data(3, 1, 1, lam, [0, 0, 0]), 2)
    h = hodge_data(3, 1, 1, lam, [0, thr2 + Fraction(3, 2), 99])
    assert newton_hodge_gap(h, 2) == Fraction(3, 2)


def test_gap_requires_sorted_valuations():
    h = hodge_data(3, 1, 1, [(5, 3, 1)], [2, 1, 0])
    with pytest.raises(ValueError, match="ascending"):
        newton_hodge_gap(h, 1)


def test_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        hodge_data(3, 1, 1, [(1, 3, 5)], [0, 0, 0])
    with pytest.raises(ValueError, match="per embedding"):
        hodge_data(3, 2, 1, [(5, 3, 1)], [0, 0, 0])
    with pytest.raises(ValueError, match="rank"):
        hodge_data(1, 1, 1, [(5,)], [0])


@given(st.data())
def test_criticality_iff_zero_gap(data):
    f = data.draw(st.integers(min_value=1, max_value=3))
    e_ram = data.draw(st.integers(min_value=1, max_value=3))
    lams = []
    for _ in range(f * e_ram):
        vals = sorted(
            data.draw(st.tuples(*[st.integers(-15, 15)] * 3)), reverse=True
        )
        lams.append(tuple(vals))
    j = data.draw(st.integers(min_value=1, max_value=2))
    num = data.draw(st.integers(min_value=-40, max_value=120))
    den = data.draw(st.integers(min_value=1, max_value=6))
    v = Fraction(num, den)
    big = max(abs(v), 1000)
    t_vals = sorted([v, big + 1, big + 2])
    h = hodge_data(3, f, e_ram, lams, t_vals)
    jj = t_vals.index(v) + 1
    if jj > 2:
        return
    tag = slope_criticality(h, jj)
    gap = newton_hodge_gap(h, jj)
    assert (tag == CRITICAL) == (gap == 0)
    assert (tag == ABOVE_BOUND) == (gap > 0)
    assert (tag == BELOW_BOUND) == (gap < 0)


def test_threshold_monotone_for_dominant_nonnegative():
    h = hodge_data(4, 1, 2, [(7, 5, 2, 0), (6, 6, 1, 1)], [0, 0, 0, 0])
    thresholds = [ordinarity_threshold(h, j) for j in (1, 2, 3)]
    assert thresholds == sorted(thresholds)
