"""Induced constituents and the implied weights."""

import pytest

from gl3weights import induction
from gl3weights.induction import (
    AntidominantCochar,
    constituents_long,
    constituents_short,
    implied_weights,
)
from gl3weights.weights import alcove, canonicalize, dim_weight, dual, weight

from oracles import implied_weight_tables


def constituents(p, left, right):
    """The induction constituents of the GL_1 x GL_2 Levi weight whose
    blocks have these coordinates, read left to right."""
    return tuple(canonicalize(v, p) for v in induction._induced(left + right, p))


def test_cochar_validation():
    assert AntidominantCochar((0, 0, 1)).level == 1
    assert AntidominantCochar((0, 1, 1)).level == 2
    with pytest.raises(ValueError):
        AntidominantCochar((1, 0, 0))
    with pytest.raises(ValueError):
        AntidominantCochar((0, 0, 0))
    with pytest.raises(ValueError):
        AntidominantCochar((1, 1, 1))


def test_short_list_example():
    got = constituents_short(5, 3, 1, 7)
    assert tuple(w.coords for w in got) == ((9, 7, 5), (9, 5, 1), (5, 3, 1))
    assert [dim_weight(w) for w in got] == [27, 117, 27]
    assert sum(dim_weight(w) for w in got) == 171 == 57 * 3
    assert alcove(got[1]) == "upper"
    assert alcove(got[0]) == "lower" and alcove(got[2]) == "lower"


def test_long_list_example():
    got = constituents_long(5, 3, 1, 7)
    assert sum(dim_weight(w) for w in got) == 57 * 5 == 285
    # first and last entries are the upper-alcove members
    assert alcove(got[0]) == "upper"
    assert alcove(got[5]) == "upper"
    for w in got[1:5]:
        assert alcove(w) in ("lower", "wall")


def test_dimension_identities_small():
    p = 11
    for a in range(1, p - 1):
        for b in range(0, a):
            for c in range(max(0, a - p + 2), b):
                short = constituents_short(a, b, c, p)
                assert sum(dim_weight(w) for w in short) == (p * p + p + 1) * (b - c + 1)
                long = constituents_long(a, b, c, p)
                assert sum(dim_weight(w) for w in long) == (p * p + p + 1) * (p - b + c)


def test_induction_shape_matching():
    # F(5) x F(3,1) at p=7 lifts into the short window with a=5
    got = constituents(7, (5,), (3, 1))
    assert got == constituents_short(5, 3, 1, 7)
    # F(5) x F(7,3) only fits the long window: parameters (11, 9, 7)
    got = constituents(7, (5,), (7, 3))
    assert got == constituents_long(11, 9, 7, 7)
    assert sum(dim_weight(w) for w in got) == 285


def test_induction_rejects_boundary():
    # alpha congruent to a GL_2 coordinate admits neither window
    with pytest.raises(ValueError, match="no generic shape"):
        constituents(7, (3,), (3, 1))


def test_implied_lower_example():
    w = weight(7, 5, 3, 1)
    got1 = {v.coords for v in implied_weights(w, 1)}
    assert got1 == {(7, 5, 3), (11, 7, 3)}
    got2 = {v.coords for v in implied_weights(w, 2)}
    assert got2 == {(9, 7, 5), (9, 5, 1)}


def test_implied_matches_induction_kernel():
    # in the lower alcove, the level-2 implied weights are the other
    # constituents of inducing the restriction to the GL_1 x GL_2 Levi
    for coords in ((5, 3, 1), (4, 2, 1), (5, 4, 2)):
        w = weight(7, *coords)
        consts = set(constituents(7, coords[:1], coords[1:]))
        assert implied_weights(w, 2) == frozenset(consts - {w})


def test_implied_upper_sizes_and_split():
    w = weight(29, 43, 28, 8)
    for j in (1, 2):
        got = implied_weights(w, j)
        assert len(got) == 5
    w2 = weight(7, 5, 3, 1)
    for j in (1, 2):
        members = implied_weights(w2, j)
        uppers = [v for v in members if alcove(v) == "upper"]
        assert len(uppers) == 1


def test_implied_operator_swap_duality():
    for p, coords in ((7, (5, 3, 1)), (29, (15, 8, 0)), (29, (43, 28, 8))):
        w = weight(p, *coords)
        for j in (1, 2):
            lhs = implied_weights(w, j)
            rhs = frozenset(dual(v) for v in implied_weights(dual(w), 3 - j))
            assert lhs == rhs


def test_implied_wall_rejected():
    w = weight(7, 6, 3, 0)  # x - z = p - 1
    for j in (1, 2):
        with pytest.raises(ValueError, match="outside"):
            implied_weights(w, j)
    with pytest.raises(ValueError):
        implied_weights(weight(7, 5, 3, 1), 3)


def range_weights(p):
    """Every weight in the lower or the upper implied-weight range."""
    for g1 in range(1, p - 1):
        for g2 in range(1, p - 1):
            if g1 + g2 != p - 1:
                for z in range(p - 1):
                    yield canonicalize((z + g1 + g2, z + g2, z), p)


RANGE_PRIMES = (5, 7, 11, 13, 29, 31)


def test_implied_weights_match_the_tables():
    pairs = 0
    for p in RANGE_PRIMES:
        for w in range_weights(p):
            for j in (1, 2):
                assert implied_weights(w, j) == implied_weight_tables(w, j), (w, j)
                pairs += 1
    assert pairs == 92400


def test_last_constituent_is_the_weight():
    # implied_weights drops the last constituent as w itself
    for p in RANGE_PRIMES:
        for w in range_weights(p):
            x, y, z = w.coords
            u, v, t = induction._induced(w.coords, p)[-1]
            assert u - x == v - y == t - z and (u - x) % (p - 1) == 0, w
