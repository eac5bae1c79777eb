"""Weight classes: canonical forms, duality, alcoves, dimensions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gl3weights.weights import (
    ALCOVE_LOWER,
    ALCOVE_UPPER,
    ALCOVE_WALL,
    WeightClass,
    alcove,
    canonicalize,
    dim_weight,
    dual,
    is_delta_generic,
    is_generic,
    reflect,
    shadow,
    weight,
    weyl_dim,
)

from oracles import weyl_dimension


def restricted_coords(p):
    """Raw integer triples whose canonical class is well-defined."""
    base = st.integers(min_value=-3 * p, max_value=3 * p)
    return st.tuples(base, st.integers(min_value=0, max_value=p - 1),
                     st.integers(min_value=0, max_value=p - 1)).map(
        lambda t: (t[0] + t[1] + t[2], t[0] + t[2], t[0])
    )


def test_canonicalize_example():
    w = canonicalize((8, -1, -12), 29)
    assert w.coords == (36, 27, 16)


def test_class_equality_under_shift():
    assert weight(29, 15, 8, 0) == weight(29, 43, 36, 28)
    assert weight(29, 15, 8, 0) != weight(29, 16, 9, 1)


def test_dual_examples():
    w = weight(7, 5, 3, 1)
    assert dual(w) == w  # symmetric coordinates
    # reverse-negate of (p-2, 0, 0) lands at (p-1, p-1, 1) after the shift
    d = dual(weight(7, 5, 0, 0))
    assert d.coords == (6, 6, 1)


def test_rejects_non_restricted():
    with pytest.raises(ValueError):
        WeightClass(7, 3, (9, 1, 0))
    with pytest.raises(ValueError):
        WeightClass(7, 3, (5, 3, 7))  # last coordinate out of window
    with pytest.raises(ValueError):
        canonicalize((9, 1, 0), 7)


@pytest.mark.parametrize("make, count", [
    (lambda: weight(7), 0),
    (lambda: canonicalize((), 7), 0),
    (lambda: weight(7, 4, 3, 2, 1), 4),
], ids=["weight(7)", "canonicalize((), 7)", "weight(7, 4, 3, 2, 1)"])
def test_rank_outside_one_to_three_is_refused(make, count):
    # refused before the last coordinate is read, so no IndexError
    with pytest.raises(ValueError, match=f"expected 3 coordinates, got {count}"):
        make()


def test_ranks_one_and_two_are_refused():
    for make in (lambda: weight(7, 4), lambda: weight(7, 3, 1), lambda: canonicalize((3, 1), 7)):
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            make()
    with pytest.raises(ValueError, match="rank must be 3, got 2"):
        WeightClass(7, 2, (3, 1))


def test_alcove_examples():
    assert alcove(weight(7, 5, 3, 1)) == ALCOVE_LOWER
    assert alcove(weight(7, 9, 5, 1)) == ALCOVE_UPPER
    assert alcove(weight(7, 6, 3, 1)) == ALCOVE_WALL
    with pytest.raises(ValueError):
        alcove(weight(7, 9, 3, 1))  # x-y = p-1 past the wall


def test_genericity_examples():
    assert is_delta_generic(weight(29, 15, 8, 0), 6)
    assert not is_delta_generic(weight(7, 5, 3, 1), 4)
    assert not is_generic(weight(7, 5, 3, 1))
    # delta=0 still requires strict interior differences
    assert is_delta_generic(weight(7, 5, 3, 1), 0)
    assert not is_delta_generic(weight(7, 6, 3, 1), 0)  # on the wall


def test_dim_examples():
    assert dim_weight(weight(7, 5, 3, 1)) == 27
    assert dim_weight(weight(7, 9, 5, 1)) == 117
    assert weyl_dim(9, 5, 1) == 125
    assert weyl_dim(6, 5, 4) == 8
    # wall weights exhaust their Weyl module
    assert dim_weight(weight(7, 6, 3, 1)) == weyl_dim(6, 3, 1)


def test_shadow_example():
    assert shadow(weight(7, 9, 5, 1)).coords == (6, 5, 4)
    assert reflect(weight(7, 6, 5, 4)) == weight(7, 9, 5, 1)
    with pytest.raises(ValueError):
        shadow(weight(7, 5, 3, 1))
    with pytest.raises(ValueError):
        shadow(weight(7, 6, 3, 1))  # wall is excluded


@given(st.sampled_from((7, 11, 29)), st.data())
def test_canonicalize_is_stable(p, data):
    coords = data.draw(restricted_coords(p))
    w = canonicalize(coords, p)
    assert canonicalize(w.coords, p) == w
    shifted = tuple(c + 3 * (p - 1) for c in coords)
    assert canonicalize(shifted, p) == w


@given(st.sampled_from((7, 11, 29)), st.data())
def test_dual_is_involution(p, data):
    w = canonicalize(data.draw(restricted_coords(p)), p)
    assert dual(dual(w)) == w


@given(st.sampled_from((7, 11, 29)), st.data())
def test_dual_preserves_alcove_and_genericity(p, data):
    w = canonicalize(data.draw(restricted_coords(p)), p)
    d = dual(w)
    try:
        a = alcove(w)
    except ValueError:
        with pytest.raises(ValueError):
            alcove(d)
        return
    assert alcove(d) == a
    for delta in (0, 2, 4, 6):
        assert is_delta_generic(w, delta) == is_delta_generic(d, delta)


def shadow_inverse(w):
    """Upper-alcove partner of a strictly lower-alcove weight."""
    if alcove(w) != ALCOVE_LOWER:
        raise ValueError(f"{w} is not strictly below the wall")
    return reflect(w)


@given(st.sampled_from((7, 11, 29)), st.data())
def test_shadow_pairing(p, data):
    w = canonicalize(data.draw(restricted_coords(p)), p)
    try:
        pos = alcove(w)
    except ValueError:
        return
    if pos == ALCOVE_UPPER:
        s = shadow(w)
        assert WeightClass(p, 3, s.coords) == s  # the unchecked reflection passes the checks
        assert alcove(s) == ALCOVE_LOWER
        assert shadow_inverse(s) == w
        assert dim_weight(w) == weyl_dim(*w.coords) - weyl_dim(*s.coords)
    elif pos == ALCOVE_LOWER:
        s = shadow_inverse(w)
        assert WeightClass(p, 3, s.coords) == s
        assert alcove(s) == ALCOVE_UPPER
        assert shadow(s) == w


def test_weyl_dim_matches_oracle():
    for x in range(0, 12):
        for y in range(0, x + 1):
            for z in range(0, y + 1):
                assert weyl_dim(x, y, z) == weyl_dimension(x, y, z)
