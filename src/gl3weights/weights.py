"""Irreducible weights of GL_3(F_p) in characteristic p.

A weight F(x, y, z) is the socle of the dual Weyl module of a
p-restricted dominant triple (consecutive differences in [0, p-1]);
two triples give the same weight iff the differences agree and the
central characters match, which pins a unique representative with last
coordinate in [0, p-2].
"""

from __future__ import annotations

from .arith import Record, check_prime

ALCOVE_LOWER = "lower"
ALCOVE_WALL = "wall"
ALCOVE_UPPER = "upper"


class WeightClass(Record):
    """Isomorphism class of an irreducible F_p-weight, in canonical form."""

    __slots__ = ()
    _fields = ("p", "n", "coords")

    def __init__(self, p: int, n: int, coords: tuple[int, int, int]) -> None:
        check_prime(p)
        if n != 3:
            raise ValueError(f"rank must be 3, got {n}")
        if len(coords) != 3:
            raise ValueError(f"expected 3 coordinates, got {len(coords)}")
        for a, b in zip(coords, coords[1:]):
            if not 0 <= a - b <= p - 1:
                raise ValueError(f"coordinates {coords} are not p-restricted")
        if not 0 <= coords[-1] <= p - 2:
            raise ValueError(f"coordinates {coords} are not in canonical form")

    def __str__(self) -> str:
        return "F(" + ",".join(str(c) for c in self.coords) + ")"


def canonicalize(coords: tuple[int, int, int] | list[int], p: int) -> WeightClass:
    """Canonical representative: shift all coordinates by the unique
    multiple of p - 1 placing the last one in [0, p-2]."""
    check_prime(p)
    coords = tuple(coords)
    if len(coords) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(coords)}")
    w = canonical(coords, p)
    w.__init__(p, 3, w.coords)  # the checks of a direct WeightClass(p, 3, coords)
    return w


def canonical(coords: tuple[int, int, int], p: int) -> WeightClass:
    """`canonicalize` without checks: the trusted path, for p-restricted
    coordinates over a prime that a record or a factory has already checked."""
    shift = coords[-1] - coords[-1] % (p - 1)
    if shift:
        coords = tuple(c - shift for c in coords)
    return WeightClass.__new__(WeightClass, p, 3, coords)


def weight(p: int, *coords: int) -> WeightClass:
    return canonicalize(coords, p)


def dual(w: WeightClass) -> WeightClass:
    """Contragredient twisted back to a weight: reverse and negate."""
    x, y, z = w.coords
    return canonical((-z, -y, -x), w.p)


def alcove(w: WeightClass) -> str:
    """Position of a rank-3 weight relative to the restricted alcoves.

    Weights with x - z < p - 2 are in the closure of the lower alcove,
    x - z = p - 2 is the separating wall, and x - z > p - 2 with both
    differences strictly below p - 1 is the upper alcove.  Weights with
    a difference equal to p - 1 beyond the wall fit neither alcove and
    are rejected.
    """
    x, y, z = w.coords
    span = x - z
    if span < w.p - 2:
        return ALCOVE_LOWER
    if span == w.p - 2:
        return ALCOVE_WALL
    if x - y < w.p - 1 and y - z < w.p - 1:
        return ALCOVE_UPPER
    raise ValueError(f"{w} lies on an outer wall and has no alcove position")


def is_delta_generic(w: WeightClass, delta: int) -> bool:
    """Both differences in (delta - 1, p - 1 - delta) and distance from
    the alcove wall larger than delta."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    x, y, z = w.coords
    p = w.p
    if not (delta - 1 < x - y < p - 1 - delta):
        return False
    if not (delta - 1 < y - z < p - 1 - delta):
        return False
    return abs(x - z - (p - 2)) > delta


def is_generic(w: WeightClass) -> bool:
    return is_delta_generic(w, 4)


def weyl_dim(x: int, y: int, z: int) -> int:
    """Dimension of the rank-3 dual Weyl module of (x, y, z)."""
    return (x - y + 1) * (y - z + 1) * (x - z + 2) // 2


def dim_weight(w: WeightClass) -> int:
    """Dimension of the irreducible weight.

    In the closure of the lower alcove the weight exhausts its Weyl
    module; in the upper alcove the Weyl module has one extra factor,
    the reflected partner, whose Weyl dimension is subtracted.
    """
    full = weyl_dim(*w.coords)
    if alcove(w) in (ALCOVE_LOWER, ALCOVE_WALL):
        return full
    return full - weyl_dim(*reflect(w).coords)


def reflect(w: WeightClass) -> WeightClass:
    """The reflection (x, y, z) -> (z + p - 2, y, x - p + 2): it swaps the
    lower and upper alcoves and is an involution on classes."""
    x, y, z = w.coords
    return canonical((z + w.p - 2, y, x - w.p + 2), w.p)


def shadow(w: WeightClass) -> WeightClass:
    """Lower-alcove partner of an upper-alcove weight, by `reflect`."""
    if alcove(w) != ALCOVE_UPPER:
        raise ValueError(f"{w} is not in the upper alcove")
    return reflect(w)
