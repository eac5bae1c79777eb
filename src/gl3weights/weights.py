"""Irreducible weights of GL_n(F_p) in characteristic p, for n <= 3.

A weight F(x_1, ..., x_n) is the socle of the dual Weyl module of a
p-restricted dominant tuple (consecutive differences in [0, p-1]);
F(x) = F(y) iff the differences agree and the central characters match,
which pins a unique representative with last coordinate in [0, p-2].
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

    def __init__(self, p: int, n: int, coords: tuple[int, ...]) -> None:
        check_prime(p)
        if n not in (1, 2, 3):
            raise ValueError(f"rank must be 1, 2 or 3, got {n}")
        if len(coords) != n:
            raise ValueError("coordinate count does not match rank")
        for a, b in zip(coords, coords[1:]):
            if not 0 <= a - b <= p - 1:
                raise ValueError(f"coordinates {coords} are not p-restricted")
        if not 0 <= coords[-1] <= p - 2:
            raise ValueError(f"coordinates {coords} are not in canonical form")

    def __str__(self) -> str:
        return "F(" + ",".join(str(c) for c in self.coords) + ")"


def canonicalize(coords: tuple[int, ...] | list[int], p: int, n: int = 3) -> WeightClass:
    """Canonical representative: shift all coordinates by the unique
    multiple of p - 1 placing the last one in [0, p-2]."""
    check_prime(p)
    if n not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {n}")
    coords = tuple(coords)
    if len(coords) != n:
        raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    w = canonical(coords, p, n)
    w.__init__(p, n, w.coords)  # the checks of a direct WeightClass(p, n, coords)
    return w


def canonical(coords: tuple[int, ...], p: int, n: int = 3) -> WeightClass:
    """`canonicalize` without checks: the trusted path, for p-restricted
    coordinates over a prime that a record or a factory has already checked."""
    shift = coords[-1] - coords[-1] % (p - 1)
    if shift:
        coords = tuple(c - shift for c in coords)
    return WeightClass.__new__(WeightClass, p, n, coords)


def weight(p: int, *coords: int) -> WeightClass:
    return canonicalize(tuple(coords), p, len(coords))


def dual(w: WeightClass) -> WeightClass:
    """Contragredient twisted back to a weight: reverse and negate."""
    return canonical(tuple(-c for c in reversed(w.coords)), w.p, w.n)


def alcove(w: WeightClass) -> str:
    """Position of a rank-3 weight relative to the restricted alcoves.

    Weights with x - z < p - 2 are in the closure of the lower alcove,
    x - z = p - 2 is the separating wall, and x - z > p - 2 with both
    differences strictly below p - 1 is the upper alcove.  Weights with
    a difference equal to p - 1 beyond the wall fit neither alcove and
    are rejected.
    """
    if w.n != 3:
        raise ValueError("alcove position is defined for rank 3 only")
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
    if w.n != 3:
        raise ValueError("genericity is defined for rank 3 only")
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
    if w.n == 1:
        return 1
    if w.n == 2:
        b, c = w.coords
        return b - c + 1
    x, y, z = w.coords
    if alcove(w) in (ALCOVE_LOWER, ALCOVE_WALL):
        return weyl_dim(x, y, z)
    return weyl_dim(x, y, z) - weyl_dim(z + w.p - 2, y, x - w.p + 2)


def shadow(w: WeightClass) -> WeightClass:
    """Lower-alcove partner of an upper-alcove weight.

    The reflection (x, y, z) -> (z + p - 2, y, x - p + 2) swaps the two
    alcoves and is an involution on classes.
    """
    if alcove(w) != ALCOVE_UPPER:
        raise ValueError(f"{w} is not in the upper alcove")
    x, y, z = w.coords
    return canonical((z + w.p - 2, y, x - w.p + 2), w.p)


def shadow_inverse(w: WeightClass) -> WeightClass:
    """Upper-alcove partner of a strictly lower-alcove weight."""
    if alcove(w) != ALCOVE_LOWER:
        raise ValueError(f"{w} is not strictly below the wall")
    x, y, z = w.coords
    return canonical((z + w.p - 2, y, x - w.p + 2), w.p)
