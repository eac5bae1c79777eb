"""Parabolic induction of Levi weights and the implied weights.

The two maximal parabolics of GL_3 correspond to the antidominant
cocharacters (0,0,1) and (0,1,1): the first cuts a weight into a
GL_2 x GL_1 pair, the second into GL_1 x GL_2.  Inducing a generic
Levi weight to GL_3(F_p) yields three constituents in one block shape
and six in the other.  When a normalised Hecke operator fails to act
invertibly at a modular weight, the other constituents of the
induction of its Levi restriction are forced: the implied weights.
"""

from __future__ import annotations

from .arith import Record, check_prime
from .weights import WeightClass, canonical, canonicalize

class AntidominantCochar(Record):
    """Cocharacter with non-decreasing 0/1 entries, e.g. (0, 0, 1)."""

    __slots__ = ()
    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        if any(v not in (0, 1) for v in entries):
            raise ValueError("entries must be 0 or 1")
        if list(entries) != sorted(entries):
            raise ValueError("entries must be non-decreasing")
        if not 0 < sum(entries) < len(entries):
            raise ValueError("cocharacter must be proper and nontrivial")

    @property
    def level(self) -> int:
        """Number of unit entries; selects the Hecke operator T_j."""
        return sum(self.entries)


def _short(a: int, b: int, c: int, p: int) -> tuple[tuple[int, int, int], ...]:
    return ((b, c, a - p + 1), (b + p - 1, a, c), (a, b, c))


def _long(a: int, b: int, c: int, p: int) -> tuple[tuple[int, int, int], ...]:
    return (
        (c + p - 1, b, a - p + 1),
        (c + p - 1, a, b),
        (c + p - 2, a, b + 1),
        (a - 1, b, c + 1),
        (b - 1, c, a - p + 2),
        (a, c, b - p + 1),
    )


def constituents_short(a: int, b: int, c: int, p: int) -> tuple[WeightClass, ...]:
    """The three constituents of the induction of F(a) x F(b, c).

    Requires a - b > 0, b - c > 0 and a - c < p - 1; the middle entry
    of the list is the upper-alcove constituent.
    """
    _check_generic_triple(a, b, c, p)
    return tuple(canonicalize(v, p) for v in _short(a, b, c, p))


def constituents_long(a: int, b: int, c: int, p: int) -> tuple[WeightClass, ...]:
    """The six constituents of the induction of F(a) x F(c, b - p + 1).

    Same hypotheses as the short list; the first and last entries are
    the upper-alcove constituents.
    """
    _check_generic_triple(a, b, c, p)
    return tuple(canonicalize(v, p) for v in _long(a, b, c, p))


def _check_generic_triple(a: int, b: int, c: int, p: int) -> None:
    check_prime(p)
    if not (a - b > 0 and b - c > 0 and a - c < p - 1):
        raise ValueError(
            f"({a},{b},{c}) violates a-b > 0, b-c > 0, a-c < p-1 at p={p}"
        )


def _induced(coords: tuple[int, ...], p: int) -> tuple[tuple[int, int, int], ...]:
    """Coordinate triples of the constituents of inducing the GL_1 x GL_2
    Levi weight F(x) x F(y, z), coords = (x, y, z).

    The GL_1 exponent is lifted to the unique integer window matching one
    of the two list shapes; a boundary exponent (congruent to either GL_2
    coordinate) admits neither and is rejected.  Only the classes of the
    blocks matter, and the last triple is always coords up to a shift of
    all three by a multiple of p - 1.  The GL_2 x GL_1 induction is its
    image under the outer duality of GL_3; `implied_coords` reads it so.
    """
    x, y, z = coords
    if y - z > 0:
        a = y + 1 + (x - y - 1) % (p - 1)
        if a < z + p - 1:
            return _short(a, y, z, p)
    if y - z < p - 1:
        a = z + p + (x - z - p) % (p - 1)
        if a < y + p - 1:
            return _long(a, z + p - 1, y, p)
    raise ValueError(
        f"induction of F({x}) x F({y},{z}) at p={p} has no generic shape"
    )


def implied_weights(w: WeightClass, j: int) -> frozenset[WeightClass]:
    """Weights forced to be modular when the level-j operator is not
    invertible at w: the constituents of the induction of the Levi
    restriction of w along the cocharacter (0,0,1) for j = 1, or
    (0,1,1) for j = 2, other than w itself, which is the last
    constituent.

    Defined for w strictly inside the closure of the lower alcove
    (x - y > 0, y - z > 0, x - z < p - 1) or strictly in the upper
    range (x - z > p - 1 with both differences below p - 1); the wall
    x - z = p - 1 is outside both ranges.
    """
    if j not in (1, 2):
        raise ValueError(f"operator level must be 1 or 2, got {j}")
    p = w.p
    x, y, z = w.coords
    if not (x - y > 0 and y - z > 0 and x - z < p - 1
            or x - y < p - 1 and y - z < p - 1 and x - z > p - 1):
        raise ValueError(f"{w} lies outside both implied-weight ranges")
    return frozenset(canonical(v, p) for v in implied_coords(p, w.coords, j))


def implied_coords(p: int, coords: tuple, j: int) -> tuple[tuple[int, int, int], ...]:
    """The canonical coordinates of `implied_weights`, distinct and sorted,
    for a weight and level that its checks pass."""
    m = p - 1
    out = []
    if j == 1:  # the 2+1 constituents: (-w, -v, -u) for the 1+2 ones (u, v, w) of the dual
        x, y, z = coords
        for u, v, w in _induced((-z, -y, -x), p)[:-1]:
            c = -u % m
            t = (u - w + c, u - v + c, c)
            if t not in out:
                out.append(t)
    else:
        for x, y, z in _induced(coords, p)[:-1]:
            c = z % m
            t = (x - z + c, y - z + c, c)
            if t not in out:
                out.append(t)
    out.sort()
    return tuple(out)
