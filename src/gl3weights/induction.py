"""Parabolic induction of Levi weights and the implied-weight tables.

The two maximal parabolics of GL_3 correspond to the antidominant
cocharacters (0,0,1) and (0,1,1): the first cuts a weight into a
GL_2 x GL_1 pair, the second into GL_1 x GL_2.  Inducing a generic
Levi weight to GL_3(F_p) yields three constituents in one block shape
and six in the other; the implied-weight tables record which of these
must be modular when a normalised Hecke operator acts invertibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import MEMO_SIZE
from .weights import WeightClass, canonicalize, dual

SHAPE_2_1 = "2+1"
SHAPE_1_2 = "1+2"


@dataclass(frozen=True)
class AntidominantCochar:
    """Cocharacter with non-decreasing 0/1 entries, e.g. (0, 0, 1)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (0, 1) for v in self.entries):
            raise ValueError("entries must be 0 or 1")
        if list(self.entries) != sorted(self.entries):
            raise ValueError("entries must be non-decreasing")
        if not 0 < sum(self.entries) < len(self.entries):
            raise ValueError("cocharacter must be proper and nontrivial")

    @property
    def level(self) -> int:
        """Number of unit entries; selects the Hecke operator T_j."""
        return sum(self.entries)


MU_ONE = AntidominantCochar((0, 0, 1))
MU_TWO = AntidominantCochar((0, 1, 1))


@dataclass(frozen=True)
class LeviWeight:
    """Weight of a maximal Levi of GL_3, blocks in canonical form."""

    shape: str
    blocks: tuple[WeightClass, WeightClass]

    def __post_init__(self) -> None:
        if self.shape not in (SHAPE_2_1, SHAPE_1_2):
            raise ValueError(f"unknown shape {self.shape!r}")
        ranks = tuple(b.n for b in self.blocks)
        want = (2, 1) if self.shape == SHAPE_2_1 else (1, 2)
        if ranks != want:
            raise ValueError(f"blocks of shape {self.shape} must have ranks {want}")
        if self.blocks[0].p != self.blocks[1].p:
            raise ValueError("blocks live over different characteristics")

    @property
    def p(self) -> int:
        return self.blocks[0].p


def levi_restriction(w: WeightClass, mu: AntidominantCochar) -> LeviWeight:
    """Split a rank-3 weight into the Levi blocks cut out by mu."""
    if w.n != 3:
        raise ValueError("Levi restriction is defined for rank 3 only")
    if len(mu.entries) != 3:
        raise ValueError("cocharacter rank must be 3")
    cut = 3 - mu.level
    left, right = w.coords[:cut], w.coords[cut:]
    blocks = (
        canonicalize(left, w.p, len(left)),
        canonicalize(right, w.p, len(right)),
    )
    shape = SHAPE_2_1 if cut == 2 else SHAPE_1_2
    return LeviWeight(shape, blocks)


def constituents_short(a: int, b: int, c: int, p: int) -> tuple[WeightClass, ...]:
    """The three constituents of the induction of F(a) x F(b, c).

    Requires a - b > 0, b - c > 0 and a - c < p - 1; the middle entry
    of the list is the upper-alcove constituent.
    """
    _check_generic_triple(a, b, c, p)
    return (
        canonicalize((b, c, a - p + 1), p),
        canonicalize((b + p - 1, a, c), p),
        canonicalize((a, b, c), p),
    )


def constituents_long(a: int, b: int, c: int, p: int) -> tuple[WeightClass, ...]:
    """The six constituents of the induction of F(a) x F(c, b - p + 1).

    Same hypotheses as the short list; the first and last entries are
    the upper-alcove constituents.
    """
    _check_generic_triple(a, b, c, p)
    return (
        canonicalize((c + p - 1, b, a - p + 1), p),
        canonicalize((c + p - 1, a, b), p),
        canonicalize((c + p - 2, a, b + 1), p),
        canonicalize((a - 1, b, c + 1), p),
        canonicalize((b - 1, c, a - p + 2), p),
        canonicalize((a, c, b - p + 1), p),
    )


def _check_generic_triple(a: int, b: int, c: int, p: int) -> None:
    if not (a - b > 0 and b - c > 0 and a - c < p - 1):
        raise ValueError(
            f"({a},{b},{c}) violates a-b > 0, b-c > 0, a-c < p-1 at p={p}"
        )


def induction_constituents(levi: LeviWeight) -> tuple[WeightClass, ...]:
    """Constituents of the parabolic induction of the Levi weight.

    For shape 1+2 the GL_1 exponent is lifted to the unique integer
    window matching one of the two list shapes; a boundary exponent
    (congruent to either GL_2 coordinate) admits neither and is
    rejected.  Shape 2+1 reduces to shape 1+2 through the outer duality
    of GL_3, which reverses blocks and dualises constituents.
    """
    p = levi.p
    if levi.shape == SHAPE_2_1:
        two, one = levi.blocks
        flipped = LeviWeight(
            SHAPE_1_2,
            (
                canonicalize((-one.coords[0],), p, 1),
                canonicalize((-two.coords[1], -two.coords[0]), p, 2),
            ),
        )
        return tuple(dual(v) for v in induction_constituents(flipped))
    one, two = levi.blocks
    alpha = one.coords[0]
    beta, gamma = two.coords
    if beta - gamma > 0:
        a = beta + 1 + (alpha - beta - 1) % (p - 1)
        if a < gamma + p - 1:
            return constituents_short(a, beta, gamma, p)
    if beta - gamma < p - 1:
        a = gamma + p + (alpha - gamma - p) % (p - 1)
        if a < beta + p - 1:
            return constituents_long(a, gamma + p - 1, beta, p)
    raise ValueError(
        f"induction of F({alpha}) x F({beta},{gamma}) at p={p} has no generic shape"
    )


@lru_cache(maxsize=MEMO_SIZE)
def implied_weights(w: WeightClass, j: int) -> frozenset[WeightClass]:
    """Weights forced to be modular when the level-j operator is not
    invertible at w.

    Defined for w strictly inside the closure of the lower alcove
    (x - y > 0, y - z > 0, x - z < p - 1) or strictly in the upper
    range (x - z > p - 1 with both differences below p - 1); the wall
    x - z = p - 1 is outside both tables.
    """
    if w.n != 3:
        raise ValueError("implied weights are defined for rank 3 only")
    if j not in (1, 2):
        raise ValueError(f"operator level must be 1 or 2, got {j}")
    p = w.p
    x, y, z = w.coords
    if x - y > 0 and y - z > 0 and x - z < p - 1:
        if j == 1:
            raw = ((z + p - 1, x, y), (x, z, y - p + 1))
        else:
            raw = ((y, z, x - p + 1), (y + p - 1, x, z))
    elif x - y < p - 1 and y - z < p - 1 and x - z > p - 1:
        if j == 1:
            raw = (
                (x, z + p - 1, y),
                (x - 1, z + p - 1, y + 1),
                (y - 1, x - p + 1, z + 1),
                (z + p - 2, y, x - p + 2),
                (z + 2 * p - 2, x, y),
            )
        else:
            raw = (
                (y, x - p + 1, z),
                (y - 1, x - p + 1, z + 1),
                (x - 1, z + p - 1, y + 1),
                (z + p - 2, y, x - p + 2),
                (y, z, x - 2 * p + 2),
            )
    else:
        raise ValueError(f"{w} lies outside both implied-weight ranges")
    return frozenset(canonicalize(t, p) for t in raw)
