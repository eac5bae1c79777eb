"""Three-dimensional tame inertial types and their exponent calculus.

A tame type here is a sum of Frobenius orbits of exponent classes
modulo p^3 - 1 whose sizes add up to 3: either a single orbit of size
3 (an irreducible niveau-3 type) or three niveau-1 classes embedded at
niveau 3.  Types built from an order-3 permutation xi and a coordinate
triple mu collect the orbit of the exponent sum_i mu_{xi^i(1)} p^i.
"""

from __future__ import annotations

from .arith import FrobOrbit, Record, check_prime, exp_class, orbit

XI_123 = "123"  # cycle sending 1 -> 2 -> 3 -> 1
XI_132 = "132"  # cycle sending 1 -> 3 -> 2 -> 1
ORDER_THREE_CYCLES = (XI_123, XI_132)


class TameType(Record):
    """Multiset of Frobenius orbits at niveau 3 with total size 3."""

    __slots__ = ()
    _fields = ("p", "chars")

    def __init__(self, p: int, chars: tuple[FrobOrbit, ...]) -> None:
        check_prime(p)
        if sum(o.size for o in chars) != 3:
            raise ValueError("orbit sizes must add up to 3")
        for o in chars:
            if o.p != p or o.d != 3:
                raise ValueError("all orbits must live at niveau 3 over the same p")
        if tuple(sorted(chars, key=lambda o: o.rep)) != chars:
            raise ValueError("orbits must be listed sorted by representative")

    @property
    def niveau(self) -> int:
        return max(o.size for o in self.chars)

    def is_irreducible(self) -> bool:
        return len(self.chars) == 1

    def orbit_rep(self) -> int:
        """The least exponent of an irreducible type's orbit.  Every layer reads
        a type through it, so it is the one refusal of a reducible type (tested
        inline, not by a call: `eliminate` reads it once per weight)."""
        if len(self.chars) != 1:
            raise ValueError(f"type {self} is not an irreducible niveau-3 type")
        return self.chars[0].rep

    def __str__(self) -> str:
        return "+".join(f"[{o.rep}]" for o in self.chars)


def type_from_exponent(p: int, value: int) -> TameType:
    """Type psi + psi^p + psi^(p^2) for the character with this exponent."""
    o = orbit(exp_class(p, 3, value))
    # degenerate: psi has niveau 1, the sum is three copies
    return TameType.__new__(TameType, p, (o,) if o.size == 3 else (o, o, o))


def tau_exponent(xi: str, mu: tuple[int, int, int], p: int) -> int:
    """Niveau-3 exponent attached to (xi, mu): mu_{xi^0(1)} + p mu_{xi(1)} + p^2 mu_{xi^2(1)}."""
    check_prime(p)
    m1, m2, m3 = mu
    if xi == XI_123:
        raw = m1 + p * m2 + p * p * m3
    elif xi == XI_132:
        raw = m1 + p * m3 + p * p * m2
    else:
        raise ValueError(f"xi must be one of {ORDER_THREE_CYCLES}, got {xi!r}")
    return raw % (p**3 - 1)


def tau(xi: str, mu: tuple[int, int, int], p: int) -> TameType:
    return type_from_exponent(p, tau_exponent(xi, mu, p))


def iso(t1: TameType, t2: TameType) -> bool:
    if t1.p != t2.p:
        raise ValueError("types live over different characteristics")
    return tuple(o.rep for o in t1.chars) == tuple(o.rep for o in t2.chars)


def dual_twist(t: TameType, cyclotomic_power: int) -> TameType:
    """Dual type twisted by the given power of the cyclotomic character.

    On exponents this negates and then adds cyclotomic_power*(1+p+p^2);
    for niveau-1 summands the same shift realises a niveau-1 twist.
    """
    shift = cyclotomic_power * (t.p * t.p + t.p + 1)
    orbits = [orbit(exp_class(t.p, 3, shift - o.rep)) for o in t.chars]
    return TameType.__new__(TameType, t.p, tuple(sorted(orbits, key=lambda o: o.rep)))
