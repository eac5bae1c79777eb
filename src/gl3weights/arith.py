"""Exponent arithmetic for tame characters of niveau d.

A tame character of niveau d is determined by an exponent modulo
p^d - 1; the Frobenius acts on exponents by multiplication by p, and
characters of a smaller niveau embed via the norm-compatible scaling
(p^D - 1)/(p^d - 1).  Everything here is plain modular arithmetic over
Python ints, so all results are exact.
"""

from __future__ import annotations

from _collections import _tuplegetter
from functools import lru_cache

SUPPORTED_NIVEAUX = (1, 2, 3)
# exclusive upper bound on the characteristic p
P_LIMIT = 2**16
# entry bound of the package's memos; a benchmark pass fills the largest to about 5k
MEMO_SIZE = 2**15

DIVISIBLE = "divisible"
CASE_I = "I"
CASE_II = "II"


# memoized: every public factory and every checked record construction calls check_prime
@lru_cache(maxsize=MEMO_SIZE)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Reject characteristics outside the supported range: primes 5 <= p < P_LIMIT.

    The bound is checked first, so a huge p is refused without trial
    division (which takes O(sqrt(p)) steps).
    """
    if p >= P_LIMIT:
        raise ValueError(f"characteristic must be a prime below {P_LIMIT}, got {p}")
    if p < 5 or not is_prime(p):
        raise ValueError(f"characteristic must be a prime >= 5, got {p}")


def check_niveau(d: int) -> None:
    """Reject niveaux outside SUPPORTED_NIVEAUX, before any work modulo p^d - 1."""
    if d not in SUPPORTED_NIVEAUX:
        raise ValueError(f"niveau must be one of {SUPPORTED_NIVEAUX}, got {d}")


class Record(tuple):
    """Immutable value record: a tuple of its fields, named by `_fields`,
    each read through a C getter as a namedtuple's is.  It equals only a
    record of its own class with equal fields, hashes as the tuple of its
    fields, pickles as a call of its class and prints as a dataclass does.

    `Record.__new__` checks only the field count and stores the fields, so
    `Cls.__new__(Cls, ...)` is the trusted path; `__init__` holds only the
    checks, so `Cls(...)` stores, then checks."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        for i, f in enumerate(cls._fields):
            setattr(cls, f, _tuplegetter(i, None))
        cls._message = f"{cls.__name__} takes the fields {', '.join(cls._fields)}"

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(cls._message)
        return tuple.__new__(cls, values)

    # False, not NotImplemented: a plain tuple must not equal a record
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


class ExpClass(Record):
    """Exponent class of a tame character: a residue modulo p^d - 1."""

    __slots__ = ()
    _fields = ("p", "d", "value")

    def __init__(self, p: int, d: int, value: int) -> None:
        check_prime(p)
        check_niveau(d)
        if not 0 <= value < p**d - 1:
            raise ValueError(f"exponent {value} out of range for modulus {p**d - 1}")

    @property
    def modulus(self) -> int:
        return self.p**self.d - 1


class FrobOrbit(Record):
    """Orbit of an exponent class under multiplication by p.

    The representative is the least member; the orbit size divides d.
    """

    __slots__ = ()
    _fields = ("p", "d", "rep", "size")

    def elements(self) -> tuple[int, ...]:
        e = self.p**self.d - 1
        out = [self.rep]
        cur = self.rep
        for _ in range(self.size - 1):
            cur = cur * self.p % e
            out.append(cur)
        return tuple(out)


def exp_class(p: int, d: int, value: int) -> ExpClass:
    """Build an ExpClass, reducing the exponent modulo p^d - 1."""
    check_prime(p)
    check_niveau(d)
    return ExpClass.__new__(ExpClass, p, d, value % (p**d - 1))


def orbit(c: ExpClass) -> FrobOrbit:
    e = c.modulus
    members = [c.value]
    cur = c.value * c.p % e
    while cur != c.value:
        members.append(cur)
        cur = cur * c.p % e
    return FrobOrbit(c.p, c.d, min(members), len(members))


def orbit_of(p: int, d: int, value: int) -> FrobOrbit:
    return orbit(exp_class(p, d, value))


def orbit_reps(p: int, values) -> frozenset[int]:
    """Least members of the Frobenius orbits of values modulo p^3 - 1.

    Each equals type_from_exponent(p, value).chars[0].rep without building
    the class, orbit and type objects.  p is not validated: callers
    take it from an object whose construction already checked it.
    """
    e = p**3 - 1
    reps = set()
    for value in values:
        v = value % e
        v1 = v * p % e
        v2 = v1 * p % e
        # the least of the three, without the cost of a min() call
        reps.add(v if v < v1 and v < v2 else v1 if v1 < v2 else v2)
    # copied from a set, not built from a generator, the table fits its members
    return frozenset(reps)


def orbit_rep(p: int, value: int) -> int:
    """Least member of the Frobenius orbit of value modulo p^3 - 1."""
    (rep,) = orbit_reps(p, (value,))
    return rep


def niveau_of(c: ExpClass) -> int:
    """Least k with value * p^k = value mod p^d - 1, i.e. the orbit size."""
    return orbit(c).size


def embed_niveau(c: ExpClass, target_d: int) -> ExpClass:
    """Embed a niveau-1 exponent class into a larger niveau.

    The fundamental character of niveau 1 equals the (p^D-1)/(p-1) power
    of the niveau-D one, so exponents scale by that factor.
    """
    if c.d != 1:
        raise ValueError(f"embedding is defined for niveau-1 classes, got d={c.d}")
    if target_d not in SUPPORTED_NIVEAUX or target_d < c.d:
        raise ValueError(f"cannot embed niveau {c.d} into niveau {target_d}")
    scale = (c.p**target_d - 1) // (c.p - 1)
    return exp_class(c.p, target_d, c.value * scale)


class Decomposition(Record):
    """Result of the three-digit split of an exponent.

    kind is "divisible" when p^2+p+1 divides n (coords are None), and
    otherwise "I" for n = x + p*y + p^2*z with x > y >= z, x - z <= p,
    or "II" for n = p^2*x + p*y + z with x >= y > z, x - z <= p.
    """

    __slots__ = ()
    _fields = ("kind", "x", "y", "z")

    @property
    def coords(self) -> tuple[int, int, int]:
        if self.kind == DIVISIBLE:
            raise ValueError("divisible split carries no coordinates")
        assert self.x is not None and self.y is not None and self.z is not None
        return (self.x, self.y, self.z)

    def value(self, p: int) -> int:
        """Reassemble the integer the split came from."""
        if self.kind == DIVISIBLE:
            raise ValueError("divisible split carries no coordinates")
        x, y, z = self.coords
        if self.kind == CASE_I:
            return x + p * y + p * p * z
        return p * p * x + p * y + z


def decompose_exponent(n: int, p: int) -> Decomposition:
    """Split n in the unique admissible three-digit form.

    Unless p^2+p+1 divides n, exactly one of the two shapes applies:
    either n = x + p*y + p^2*z with x > y >= z and x - z <= p, or
    n = p^2*x + p*y + z with x >= y > z and x - z <= p, and in each
    shape the coordinates are unique.  Adding p^2+p+1 to n shifts all
    three coordinates by 1, so it suffices to split the residue of n
    and then translate.
    """
    check_prime(p)
    c = p * p + p + 1
    m = n % c
    q = (n - m) // c
    if m == 0:
        return Decomposition(DIVISIBLE, None, None, None)
    # 1 <= m <= c - 1; write m - 1 in base p + 1
    alpha, beta = divmod(m - 1, p + 1)
    if alpha + beta <= p - 1:
        x, y, z = alpha + beta + 1, alpha, 0
        kind = CASE_I
    else:
        x, y, z = 1, alpha + 2 - p, alpha + beta + 1 - 2 * p
        kind = CASE_II
    return Decomposition(kind, x + q, y + q, z + q)


def solve_digit_pair(p: int, slope: int, r: int) -> tuple[int, int]:
    """The digits (g1, g2) in [0, p] solving g1 + slope*g2 = r modulo p^2+p+1.

    slope is p+1, giving the base-(p+1) split of r, or -p: as -p(p+1) = 1
    modulo p^2+p+1, that is the split of (p+1)*r with the digits swapped.
    The split is injective on [0, p-3]^2, where it stays below
    (p+2)(p-3) < p^2+p+1, so every solution in that box is this one.
    """
    c = p * p + p + 1
    if (slope - p - 1) % c == 0:
        g2, g1 = divmod(r % c, p + 1)
    elif (slope + p) % c == 0:
        g1, g2 = divmod((p + 1) * r % c, p + 1)
    else:
        raise ValueError(f"slope must be p+1 or -p modulo {c}, got {slope}")
    return g1, g2
