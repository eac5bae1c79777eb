"""Exponent arithmetic for tame characters of niveau d.

A tame character of niveau d is determined by an exponent modulo
p^d - 1; the Frobenius acts on exponents by multiplication by p.  A
niveau-1 exponent v embeds at niveau 3 as v*(p^2+p+1), the norm-compatible
scaling (p^3 - 1)/(p - 1); so adding a multiple of p^2+p+1 to an exponent
is a niveau-1 twist.  Everything here is plain modular arithmetic over
Python ints, so all results are exact.

Exponent tables affine in three coordinates are kept as digit rows: each
row is a power of p times x + p*y + p^2*z or x + p^2*y + p*z plus a
constant, which `digit_rows` derives once per prime; `row_reps` reduces a
table's values at a point to their Frobenius orbits' least members, and
`row_mask` finds the rows valued in one orbit by six dict probes at one
point, reducing none (`row_masks` maps it over a batch), over per-prime
constants read flat from one tuple (`mask_probe`) that its caller builds
once per prime.  An orbit set is a sorted tuple of distinct
representatives: `row_reps` sorted and deduplicated.
"""

from __future__ import annotations

from _collections import _tuplegetter
from functools import lru_cache

SUPPORTED_NIVEAUX = (1, 2, 3)
# exclusive upper bound on the characteristic p
P_LIMIT = 2**16
# entry bound of is_prime and the per-prime memos (cycling's _frame has its
# own 512).  A benchmark pass fills each per-prime memo with at most 2 entries,
# and _frame with 195
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

    There are two stores, both here.  `Record.__new__` checks the field
    count and stores the fields; `__init__` holds only the checks, so
    `Cls(...)` counts, stores, then checks.  `Cls._make(values)` is the C
    store `tuple.__new__` itself, with no count and no check: the trusted
    path, for values the caller already holds checked."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)

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
    return ExpClass._make((p, d, value % (p**d - 1)))


def orbit(c: ExpClass) -> FrobOrbit:
    e = c.modulus
    members = [c.value]
    cur = c.value * c.p % e
    while cur != c.value:
        members.append(cur)
        cur = cur * c.p % e
    return FrobOrbit._make((c.p, c.d, min(members), len(members)))


def orbit_of(p: int, d: int, value: int) -> FrobOrbit:
    return orbit(exp_class(p, d, value))


def digit_rows(p: int, values_at) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(rows, scales) of a table affine in three coordinates, values_at((x, y, z)),
    fixed by the origin and the unit vectors.  A row must be p^j times form
    0, x + p*y + p^2*z, or form 1, x + p^2*y + p*z, plus k0 mod p^3 - 1 (else
    ValueError); times scale p^-j it is (form, k, p*k, p^2*k), k = p^-j*k0."""
    e = p**3 - 1
    at = [values_at(v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    out = []
    for n0, nx, ny, nz in zip(*at):
        # scale 0, where no power of p fits, matches no form
        scale = next((q for q in (1, p, p * p) if (nx - n0) * q % e == 1), 0)
        form = ((p, p * p), (p * p, p)).index(((ny - n0) * scale % e, (nz - n0) * scale % e))
        k = n0 * scale % e
        out.append(((form, k, k * p % e, k * p * p % e), scale))
    return tuple(zip(*out))


def row_reps(p: int, rows, x: int, y: int, z: int) -> list[int]:
    """Least member of the Frobenius orbit, modulo p^3 - 1, of each digit
    row's value at the point (x, y, z), in row order: the orbit of form value
    f plus k0 on the row (form, k0, k1, k2) is f + k0, p*f + k1, p^2*f + k2.

    Each equals orbit_of(p, 3, value).rep without building the class and
    orbit objects.  p is not validated: callers take it from an object
    whose construction already checked it.
    """
    e, pp = p**3 - 1, p * p
    f, g = (x + p * y + pp * z) % e, (x + pp * y + p * z) % e
    forms = ((f, f * p % e, f * pp % e), (g, g * p % e, g * pp % e))
    reps = []
    add = reps.append
    for form, k0, k1, k2 in rows:
        f0, f1, f2 = forms[form]
        v0, v1, v2 = (f0 + k0) % e, (f1 + k1) % e, (f2 + k2) % e
        # the least of the three, without the cost of a min() call
        add(v0 if v0 < v1 and v0 < v2 else v1 if v1 < v2 else v2)
    return reps


def mask_probe(p: int, masks) -> tuple:
    """The per-prime constants `row_mask` reads: p, p^2, p^3 - 1 and the
    bound `get` of each form's dict of masks."""
    return p, p * p, p**3 - 1, masks[0].get, masks[1].get


def row_mask(probe, rep: int, x: int, y: int, z: int) -> int:
    """The OR of the bits of the digit rows valued at the point (x, y, z) in
    the Frobenius orbit {rep, p*rep, p^2*rep} of a least member rep.  probe
    is `mask_probe(p, masks)`, where masks maps per form a row's k0 to its
    bits; a row of form f hits when k0 is one of the offsets o - f, reduced
    mod p^3 - 1 (so p*rep and p^2*rep need no reduction of their own), and
    six probes answer for any table, reducing no row."""
    p, pp, e, at_f, at_g = probe
    o1, o2 = rep * p, rep * pp
    f, g = x + p * y + pp * z, x + pp * y + p * z
    return (at_f((rep - f) % e, 0) | at_f((o1 - f) % e, 0) | at_f((o2 - f) % e, 0)
            | at_g((rep - g) % e, 0) | at_g((o1 - g) % e, 0) | at_g((o2 - g) % e, 0))


def row_masks(p: int, masks, points, rep: int) -> list[int]:
    """`row_mask` at each point (x, y, z) of points, in order."""
    probe = mask_probe(p, masks)
    return [row_mask(probe, rep, x, y, z) for x, y, z in points]


def orbit_rep(p: int, value: int) -> int:
    """Least member of the Frobenius orbit of value modulo p^3 - 1."""
    (rep,) = row_reps(p, ((0, 0, 0, 0),), value, 0, 0)
    return rep


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
