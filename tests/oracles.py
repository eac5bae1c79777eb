"""Brute-force reference implementations used to pin down closed forms.

Everything here is deliberately naive: exhaustive searches over the full
shape space, with no arithmetic shortcuts, so the fast library code has
an independent witness to agree with.
"""

from __future__ import annotations


def split_solutions(n: int, p: int) -> list[tuple[str, int, int, int]]:
    """All (case, x, y, z) solving the three-digit split of n, by search.

    Case I demands n = x + p y + p^2 z with x > y >= z and x - z <= p;
    case II demands n = p^2 x + p y + z with x >= y > z and x - z <= p.
    The search range covers every triple that could conceivably hit a
    value in [0, p^3 - 1) given those inequalities.
    """
    found = []
    lo, hi = -(p + 2), p * p + p + 2
    for z in range(lo, hi):
        for y in range(z, hi):
            for x in range(y, x_upper(y, z, p)):
                if x > y >= z and x - z <= p and x + p * y + p * p * z == n:
                    found.append(("I", x, y, z))
                if x >= y > z and x - z <= p and p * p * x + p * y + z == n:
                    found.append(("II", x, y, z))
    return found


def x_upper(y: int, z: int, p: int) -> int:
    # x ranges over [y, z + p] inclusive; +1 for range()
    return z + p + 1


def orbit_elements(p: int, d: int, value: int) -> set[int]:
    e = p**d - 1
    out = set()
    v = value % e
    while v not in out:
        out.add(v)
        v = v * p % e
    return out


def least_orbit_member(p: int, d: int, value: int) -> int:
    """Frobenius orbit representative by walking the whole orbit."""
    return min(orbit_elements(p, d, value))


def weyl_dimension(x: int, y: int, z: int) -> int:
    return (x - y + 1) * (y - z + 1) * (x - z + 2) // 2
