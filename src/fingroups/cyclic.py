"""Element powers, cyclic subgroups, element order, and Euler's totient."""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

from .carrier import ElemSet
from .group import Group
from .numutil import is_prime
from .report import Check, Clock, tally
from .subgroup import closure


def power(g: Group, a: int, n: int) -> int:
    """a^n by iterated multiplication, a^0 being the unit.  The exponents
    used here never exceed the group order, so linear is fine."""
    g.carrier.check_point(a)
    if n < 0:
        raise ValueError("negative exponents are not needed; invert first")
    x = g.unit
    row = g.rows()[a]
    for _ in range(n):
        x = row[x]
    return x


def cyclic(g: Group, a: int) -> ElemSet:
    """The subgroup generated by a single element: closure(g, [a]) walks
    a's powers from the unit to the first repeat, bounded by the carrier."""
    return closure(g, [a])


def order(g: Group, a: int) -> int:
    """Multiplicative order of a, as the size of the cyclic subgroup it
    generates (not as a search for the first trivial power)."""
    return cyclic(g, a).card


def phi(n: int) -> int:
    """Euler's totient by literal count: the x in 0..n-1 coprime to n.
    phi(0) is 0 by convention, phi(1) is 1 since gcd(1, 0) == 1."""
    if n <= 0:
        return 0
    return sum(1 for x in range(n) if gcd(n, x) == 1)


def phi_theorem_checks(bound: int) -> list[Check]:
    """Multiplicativity on coprime pairs and the prime-power formula,
    exhaustively below the bound.  A failure's witness is the first pair
    [m, n] in lexicographic order, or [p, e - 1] for the first p^e.  Each
    check's ms is its own time; the shared phi table counts with the first."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    clock = Clock()
    table = np.array([phi(n) for n in range(bound + 1)])

    # the coprime pairs m <= n with m * n <= bound, row-major over (m, n)
    m, n = np.arange(1, isqrt(bound) + 1)[:, None], np.arange(1, bound + 1)
    m, n = (a + 1 for a in np.nonzero((m <= n) & (m * n <= bound) & (np.gcd(m, n) == 1)))
    checks = clock.stamp(tally("phi_multiplicative", table[m * n] == table[m] * table[n],
                               lambda i: [int(m[i]), int(n[i])]))

    # each prime power p^e <= bound, by p and then e = 2, 3, ... and 1 last
    p, e = np.array([(r, e) for r in filter(is_prime, range(2, bound + 1))
                     for e in [*range(2, bound.bit_length()), 1] if r ** e <= bound]).T
    q = p ** e
    return checks + clock.stamp(
        tally("phi_prime_power", table[q] == q - q // p, lambda i: [int(p[i]), int(e[i]) - 1]))
