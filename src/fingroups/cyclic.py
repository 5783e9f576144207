"""Element powers, cyclic subgroups, element order, and Euler's totient."""

from __future__ import annotations

from math import gcd

from .carrier import ElemSet
from .group import Group
from .numutil import is_prime
from .report import Check


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
    """The subgroup generated by a single element: iterate multiplication
    by a starting from the unit, stopping at the first repeat.  The fuel
    bound is the carrier size, so this terminates even on garbage."""
    g.carrier.check_point(a)
    row = g.rows()[a]
    bits = 0
    x = g.unit
    for _ in range(g.order):
        if (bits >> x) & 1:
            break
        bits |= 1 << x
        x = row[x]
    return ElemSet(g.carrier, bits)


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
    exhaustively below the bound."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    table = [phi(n) for n in range(bound + 1)]

    mult_total = mult_good = 0
    mult_witness = None
    for m in range(1, bound + 1):
        for n in range(m, bound // m + 1):
            if m * n > bound or gcd(m, n) != 1:
                continue
            mult_total += 1
            if table[m * n] == table[m] * table[n]:
                mult_good += 1
            elif mult_witness is None:
                mult_witness = [m, n]

    pp_total = pp_good = 0
    pp_witness = None
    p = 2
    while p <= bound:
        if is_prime(p):
            q = p * p
            k = 0
            while q <= bound:
                pp_total += 1
                if table[q] == q - q // p:
                    pp_good += 1
                elif pp_witness is None:
                    pp_witness = [p, k + 1]
                q *= p
                k += 1
            # p itself: phi(p) == p - 1
            pp_total += 1
            if table[p] == p - 1:
                pp_good += 1
            elif pp_witness is None:
                pp_witness = [p, 0]
        p += 1

    return [
        Check("phi_multiplicative", mult_good == mult_total, mult_good, mult_total,
              mult_witness),
        Check("phi_prime_power", pp_good == pp_total, pp_good, pp_total, pp_witness),
    ]
