"""Tiny number-theory helpers used across modules."""

from __future__ import annotations

from .errors import BadArg, BadBase


def is_prime(n: int) -> bool:
    """Trial-division primality test. Group orders here are small, so this
    is deliberately the dumbest correct thing."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power_base(n: int) -> int | None:
    """The prime p with n a power of p, if there is one (None for n = 1)."""
    ps = prime_divisors(n)
    return ps[0] if len(ps) == 1 else None


def padic_val(p: int, u: int) -> int:
    """Largest e with p^e dividing u, by repeated division."""
    if p < 2:
        raise BadBase(f"base must be at least 2, got {p}")
    if u < 1:
        raise BadArg(f"argument must be at least 1, got {u}")
    e = 0
    while u % p == 0:
        u //= p
        e += 1
    return e
