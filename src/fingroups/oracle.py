"""Brute-force cross-checks, deliberately independent of the constructions
they second-guess.

Nothing here reuses the certificate machinery: subgroups are enumerated by
saturating closures of growing generator sets.  The enumeration is
complete (any subgroup is reached by adjoining its generators one at a
time, and every intermediate closure is itself a subgroup) but
exponentialish, so it is capped by group order.
"""

from __future__ import annotations

from .carrier import ElemSet
from .errors import UnsupportedSpec
from .group import Group
from .numutil import is_prime, padic_val

# Beyond this order the lattice enumeration stops being a sane cross-check.
MAX_ORACLE_ORDER = 60


def _close(rows: list[memoryview], start: list[int]) -> int:
    """Indicator bits of the multiplicative closure of the start elements,
    by saturating pairwise products in both orders."""
    elems: list[int] = []
    bits = 0
    for e in start:
        if not (bits >> e) & 1:
            bits |= 1 << e
            elems.append(e)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(len(elems)):
            b = elems[j]
            for c in (rows[a][b], rows[b][a]):
                if not (bits >> c) & 1:
                    bits |= 1 << c
                    elems.append(c)
        i += 1
    return bits


def all_subgroups(g: Group, bound: int = MAX_ORACLE_ORDER) -> list[ElemSet]:
    """Every subgroup, found by breadth-first generator adjunction starting
    from the trivial subgroup.  Refuses groups larger than the bound."""
    if g.order > bound:
        raise UnsupportedSpec(
            f"subgroup lattice enumeration is capped at order {bound}, "
            f"got {g.order}"
        )
    rows = g.rows()
    trivial = 1 << g.unit
    found = {trivial}
    worklist = [trivial]
    while worklist:
        s = worklist.pop()
        members = [i for i in range(g.order) if (s >> i) & 1]
        for x in range(g.order):
            if (s >> x) & 1:
                continue
            t = _close(rows, members + [x])
            if t not in found:
                found.add(t)
                worklist.append(t)
    sets = [ElemSet(g.carrier, b) for b in found]
    return sorted(sets, key=lambda s: (s.card, s.indices()))


def sylow_family_bruteforce(g: Group, k: ElemSet, p: int) -> list[ElemSet]:
    """All subgroups of K of maximal p-power order, straight off the
    subgroup lattice."""
    if not is_prime(p):
        raise UnsupportedSpec(f"{p} is not prime")
    target = p ** padic_val(p, k.card)
    return [s for s in all_subgroups(g) if s.card == target and s.issubset(k)]
