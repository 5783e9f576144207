"""Subgroups as carrier subsets, cosets, and the counting form of Lagrange.

A subgroup is just an ElemSet that holds the unit and is closed under
the product: being finite, it holds a member's powers, its inverse among
them.  Cosets are sets too; the index of H in K is the number of
distinct minimum-index coset representatives found inside K.
It is never computed by dividing cardinalities, so lagrange_check remains
a falsifiable statement rather than a restatement of its own definition.
"""

from __future__ import annotations

import numpy as np

from .carrier import ElemSet, membership_grid, set_of
from .errors import CarrierMismatch, InvalidSubgroup
from .group import Group, conjugates, greedy_generators, reach
from .report import Check


def _require_same_carrier(g: Group, s: ElemSet) -> None:
    if s.carrier != g.carrier:
        raise CarrierMismatch("set does not live on the group's carrier")


def is_subgroup(g: Group, h: ElemSet) -> bool:
    """Unit membership plus closure under x * y for members x, y, which
    makes a finite set a subgroup.  A proof is recorded on the group, so a
    set is checked only once there; a refusal is not recorded."""
    _require_same_carrier(g, h)
    if h.bits in g._subgroup_bits:
        return True
    if g.unit not in h:
        return False
    m = h.as_array()
    if not h.mask()[g.mul[np.ix_(m, m)]].all():
        return False
    g._subgroup_bits.add(h.bits)
    return True


def subgroup_set(g: Group, members: ElemSet) -> ElemSet:
    """The set itself, once it is proven to be a subgroup of g."""
    if not is_subgroup(g, members):
        raise InvalidSubgroup(f"{members!r} is not a subgroup")
    return members


def closure(g: Group, gens) -> ElemSet:
    """Smallest multiplication-closed subset containing the generators and
    the unit: breadth-first expansion by left-multiplying with generators.
    The carrier is finite, so the loop is fuel-bounded by its size."""
    gens = [int(x) for x in gens]
    if not gens:
        raise ValueError("closure needs at least one generator")
    for x in gens:
        g.carrier.check_point(x)
    rows = g.rows()
    bits = reach([rows[x] for x in gens], 1 << g.unit, [g.unit])
    return ElemSet(g.carrier, bits)


def left_coset(g: Group, h: ElemSet, a: int) -> ElemSet:
    """aH, i.e. the x with a^-1 * x in H."""
    _require_same_carrier(g, h)
    g.carrier.check_point(a)
    row = g.rows()[a]
    return set_of(g.carrier, (row[x] for x in h))


def right_coset(g: Group, h: ElemSet, a: int) -> ElemSet:
    """Ha, i.e. the x with x * a^-1 in H."""
    _require_same_carrier(g, h)
    g.carrier.check_point(a)
    rows = g.rows()
    return set_of(g.carrier, (rows[x][a] for x in h))


def left_coset_roots(g: Group, h: ElemSet, domain: ElemSet) -> tuple[np.ndarray, np.ndarray]:
    """The ascending roots of the left cosets xH in the domain, and for each
    point the position of its coset's root among them, -1 outside the
    domain.  The root of xH is its least member, the least x*y over y in h.
    Requires h to be a subgroup and the domain a union of left cosets (as
    any subgroup containing h is); then every root lies in the domain and
    the gather is at most |G| by |G|, the size of the table."""
    d = domain.as_array()
    root_of = g.mul[d[:, None], h.as_array()].min(axis=1)
    roots = d[root_of == d]
    number = np.full(g.order, -1, dtype=np.int64)
    number[d] = np.searchsorted(roots, root_of)
    return roots, number


def require_nested_subgroups(g: Group, h: ElemSet, k: ElemSet) -> None:
    """Raise InvalidSubgroup unless h and k are subgroups with h inside k."""
    if not is_subgroup(g, h):
        raise InvalidSubgroup("h must be a subgroup")
    if not is_subgroup(g, k):
        raise InvalidSubgroup("k must be a subgroup")
    if not h.issubset(k):
        raise InvalidSubgroup("h must be contained in k")


def left_index(g: Group, h: ElemSet, k: ElemSet) -> int:
    """Number of distinct left cosets of h meeting k, counted as the points
    of k that are the minimum-index representative of their own coset."""
    require_nested_subgroups(g, h, k)
    d = k.as_array()
    return int(np.count_nonzero(g.mul[d[:, None], h.as_array()].min(axis=1) == d))


def right_index(g: Group, h: ElemSet, k: ElemSet) -> int:
    """Right-coset count, computed independently of left_index: each point
    of k not yet marked starts a coset Hx, whose members are then marked."""
    require_nested_subgroups(g, h, k)
    rows = g.rows()
    seen = bytearray(g.order)
    count = 0
    for x in k:
        if not seen[x]:
            for y in h:
                seen[rows[y][x]] = 1
            count += 1
    return count


def lagrange_check(g: Group, h: ElemSet, k: ElemSet) -> list[Check]:
    """card(H) * [K : H] == card(K), with the divisibility corollary."""
    idx = left_index(g, h, k)
    checks = [
        Check("lagrange", h.card * idx == k.card, h.card * idx, k.card,
              {"subgroup_order": h.card, "index": idx}),
        Check("lagrange_divides", k.card % h.card == 0, k.card % h.card, 0),
    ]
    return checks


def set_product(g: Group, h: ElemSet, k: ElemSet) -> ElemSet:
    """HK = {x * y : x in H, y in K} for arbitrary sets."""
    _require_same_carrier(g, h)
    _require_same_carrier(g, k)
    prods = g.mul[np.ix_(h.as_array(), k.as_array())]
    return set_of(g.carrier, np.unique(prods).tolist())


def product_subgroup_checks(g: Group, h: ElemSet, k: ElemSet) -> list[Check]:
    """For subgroups H and K: HK is a subgroup exactly when HK == KH, and
    HK and KH are subgroups together."""
    if not is_subgroup(g, h) or not is_subgroup(g, k):
        raise InvalidSubgroup("set_product criterion needs two subgroups")
    hk = set_product(g, h, k)
    kh = set_product(g, k, h)
    hk_sub = is_subgroup(g, hk)
    kh_sub = is_subgroup(g, kh)
    return [
        Check("product_subgroup_iff_commutes", hk_sub == (hk == kh),
              int(hk_sub), int(hk == kh)),
        Check("product_subgroup_symmetric", hk_sub == kh_sub,
              int(hk_sub), int(kh_sub)),
    ]


def subgroup_sample(g: Group) -> list[ElemSet]:
    """Deduplicated closures of every singleton and every unordered pair,
    plus the full group; ascending by (cardinality, membership).  Since
    <x, y> = <<x>, <y>>, a pair is closed only through the smallest
    generator of each of two distinct cyclic subgroups, and not at all when
    one of them contains the other (its closure is then already in).

    Conjugation then spares most of those closures.  For every s in G,
    s<A, B>s^-1 = <sAs^-1, sBs^-1>, and sAs^-1 contains sBs^-1 exactly when
    A contains B; so G permutes the pairs of incomparable cyclic subgroups,
    and the closures of one orbit of pairs are one conjugacy class of
    subgroups.  So one pair per orbit, the least, is closed, and the whole
    class of its closure is added unless the closure is already in.  The
    sample is a union of classes at every step, as the cyclic subgroups
    are, so a closure already in has its class in too.  Orbits are found
    by propagating the least pair of each orbit along the permutations
    that greedily picked generators of G induce on the cyclic subgroups,
    and a class by conjugating with the same generators; those in the
    centre act trivially and are left out."""
    seen: dict[int, ElemSet] = {}
    index: dict[int, int] = {}  # bits of each cyclic subgroup -> its position
    gen: list[int] = []  # the smallest generator of each cyclic subgroup
    cyc_of = np.empty(g.order, dtype=np.int64)  # x -> the position of <x>
    for x in range(g.order):
        c = closure(g, [x])
        if c.bits not in index:
            index[c.bits] = len(gen)
            seen[c.bits] = c
            gen.append(x)
        cyc_of[x] = index[c.bits]
    m = len(gen)
    member = membership_grid(index, g.order)
    inside = member[:, gen].T  # inside[i, j]: cyclic subgroup i lies in j
    idx = np.arange(m)
    upper = idx[:, None] < idx
    pairs = upper & ~inside & ~inside.T
    if pairs.any():
        s = list(greedy_generators(g.mul, g.unit, (1 << g.order) - 1))
        conj = conjugates(g, s, np.arange(g.order))  # conj[t, y] = s_t * y * s_t^-1
        conj = conj[(conj != np.arange(g.order)).any(axis=1)]
        p = cyc_of[conj[:, gen]]  # each generator's map on the cyclic subgroups
        p = np.concatenate([p, np.argsort(p, axis=1)])  # and its inverse's
        # pair (i, j) at row i, column j; its key is that of (min, max)
        key = np.where(upper, idx[:, None] * m + idx, idx * m + idx[:, None])
        label = key
        while True:
            new = label
            for q in p:
                new = np.minimum(new, new[q[:, None], q])
            if not (new < label).any():
                break
            label = new
        rows = conj.tolist()
        least = np.nonzero(pairs & (label == key))  # row-major: ascending pairs
        for i, j in zip(*(a.tolist() for a in least)):
            c = closure(g, [gen[i], gen[j]])
            if c.bits in seen:
                continue
            seen[c.bits] = c
            todo = [list(c)]  # the class of c, by conjugating with generators
            while todo:
                ys = todo.pop()
                for row in rows:
                    zs = [row[y] for y in ys]
                    bits = sum(1 << z for z in zs)
                    if bits not in seen:
                        seen[bits] = ElemSet(g.carrier, bits)
                        todo.append(zs)
    full = g.full_set()
    seen.setdefault(full.bits, full)
    return sorted(seen.values(), key=lambda s: (s.card, s.indices()))
