"""Conjugation, normality, normalizers, and quotient groups.

One convention: conjugating y by x gives x * y * x^-1, and every
conjugate is read off group.conjugates, one grid per call.  So
conjugate_set(g, h, x) is x H x^-1.  Normality and the normalizer read one
(|K|, |H|) grid, which says for each x in K whether x^-1 H x lies inside H:
H is normal in K when every x passes, and the normalizer is the x that
pass.  Containment is enough, since conjugation preserves cardinality.

Quotients are concrete groups: the carrier re-indexes the minimum-index
coset representatives, multiplication is multiply-then-take-root, and the
whole table goes back through the group validator rather than being
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carrier import ElemSet, set_of
from .errors import InternalInvariant, InvalidSubgroup, NotNormal
from .group import Group, conjugates, from_cayley_table
from .report import Check, Clock, tally
from .subgroup import (
    left_coset_roots,
    require_nested_subgroups,
    right_index,
    subgroup_set,
)


def conjugate_set(g: Group, h: ElemSet, x: int) -> ElemSet:
    """x H x^-1, equivalently the y with x^-1 * y * x in H."""
    g.carrier.check_point(x)
    return set_of(h.carrier, conjugates(g, [x], h.as_array())[0].tolist())


def conjugacy_family(g: Group, k: ElemSet, base: ElemSet) -> list[ElemSet]:
    """The distinct conjugates x B x^-1 for x in K, ordered by membership
    list: one grid of conjugates, each row sorted, deduplicated by its
    bytes."""
    rows = np.sort(conjugates(g, k.as_array(), base.as_array()), axis=1)
    distinct = {row.tobytes(): row.tolist() for row in rows}
    return [set_of(base.carrier, m) for m in sorted(distinct.values())]


def _normalizes(g: Group, h: ElemSet, xs: np.ndarray) -> np.ndarray:
    """For each x in xs, whether x^-1 * y * x lies in H for every y in H."""
    return h.mask()[conjugates(g, g.inv[xs], h.as_array())].all(axis=1)


def is_normal(g: Group, h: ElemSet, k: ElemSet) -> bool:
    """Whether x^-1 H x lies inside H for every x in K: for subgroups, H
    normal in K."""
    if not h.bits or not k.bits:
        return not h.bits
    return bool(_normalizes(g, h, k.as_array()).all())


def normalizer(g: Group, h: ElemSet, k: ElemSet) -> ElemSet:
    """The x in K with x^-1 H x inside H, so x H x^-1 == H for H inside K."""
    require_nested_subgroups(g, h, k)
    km = k.as_array()
    return set_of(g.carrier, km[_normalizes(g, h, km)].tolist())


@dataclass(eq=False)
class QuotientGroup:
    """K/H realized on the carrier of coset roots.

    ``roots[i]`` is the ambient point representing quotient point i, and
    ``project`` sends each ambient member of K to its coset's quotient
    point.  ``group`` is a fully validated Group on the root carrier.
    """

    base: Group
    normal_sub: ElemSet
    ambient: ElemSet
    roots: tuple[int, ...]
    group: Group
    proj_table: np.ndarray

    def project(self, x: int) -> int:
        self.base.carrier.check_point(x)
        q = int(self.proj_table[x])
        if q < 0:
            raise InvalidSubgroup(f"point {x} is outside the ambient subgroup")
        return q

    def embed(self, i: int) -> int:
        self.group.carrier.check_point(i)
        return self.roots[i]


def quotient_group(g: Group, h: ElemSet, k: ElemSet) -> QuotientGroup:
    """Build K/H.  Raises NotNormal if H is not normal in K."""
    require_nested_subgroups(g, h, k)
    if not is_normal(g, h, k):
        raise NotNormal("subgroup is not normal in the ambient group")

    roots, proj = left_coset_roots(g, h, k)
    qgroup = from_cayley_table(len(roots), proj[g.mul[np.ix_(roots, roots)]])

    # the right cosets are counted apart from the roots the quotient is built on
    if qgroup.order != right_index(g, h, k):
        raise InternalInvariant("quotient order differs from the subgroup index")

    proj.setflags(write=False)
    return QuotientGroup(g, h, k, tuple(roots.tolist()), qgroup, proj)


def quotient_morphism_check(q: QuotientGroup) -> list[Check]:
    """The projection is a group morphism, kills exactly the kernel coset,
    and sends each element to a representative of its own coset."""
    g = q.base
    k = q.ambient
    h = q.normal_sub
    km = k.as_array()
    proj = q.proj_table
    clock = Clock()

    lhs = proj[g.mul[np.ix_(km, km)]]
    rhs = q.group.mul[np.ix_(proj[km], proj[km])]
    checks = clock.stamp(tally("quotient_morphism", lhs == rhs,
                               lambda i, j: [int(km[i]), int(km[j])]))

    unit_img = sorted({int(proj[x]) for x in h})
    checks += clock.stamp(Check("quotient_kernel_to_unit", unit_img == [q.group.unit],
                                unit_img, [q.group.unit]))

    # embed(project(x)) must lie in xH, i.e. x^-1 * root in H
    root_pts = np.asarray([q.embed(int(proj[x])) for x in k])
    in_coset = h.mask()[g.mul[g.inv[km], root_pts]]
    return checks + clock.stamp(tally("quotient_root_in_own_coset", in_coset))


def image_subgroup(q: QuotientGroup, l: ElemSet) -> ElemSet:
    """Image in K/H of a subgroup L sandwiched between H and K."""
    require_nested_subgroups(q.base, q.normal_sub, l)
    if not l.issubset(q.ambient):
        raise InvalidSubgroup("l must lie in the ambient group")
    return set_of(q.group.carrier, np.unique(q.proj_table[l.as_array()]).tolist())


def preimage_subgroup(q: QuotientGroup, l1: ElemSet) -> ElemSet:
    """Pullback in K of a subgroup of the quotient."""
    subgroup_set(q.group, l1)
    km = q.ambient.as_array()
    return set_of(q.base.carrier, km[l1.mask()[q.proj_table[km]]].tolist())
