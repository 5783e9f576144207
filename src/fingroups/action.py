"""Group actions as validated tables, orbits, stabilizers, and the mod-p
fixed-point count.

An Action is a table with one row per element x of the acting subgroup, in
ascending order of x, and one column per point z: the entry is x.z, which
must stay in range.  Each acting element must act bijectively and the
composition law must hold across the acting subgroup.

Both laws are checked on a generating set only (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 4), after the unit's row is
checked to be the identity.  If (a*y).z == a.(y.z) for each generator a,
every acting y and every point z, then at y = a^-1 it reads
a.(a^-1.z) = e.z = z, so a's row maps onto the points and, the points
being finite, permutes them; every acting element, a positive word in the
generators, then acts as the composite of their permutations, and the law
follows by induction on word length.  Generators are picked greedily as in
group.from_cayley_table, at most log2 of the acting order plus one, and
the Action records their rows: a point each of them fixes is fixed by
every acting element, so fixed_points reads those rows alone.  A table
that fails is rescanned element by element, so its error names the same
first witness as a check of every element would; both read the law
through group.law_break.  Tables are validated in place, in their own
integer dtype, and never copied, and every pass over them reads the
slices of group.blocks.

The counting results: the orbit of a point has the same size as the index
of its stabilizer, hence divides the acting order; and when the acting
order is a prime power p^a, the total point count is congruent mod p to the
number of fixed points.  Both are computed from scratch on both sides, not
assumed.

translation_batch derives the same results for many subgroups of one order
at once, each acting on its own left cosets, with the laws checked on the
whole stacked table rather than on generators; a fault the theory rules
out raises InternalInvariant, naming the first subgroup at fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .carrier import Carrier, ElemSet, membership_grid, set_of
from .errors import (
    CarrierMismatch,
    FamilyNotClosed,
    InternalInvariant,
    InvalidSubgroup,
    NotBijective,
    NotMorphism,
    NotPPower,
    NotPrime,
    PointOutOfRange,
)
from .group import MAX_GROUP_ORDER, Group, blocks, conjugates, greedy_generators, law_break
from .numutil import is_prime, padic_val
from .report import Check, Clock
from .subgroup import left_coset_roots, left_index, require_nested_subgroups, subgroup_set


# Entries the largest temporary of one translation_batch call may hold: a
# subgroup of order k in a group of order n needs k * n of them, at most
# MAX_GROUP_ORDER^2, so a batch of one subgroup always fits.
BATCH_CELLS = MAX_GROUP_ORDER ** 2


@dataclass(eq=False)
class Action:
    """A validated action of ``acting`` (a subgroup of ``group``) on the
    abstract point carrier ``points``.  ``table`` has one row per acting
    element, ordered by ``acting.as_array()``.  ``point_labels``, when
    present, says what each point stands for (a coset root, a subgroup, ...).
    ``gen_rows`` are the rows of the generators make_action proved."""

    group: Group
    acting: ElemSet
    points: Carrier
    table: np.ndarray
    gen_rows: tuple[int, ...]
    point_labels: tuple | None = None


def make_action(
    g: Group,
    acting: ElemSet,
    points: Carrier,
    table: np.ndarray,
    point_labels: tuple | None = None,
) -> Action:
    """Validate an action table: one row per acting element, ordered by
    ``acting.as_array()``, one column per point.

    The unit's row must be the identity, and (a*y).z == a.(y.z) must hold
    for each greedily picked generator a, every acting y and every point z;
    the generators' rows are recorded as gen_rows.  When the unit or a
    generator fails, every acting element is rescanned in full:
    NotBijective(x) names the first element that fails to permute the
    points, and otherwise NotMorphism(x, y, z) the first triple breaking
    the composition law.  InternalInvariant if the rescan finds neither.
    The table is held as given and made read-only once it passes; one of
    no integer dtype, or with an entry outside the points, raises
    PointOutOfRange.
    """
    h = subgroup_set(g, acting)
    m = h.as_array()
    s = points.size
    if table.dtype.kind not in "iu":
        raise PointOutOfRange(f"action table has dtype {table.dtype}, not an integer dtype")
    if table.shape != (h.card, s):
        raise PointOutOfRange(
            f"table shape {table.shape} does not match ({h.card}, {s})"
        )
    # Read unsigned, a negative entry is at least top, which no entry of the
    # dtype reaches, so one max finds every entry outside the points.
    top = 1 << 8 * table.itemsize - (table.dtype.kind == "i")
    if table.size and table.view(f"u{table.itemsize}").max() >= min(s, top):
        raise PointOutOfRange("action table leaves the point carrier")

    row = np.cumsum(h.mask()) - 1  # row[x] is x's row, for x in h
    gen_rows: list[int] = []
    # the unit's row must be the identity, read a block at a time in the table's dtype
    # (too narrow a dtype holds none); the law then holds on it, so law_break skips it
    unit_row = table[row[g.unit]]
    ok = s <= top and all((unit_row[b] == np.arange(b.start, b.stop, dtype=table.dtype)).all()
                          for b in blocks(s))
    for a in greedy_generators(g.mul, g.unit, h.bits) if ok else ():
        gen_rows.append(int(row[a]))
        if not (ok := law_break(table[row[a]], table, row[g.mul[a, m]], row[g.unit]) is None):
            break
    if not ok:
        err = _first_action_violation(g, table, m, row)
        if err is None:
            raise InternalInvariant(
                "the unit or a generator fails to act, but the full rescan finds no violation")
        raise err

    table.setflags(write=False)
    return Action(g, acting, points, table, tuple(gen_rows), point_labels)


def _first_action_violation(
    g: Group, table: np.ndarray, m: np.ndarray, row: np.ndarray
) -> NotBijective | NotMorphism | None:
    """The full rescan over the acting elements m, whose rows table holds
    in order: NotBijective for the first row that is no permutation, else
    NotMorphism for the first (x, y, z) in the order of m and the points,
    else None."""
    pts = np.arange(table.shape[1])
    for x, tx in zip(m, table):
        if not np.array_equal(np.sort(tx), pts):
            return NotBijective(int(x))
    for x, tx in zip(m, table):
        if (hit := law_break(tx, table, row[g.mul[x, m]])) is not None:
            return NotMorphism(int(x), int(m[hit[0]]), hit[1])
    return None


def orbit(act: Action, a: int) -> ElemSet:
    """Image of the point under every acting element (a direct image, not
    a reachability search: the acting set is closed anyway)."""
    act.points.check_point(a)
    return set_of(act.points, np.unique(act.table[:, a]).tolist())


def stabilizer(act: Action, a: int) -> ElemSet:
    """The acting elements fixing the point; always a subgroup."""
    act.points.check_point(a)
    m = act.acting.as_array()
    return set_of(act.group.carrier, m[act.table[:, a] == a].tolist())


def fixed_points(act: Action) -> ElemSet:
    """Points fixed by the entire acting subgroup, read from the generators'
    rows in the blocks of points group.blocks gives, compared in the table's
    dtype (which holds every point of a table make_action passed)."""
    fixed: list[int] = []
    for b in blocks(act.points.size):
        pts = np.arange(b.start, b.stop, dtype=act.table.dtype)
        ok = np.ones(len(pts), dtype=bool)
        for r in act.gen_rows:
            ok &= act.table[r, b] == pts
        fixed += pts[ok].tolist()
    return set_of(act.points, fixed)


def _orbit_stabilizer_sides(orb, idx, h: int):
    """The relations a point passes by, as (name, lhs, rhs) with equal sides:
    its orbit size is its stabilizer's index, and divides the acting order
    h.  Takes one point's ints or the arrays of every point."""
    return ("orbit_stabilizer", orb, idx), ("orbit_divides", h % orb, 0)


def orbit_stabilizer_ok(orb: np.ndarray, idx: np.ndarray, h: int) -> np.ndarray:
    """Whether each point passes both relations of _orbit_stabilizer_sides."""
    (_, l1, r1), (_, l2, r2) = _orbit_stabilizer_sides(orb, idx, h)
    return (l1 == r1) & (l2 == r2)


def orbit_stabilizer_counts(act: Action) -> tuple[np.ndarray, ...]:
    """Arrays of every point's orbit size, stabilizer order, stabilizer
    index in the acting subgroup, and whether it passes.  Orbit sizes come
    from one column sort, stabilizers from one comparison; each distinct
    stabilizer gets one left_index, which counts coset roots and proves a
    subgroup."""
    m = act.acting.as_array()
    cols = np.sort(act.table, axis=0)
    orb = 1 + np.count_nonzero(cols[1:] != cols[:-1], axis=0)
    fixes = act.table == np.arange(act.points.size, dtype=act.table.dtype)
    keys = [col.tobytes() for col in fixes.T]
    index_of: dict[bytes, int] = {}
    for a, key in enumerate(keys):
        if key not in index_of:
            stab = set_of(act.group.carrier, m[fixes[:, a]].tolist())
            index_of[key] = left_index(act.group, stab, act.acting)
    idx = np.array([index_of[key] for key in keys], dtype=np.int64)
    return orb, fixes.sum(axis=0), idx, orbit_stabilizer_ok(orb, idx, act.acting.card)


def orbit_stabilizer_check(act: Action, a: int) -> list[Check]:
    """One point's orbit-stabilizer relations from orbit_stabilizer_counts
    (every point is computed)."""
    act.points.check_point(a)
    o, s, i, _ = (int(v[a]) for v in orbit_stabilizer_counts(act))
    witnesses = ({"point": a, "stabilizer_order": s}, {"point": a})
    return [Check(name, lhs == rhs, lhs, rhs, w) for (name, lhs, rhs), w
            in zip(_orbit_stabilizer_sides(o, i, act.acting.card), witnesses)]


def mod_p_fixed_point_check(act: Action, p: int, fixed: ElemSet | None = None) -> Check:
    """For a p-power acting order: |points| is congruent to |fixed points|
    modulo p.  Both counts are computed outright; a caller that already
    holds fixed_points(act) passes it as ``fixed``."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if act.acting.card != p ** padic_val(p, act.acting.card):
        raise NotPPower(f"acting order {act.acting.card} is not a power of {p}")
    s = act.points.size
    s0 = (fixed_points(act) if fixed is None else fixed).card
    return Check("mod_p_fixed_points", s % p == s0 % p, s % p, s0 % p,
                 {"points": s, "fixed": s0, "p": p})


def left_translation_action(g: Group, h: ElemSet, l: ElemSet, k: ElemSet) -> Action:
    """H acting on the left cosets of L inside K by translation.

    Points are the minimum-index coset representatives; x sends the coset
    of r to the coset of x*r.
    """
    require_nested_subgroups(g, h, k)
    require_nested_subgroups(g, l, k)

    roots, coset = left_coset_roots(g, l, k)
    table = coset[g.mul[h.as_array()[:, None], roots]]
    return make_action(g, h, Carrier(len(roots)), table, tuple(roots.tolist()))


def conjugation_action(g: Group, h: ElemSet) -> Action:
    """H acting on the whole carrier by z -> x * z * x^-1.  (Conjugation
    written with x^-1 on the left would compose contravariantly.)"""
    table = conjugates(g, h.as_array(), np.arange(g.order))
    return make_action(g, h, g.carrier, table)


def conjugation_action_on_subsets(
    g: Group, acting: ElemSet, family: Sequence[ElemSet]
) -> Action:
    """H permuting an indexed family of subsets by L -> x L x^-1.

    The family must be closed under conjugation by acting elements; raises
    FamilyNotClosed(x, i) otherwise.
    """
    xs = subgroup_set(g, acting).as_array()
    # a set is keyed by its ascending members, in the dtype of g.mul
    index = {m.as_array().astype(g.mul.dtype).tobytes(): i for i, m in enumerate(family)}
    if len(index) < len(family):
        raise ValueError("family members must be distinct")

    table = np.empty((len(xs), len(family)), dtype=np.int64)
    for i, member in enumerate(family):
        # x M x^-1 for every acting x at once, one sorted row per x
        conj = np.sort(conjugates(g, xs, member.as_array()), axis=1)
        table[:, i] = [index.get(row.tobytes(), -1) for row in conj]
    left = np.argwhere(table < 0)
    if len(left):
        raise FamilyNotClosed(int(xs[left[0, 0]]), int(left[0, 1]))
    return make_action(g, acting, Carrier(len(family)), table, tuple(family))


@dataclass(eq=False)
class TranslationBatch:
    """What translation_batch counts for c subgroups H of one order, each
    acting by translation on its s left cosets in G (the points, in
    ascending order of their roots): each index [G : H], each point's
    orbit size, stabilizer order and stabilizer index in H, as (c, s)
    arrays, and the points each H fixes.  ``ms`` holds the laps spent on
    the indices, on the actions and on the fixed points."""

    index: np.ndarray
    orbit: np.ndarray
    stab_order: np.ndarray
    stab_index: np.ndarray
    fixed: np.ndarray
    ms: tuple[float, float, float]


def sample_batches(g: Group, sample: Sequence[ElemSet]) -> Iterator[list[ElemSet]]:
    """The subgroups in their given order, cut into runs of one order k of
    at most BATCH_CELLS // (k * |G|) subgroups each (and at least one)."""
    for k, run in groupby(sample, key=lambda h: h.card):
        run = list(run)
        step = max(1, BATCH_CELLS // (k * g.order))
        for i in range(0, len(run), step):
            yield run[i:i + step]


def _at(a: np.ndarray, i, j) -> np.ndarray:
    """a[i, j] for a 2-D array a, as one gather from its flattened entries."""
    return a.ravel()[i * a.shape[1] + j]


def _require(ok: np.ndarray, hs: Sequence[ElemSet], fact: str, of=None) -> None:
    """InternalInvariant unless ok holds throughout, naming fact and the
    members of the subgroup of its first failing row r: hs[r], or hs[of[r]]."""
    if not ok.all():
        r = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        h = hs[r if of is None else int(of[r])]
        raise InternalInvariant(f"{fact} fails for the subgroup {list(h.indices())}")


def translation_batch(g: Group, hs: Sequence[ElemSet]) -> TranslationBatch:
    """Lagrange, orbit-stabilizer and the fixed points for each of the
    nonempty subsets hs of one order k, each acting on its own left cosets
    in G, from a few gathers over their stacked members m (c, k).

    Each H is proven a subgroup (the unit and y * x^-1 for members x, y);
    [G : H] counts the x that are the least of x * H; the table of the
    action passes make_action's laws on every acting element (each image a
    coset, the unit's row the identity, (x*y).z == x.(y.z), so each row is
    onto by the law at y = x^-1); an orbit's size counts the points whose
    column has the same least entry; and each distinct stabilizer column is
    proven a subgroup and its index in H counted by coset roots, as
    orbit_stabilizer_counts does.  Every temporary holds at most c * k * |G|
    entries.  A set that is no subgroup raises InvalidSubgroup; indices
    that differ, a table that breaks a law or a stabilizer that is no
    subgroup raise InternalInvariant."""
    clock = Clock()
    n, k, c = g.order, hs[0].card, len(hs)
    if any(h.carrier != g.carrier for h in hs):
        raise CarrierMismatch("set does not live on the group's carrier")
    if any(h.card != k for h in hs):
        raise ValueError("the subgroups of a batch must have one order")
    dt = g.mul.dtype
    mask = membership_grid((h.bits for h in hs), n)
    ci = np.arange(c)[:, None]
    m = (np.flatnonzero(mask).reshape(c, k) - ci * n).astype(dt)  # members, ascending
    cj = ci[..., None]
    row = np.full((c, n), -1, dtype=dt)  # row[i, x]: the row of x in H_i, -1 outside
    row[ci, m] = np.arange(k, dtype=dt)
    quo = _at(row, cj, _at(g.mul, m[:, :, None], g.inv[m][:, None, :]))  # of m_a * m_b^-1
    if not mask[:, g.unit].all() or (quo < 0).any():
        raise InvalidSubgroup("h must be a subgroup")
    g._subgroup_bits.update(h.bits for h in hs)

    root = g.columns()[m].min(axis=1)  # root[i, x]: the least of x * H_i
    own = root == np.arange(n, dtype=dt)
    index = own.sum(axis=1)
    s = int(np.count_nonzero(g.mul[:, m[0]].min(axis=1) == np.arange(n)))  # from the table
    _require(index == s, hs, f"[G : H] == {s}, the table's count, on the cached columns")
    laps = [clock.lap()]

    roots = np.flatnonzero(own).reshape(c, s) - ci * n
    number = np.full((c, n), s, dtype=dt)  # number[i, r]: the point of the root r, s if none
    number[ci, roots] = np.arange(s, dtype=dt)
    table = _at(number, cj, _at(root, cj, _at(g.mul, m[:, :, None], roots[:, None, :])))
    pts = np.arange(s, dtype=dt)
    unit = row[:, g.unit]
    _require(table < s, hs, "each acting element permutes the cosets")
    _require(table[ci[:, 0], unit] == pts, hs, "the unit acts as the identity")
    prod = _at(g.mul, m[:, :, None], m[:, None, :])  # the element m_a * m_b
    lifted = _at(row, cj, prod) + cj * k  # its row in the stacked (c * k, s) table
    stacked = table.reshape(c * k, s)
    # (m_a * m_b).z == m_a.(m_b.z), one gather per acting m_a or per point
    # z, whichever are fewer
    if k <= s:
        inner = cj * s + table  # m_b.z as a position in the (c, s) slice of one m_a
        for a in range(k):
            _require(stacked[lifted[:, a]] == table[:, a].ravel()[inner], hs, "(x*y).z == x.(y.z)")
    else:
        starts = (cj * k + np.arange(k)[:, None]) * s  # where the row of m_a starts
        for z in range(s):
            _require(stacked[:, z][lifted] == table.ravel()[starts + table[:, None, :, z]],
                     hs, "(x*y).z == x.(y.z)")

    # each orbit is one set of points with the same least image, as the
    # laws just checked make the orbits a partition
    low = ci * s + table.min(axis=1)
    orbit = np.bincount(low.ravel(), minlength=c * s)[low]
    fixes = table == pts
    # the distinct stabilizer columns of each H, keyed by their bits, 62 to a word
    bit = (1 << np.arange(k) % 62)[:, None]
    keys = [(fixes[:, j:j + 62] * bit[j:j + 62]).sum(axis=1).ravel() for j in range(0, k, 62)]
    keys.append(np.repeat(np.arange(c), s))
    order = np.lexsort(keys)
    new = np.ones(c * s, dtype=bool)
    new[1:] = np.any([key[order[1:]] != key[order[:-1]] for key in keys], axis=0)
    which = np.empty(c * s, dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    rc, rz = np.divmod(order[new], s)
    stab = fixes[rc, :, rz]  # each distinct stabilizer as a mask over the rows of its H
    ri = np.arange(len(rc))[:, None, None]
    # each holds the unit, whose row is the identity, and must be closed
    closed = stab[ri, quo[rc]] | ~(stab[:, :, None] & stab[:, None, :])
    _require(closed, hs, "each stabilizer is a subgroup", rc)
    least = np.where(stab[:, None, :], prod[rc], n).min(axis=2)  # x's root modulo it
    stab_index = (least == m[rc]).sum(axis=1)[which].reshape(c, s)
    laps.append(clock.lap())

    fixed = fixes.all(axis=1).sum(axis=1)
    return TranslationBatch(index, orbit, fixes.sum(axis=1), stab_index, fixed,
                            (*laps, clock.lap()))
