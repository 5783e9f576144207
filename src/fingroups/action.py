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

translation_batch derives the same results for many subgroups of any
orders at once, each acting on its own left cosets, with the laws checked
on every acting element rather than on generators; a fault the theory
rules out raises InternalInvariant, naming the first subgroup at fault.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    quote_input,
)
from .group import Group, blocks, conjugates, greedy_generators, law_break
from .numutil import is_prime, padic_val
from .report import Check, Clock
from .subgroup import left_coset_roots, left_index, require_nested_subgroups, subgroup_set


# Cells one translation_batch call holds, |H| * |G| summed over its
# subgroups of any orders, and one subgroup at least (a subgroup alone holds
# at most MAX_GROUP_ORDER^2).  Every catalog group but S5 fits one batch;
# larger budgets were no faster over the large groups' samples, and took a
# batch of S5 x C2's or D6 x D6's past 2.5 MiB at its traced peak.
BATCH_CELLS = 1 << 17


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
    from column sorts, a group.blocks range of columns at a time,
    stabilizers from one comparison; each distinct stabilizer gets one
    left_index, which counts coset roots and proves a subgroup."""
    m = act.acting.as_array()
    orb = np.empty(act.points.size, dtype=np.int64)
    for b in blocks(act.points.size, len(act.table)):
        cols = np.sort(act.table[:, b], axis=0)
        orb[b] = 1 + np.count_nonzero(cols[1:] != cols[:-1], axis=0)
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
        raise NotPrime(f"{quote_input(p)} is not prime")
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
    """What translation_batch counts for c subgroups H of any orders, each
    acting by translation on its left cosets in G (its points, in
    ascending order of their roots): each index [G : H], which counts its
    points, and the points it fixes, as (c,) arrays, and each point's orbit
    size, stabilizer order and stabilizer index in H, flat in (subgroup,
    point) order, ``index[i]`` of them for the i-th H.  ``ms`` holds the
    laps spent on the indices, on the actions and on the fixed points."""

    index: np.ndarray
    orbit: np.ndarray
    stab_order: np.ndarray
    stab_index: np.ndarray
    fixed: np.ndarray
    ms: tuple[float, float, float]


def sample_batches(g: Group, sample: Sequence[ElemSet]) -> Iterator[list[ElemSet]]:
    """The subgroups in their given order, cut into consecutive runs of any
    orders while the runs' cells, the sum of |H| * |G|, stay within
    BATCH_CELLS, each run of one subgroup at least."""
    run: list[ElemSet] = []
    cells = 0
    for h in sample:
        if run and cells + h.card * g.order > BATCH_CELLS:
            yield run
            run, cells = [], 0
        run.append(h)
        cells += h.card * g.order
    if run:
        yield run


def _require(ok: np.ndarray, hs: Sequence[ElemSet], fact: str, of) -> None:
    """InternalInvariant unless ok holds throughout, naming fact and the
    members of hs[of(r)], r the first place where ok fails."""
    if not ok.all():
        h = hs[int(of(int(np.argmin(ok))))]
        raise InternalInvariant(f"{fact} fails for the subgroup {list(h.indices())}")


def _spread(values: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values[i] repeated lengths[i] times, laid end to end, and each
    place's offset within its run."""
    ends = np.cumsum(lengths)
    return (np.repeat(values, lengths),
            np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths))


def _pair_rows(g: Group, m: np.ndarray, own: np.ndarray, first: np.ndarray,
               row: np.ndarray) -> np.ndarray:
    """For every pair (a, b) of members of one H, the members m laid end to
    end with own[a] their H and first[h] where H_h's start: the row in H
    (row[h * |G| + x] that of x) of m_a * m_b, -1 outside H, laid end to
    end a-major.  Read a block of members a at a time."""
    n, mul = g.order, g.mul.ravel()
    ka = np.bincount(own)[own]  # each member's pairs
    end = np.cumsum(ka)
    shift = end - ka - first[own]  # a pair's place less its b's place among the members
    ab = np.empty(end[-1], dtype=np.int16)  # all below MAX_GROUP_ORDER
    for bl in blocks(len(m), ka):
        kb = ka[bl]
        p = slice(end[bl.start] - kb[0], end[bl.stop - 1])
        y = m.take(np.arange(p.start, p.stop) - np.repeat(shift[bl], kb))  # m_b
        ab[p] = row.take(np.repeat(own[bl] * n, kb) + mul.take(np.repeat(m[bl] * n, kb) + y))
    return ab


def _law(t: np.ndarray, lift: np.ndarray, hs: Sequence[ElemSet]) -> None:
    """(m_a * m_b).z == m_a.(m_b.z) over one run of subgroups hs of order k,
    t[h] the (k, s) table of the h-th and lift[h, a, b] the row of
    m_a * m_b among the run's stacked rows t.reshape(-1, s): one gather per
    subgroup, per acting row a or per point z, whichever are fewest, over
    blocks of rows or of subgroups."""
    c, k, s = t.shape
    stacked = t.reshape(-1, s)
    if c <= min(k, s):
        for h in range(c):
            for bl in blocks(k, k * s):
                _require(stacked.take(lift[h, bl], axis=0) == t[h, bl].take(t[h], axis=1), hs,
                         "(x*y).z == x.(y.z)", lambda r: h)
        return
    if k <= s:
        for bl in blocks(c, k * s):
            tb = t[bl]
            inner = tb + (np.arange(len(tb)) * s)[:, None, None]  # m_b.z among the (h, s) of one m_a
            for a in range(k):
                _require(stacked.take(lift[bl, a], axis=0) == tb[:, a].ravel().take(inner), hs,
                         "(x*y).z == x.(y.z)", lambda r: bl.start + r // (k * s))
        return
    for bl in blocks(c, k * k):
        tb = t[bl]
        starts = (np.arange(len(tb) * k) * s).reshape(-1, k, 1)  # where the row of each m_a starts
        for z in range(s):
            _require(stacked[:, z].take(lift[bl]) == tb.ravel().take(starts + tb[:, None, :, z]),
                     hs, "(x*y).z == x.(y.z)", lambda r: bl.start + r // (k * k))


def translation_batch(g: Group, hs: Sequence[ElemSet]) -> TranslationBatch:
    """Lagrange, orbit-stabilizer and the fixed points for each of the
    nonempty subsets hs, of any orders, each acting on its own left cosets
    in G.  Their members, the pairs of members of one H and the entries of
    the actions' rows are laid end to end, H by H; the cosets are read
    over blocks of subgroups, their members padded with the unit to the
    largest order in the block, and the law and the stabilizers over each
    run of subgroups of one order.  Every pass reads group.blocks.

    Each H is proven a subgroup as is_subgroup does (the unit and x * y);
    [G : H] counts the x that are the least of x * H, and must equal that
    count taken on the table for the first subgroup of its run.
    The table of the action passes make_action's laws on every acting
    element (each image a coset, the unit's row the identity,
    (x*y).z == x.(y.z), so each row is onto by the law at y = x^-1); an
    orbit's size counts the points whose column has the same least entry;
    and each point's stabilizer is proven a subgroup and its index in H
    counted by coset roots, as orbit_stabilizer_counts does.  A set that
    is no subgroup raises InvalidSubgroup; indices that differ, a table
    that breaks a law or a stabilizer that is no subgroup raise
    InternalInvariant, naming the first subgroup at fault."""
    clock = Clock()
    n, c = g.order, len(hs)
    if any(h.carrier is not g.carrier and h.carrier != g.carrier for h in hs):
        raise CarrierMismatch("set does not live on the group's carrier")
    mask = membership_grid((h.bits for h in hs), n)
    if not mask[:, g.unit].all():
        raise InvalidSubgroup("h must be a subgroup")
    dt, mul = g.mul.dtype, g.mul.ravel()
    cell = np.flatnonzero(mask)  # i * n + x for each member x of H_i, in order
    own, m = np.divmod(cell, n)  # the members laid end to end, each with its H
    m = m.astype(dt)
    k = np.bincount(own, minlength=c)
    first = np.cumsum(k) - k  # where the members of each H start
    pair = np.cumsum(k[own]) - k[own]  # where the pairs (a, b) of each member a start
    row = np.full(c * n, -1, dtype=dt)  # row[i * n + x]: x's row in H_i, -1 outside it
    row[cell] = np.arange(len(m)) - first[own]
    ab = _pair_rows(g, m, own, first, row)
    if (ab < 0).any():
        raise InvalidSubgroup("h must be a subgroup")
    g._subgroup_bits.update(h.bits for h in hs)
    unit = row[np.arange(c) * n + g.unit]  # the unit's row in each H
    del row

    # each H's members padded with the unit to the largest order
    pad = np.arange(int(k.max()))
    mp = np.where(pad < k[:, None], m.take(np.minimum(first[:, None] + pad, len(m) - 1)), g.unit)
    cols, pts = g.columns(), np.arange(n, dtype=dt)
    root = np.empty((c, n), dtype=dt)  # root[i, x]: the least of x * H_i, on the cached columns
    for bl in blocks(c, k * n):
        root[bl] = cols.take(mp[bl, :k[bl].max()], axis=0).min(axis=1)
    index = (root == pts).sum(axis=1)
    laps = [clock.lap()]

    roots = np.flatnonzero(root == pts)  # i * n + r for each root r of H_i: its points, in order
    pown = roots // n
    start = np.cumsum(index) - index  # where the points of each H start
    number = np.full(c * n, -1, dtype=dt)  # number[i * n + r]: the point of the root r, or -1
    number[roots] = np.arange(len(roots)) - start[pown]
    roots -= pown * n
    # the entries (a, z) of the actions' rows, a-major, and the point of each, flat
    sa = index[own]
    pe, ez = _spread(start[own], sa)
    pe += ez
    at = np.repeat(own * n, sa)
    table = number.take(at + root.ravel().take(at + mul.take(np.repeat(m * n, sa) + roots.take(pe))))
    del root, number, at
    _require(table >= 0, hs, "each acting element permutes the cosets", lambda r: pown[pe[r]])
    fixes = table == ez
    del ez
    entry = np.cumsum(sa) - sa  # where the row of each member starts
    u, z = _spread(entry[first + unit], index)
    _require(table.take(u + z) == z, hs, "the unit acts as the identity", lambda r: pown[r])
    # each orbit is one set of points with the same least image, as the
    # laws checked below make the orbits a partition
    low = np.full(len(roots), n, dtype=dt)
    np.minimum.at(low, pe, table)
    low = start[pown] + low
    orbit = np.bincount(low, minlength=len(roots))[low]
    stab_order = np.bincount(pe[fixes], minlength=len(roots))
    del pe, low, u, z

    # per run of subgroups of one order: each H's index against the count
    # on the table for the run's first, then, each H's table as (row, point),
    # the law and every point's stabilizer, proven a subgroup (it holds
    # the unit, whose row is the identity, and is closed under x * y), and
    # its index in H, counted as the x with no member y of it for which
    # x * y < x, the row of x * y below x's, the roots of its left cosets
    # (those y counted by a float32 product of 0/1 grids, exact below 2^24)
    stab_index = np.empty(len(roots), dtype=np.int64)
    edge = (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist()
    for i0, i1 in zip([0, *edge], [*edge, c]):
        kk, s, p0, cr = int(k[i0]), int(index[i0]), int(first[i0]), i1 - i0
        e0, q0, z0 = int(entry[p0]), int(pair[p0]), int(start[i0])
        want = int((g.mul.take(m[p0:p0 + kk], axis=1).min(axis=1) == pts).sum())
        _require(index[i0:i1] == want, hs, f"[G : H] == {want}, the table's count, on the cached "
                 "columns", lambda r: i0 + r)
        t = table[e0:e0 + cr * kk * s].reshape(cr, kk, s)
        xy = ab[q0:q0 + cr * kk * kk].reshape(cr, kk, kk)  # xy[h, a, b]: m_a * m_b's row in H_h
        lift = xy + (np.arange(cr) * kk)[:, None, None]  # its row in the run's stacked tables
        _law(t, lift, hs[i0:i1])
        f = fixes[e0:e0 + cr * kk * s].reshape(cr, kk, s)
        below = (xy < np.arange(kk)[:, None]).astype(np.float32)
        for bl in blocks(cr, kk * kk * s):
            fb = f[bl]
            both = fb[:, :, None, :] & fb[:, None, :, :]  # (H, a, b, point): a and b fix it
            closed = f.reshape(-1, s).take(lift[bl], axis=0) | ~both
            _require(closed, hs, "each stabilizer is a subgroup",
                     lambda r: i0 + bl.start + r // closed[0].size)
            roots_of = np.matmul(below[bl], fb.astype(np.float32)) == 0  # (H, x, point)
            stab_index[z0 + bl.start * s:z0 + bl.stop * s] = roots_of.sum(axis=1).ravel()
    laps.append(clock.lap())

    fixed = np.bincount(pown[stab_order == k[pown]], minlength=c)
    return TranslationBatch(index, orbit, stab_order, stab_index, fixed, (*laps, clock.lap()))
