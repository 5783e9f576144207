import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingroups import (
    Action,
    Carrier,
    ElemSet,
    GroupSpec,
    build,
    closure,
    conjugate_set,
    conjugation_action,
    conjugation_action_on_subsets,
    fixed_points,
    from_cayley_table,
    left_index,
    left_translation_action,
    make_action,
    mod_p_fixed_point_check,
    orbit,
    orbit_stabilizer_check,
    orbit_stabilizer_counts,
    product_one_tuples,
    rotation_action,
    set_of,
    singleton,
    stabilizer,
    subgroup_sample,
    subgroup_set,
    symmetric_elements,
    sylow_family,
    sylow_subgroup,
)
from fingroups import action as action_mod
from fingroups import group as group_mod
from fingroups.conjnormal import conjugacy_family
from fingroups.group import greedy_generators
from fingroups.numutil import prime_divisors
from fingroups.suite import catalog, verify_group
from fingroups.errors import (
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

import oracles


def members(g, pts):
    return set_of(g.carrier, pts)


def trivial_action(g, n_points):
    return make_action(g, g.full_set(), Carrier(n_points),
                       np.tile(np.arange(n_points), (g.order, 1)))


# -- validation ----------------------------------------------------------


def test_trivial_action_valid(s3):
    act = trivial_action(s3, 5)
    assert act.table.shape == (6, 5)


def test_constant_map_not_bijective(s3):
    with pytest.raises(NotBijective) as exc:
        make_action(s3, s3.full_set(), Carrier(3), np.zeros((6, 3), dtype=np.int64))
    # every row of a constant table is constant, so the scan reports the
    # first acting element
    assert exc.value.x == 0


def test_non_morphism_detected(z2):
    # each row a permutation, but the nonunit row squares to a 3-cycle
    # instead of the identity
    table = np.array([[0, 1, 2], [1, 2, 0]])
    with pytest.raises(NotMorphism):
        make_action(z2, z2.full_set(), Carrier(3), table)


def test_a_proper_acting_subgroup_takes_only_its_own_rows(s3):
    # conjugation by A3 = {0, 3, 4}: the rows of all of S3 are refused, the
    # rows of the acting elements, in ascending order, are the action
    h = members(s3, [0, 3, 4])
    every_row = conjugation_action(s3, s3.full_set()).table
    with pytest.raises(PointOutOfRange):
        make_action(s3, h, s3.carrier, every_row)
    act = make_action(s3, h, s3.carrier, every_row[[0, 3, 4]])
    assert act.table.shape == (3, 6)
    assert act.table.tolist() == conjugation_action(s3, h).table.tolist()


def test_subgroup_of_another_group_is_revalidated(s3, z6):
    # {0, 3} is a subgroup of Z6 but not of S3, on an equal carrier
    h = subgroup_set(z6, members(z6, [0, 3]))
    with pytest.raises(InvalidSubgroup):
        make_action(s3, h, Carrier(1), np.zeros((2, 1), dtype=np.int64))


def test_action_table_read_only(s3):
    act = trivial_action(s3, 4)
    with pytest.raises(ValueError):
        act.table[0, 0] = 1


def action_verdict(g, acting, table):
    """make_action's verdict on a table, in the terms of the oracle."""
    try:
        make_action(g, acting, Carrier(table.shape[1]), table)
    except NotBijective as err:
        return "bijective", err.x
    except NotMorphism as err:
        return "morphism", err.triple
    return None


def assert_verdict_matches_oracle(g, acting, table):
    want = oracles.naive_first_action_violation(
        oracles.table_rows(g), table.tolist(), acting.indices())
    assert action_verdict(g, acting, table) == want
    return want


def unit_row(g, acting):
    """The row of the unit in an action table of the acting subgroup."""
    return int(np.searchsorted(acting.as_array(), g.unit))


def mutations(rng, table, count, unit):
    """Seeded changes to the acting rows: one cell changed, which breaks
    its row's bijection, and two cells of one row swapped, which keeps it
    and can break only the composition law; each in a random row, then in
    the unit's row (row ``unit``), which make_action checks first."""
    s = table.shape[1]
    if s < 2:
        return
    for _ in range(count):
        x = int(rng.choice(len(table)))
        z, w = rng.choice(s, 2, replace=False)
        shift = rng.integers(1, s)
        for r in (x, unit):
            changed = table.copy()
            changed[r, z] = (changed[r, z] + shift) % s
            yield changed
            swapped = table.copy()
            swapped[r, [z, w]] = swapped[r, [w, z]]
            yield swapped


def test_make_action_matches_the_oracle_on_verify_actions_and_mutations(small_catalog):
    # conjugation by the whole group and each sample subgroup translating
    # its own cosets, as verify_group builds them, then mutated
    rng = np.random.default_rng(8)
    verdicts = set()
    for label, g in small_catalog:
        full = g.full_set()
        acts = [conjugation_action(g, full)]
        acts += [left_translation_action(g, h, h, full) for h in subgroup_sample(g)]
        for act in acts:
            assert act.table.shape == (act.acting.card, act.points.size), label
            assert assert_verdict_matches_oracle(g, act.acting, act.table) is None, label
            for bad in mutations(rng, act.table, 2, unit_row(g, act.acting)):
                got = assert_verdict_matches_oracle(g, act.acting, bad)
                verdicts.add(got and got[0])
    assert verdicts == {None, "bijective", "morphism"}


@pytest.mark.parametrize(
    "spec, p",
    [(GroupSpec.symmetric(3), 2), (GroupSpec.symmetric(3), 3), (GroupSpec.dihedral(4), 2),
     (GroupSpec.q8(), 2), (GroupSpec.cyclic(6), 3), (GroupSpec.cyclic(5), 5)],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else f"p{v}",
)
def test_rotation_table_with_a_swapped_sigma_entry_matches_the_oracle(spec, p):
    g = build(spec)
    _, rotation = oracles.naive_rotation_table(oracles.table_rows(g), g.unit, list(g.elements()), p)
    table = np.array(rotation)
    zp = build(GroupSpec.cyclic(p))
    assert assert_verdict_matches_oracle(zp, zp.full_set(), table) is None
    rng = np.random.default_rng(p)
    verdicts = []
    for _ in range(6):
        z, w = rng.choice(table.shape[1], 2, replace=False)
        bad = table.copy()
        bad[1, [z, w]] = bad[1, [w, z]]  # row 1 is sigma, the generator
        verdicts.append(assert_verdict_matches_oracle(zp, zp.full_set(), bad))
    assert any(v and v[0] == "morphism" for v in verdicts)


@pytest.mark.parametrize("unit_row, verdict",
                         [([1, 0, 2], ("morphism", (0, 0, 0))), ([0, 0, 2], ("bijective", 0))],
                         ids=["not_idempotent", "not_bijective"])
def test_trivial_acting_subgroup_checks_its_unit_row(s3, unit_row, verdict):
    # one acting element leaves no generator to pick, yet a unit row that
    # is no permutation, or one other than its own square, is bad input
    # and never an InternalInvariant
    table = np.array([unit_row])
    assert assert_verdict_matches_oracle(s3, singleton(s3.carrier, s3.unit), table) == verdict


@pytest.mark.parametrize("cells", [group_mod.CHECK_CELLS, 7, 1],
                         ids=["one_block", "cells7", "cells1"])
def test_the_unit_row_is_checked_in_every_block(monkeypatch, s3, cells):
    # the unit alone acting leaves no generator whose law could catch a
    # unit row that swaps the last two of 20 points, in the last block
    monkeypatch.setattr(group_mod, "CHECK_CELLS", cells)
    table = np.arange(20)[None]
    table[0, [18, 19]] = [19, 18]
    verdict = assert_verdict_matches_oracle(s3, singleton(s3.carrier, s3.unit), table)
    assert verdict == ("morphism", (0, 0, 18))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_table_whose_unit_row_alone_is_corrupted_is_refused(seed):
    # the law is never checked at y = the unit, so the unit-first check
    # must refuse it; relabeled, the unit's row is not row 0
    g = relabeled(GroupSpec.symmetric(3), seed) if seed else build(GroupSpec.symmetric(3))
    full = g.full_set()
    table = np.array(left_translation_action(g, full, singleton(g.carrier, g.unit), full).table)
    u = unit_row(g, full)
    for other in range(len(table)):
        if other != u:
            bad = table.copy()
            bad[u] = table[other]  # a permutation, but not the identity
            assert assert_verdict_matches_oracle(g, full, bad) is not None


def test_generator_failure_without_a_witness_is_an_internal_invariant(monkeypatch, s3):
    # the generator check rejects the table; a full rescan that confirms
    # nothing means the library contradicts itself, never bad input
    monkeypatch.setattr(action_mod, "_first_action_violation", lambda *args: None)
    with pytest.raises(InternalInvariant):
        make_action(s3, s3.full_set(), Carrier(3), np.zeros((6, 3), dtype=np.int64))


def test_the_action_rescan_holds_less_than_the_table():
    # C5xC5's rotation table, 390,625 points in int32, with the last two
    # entries of row 3 swapped: row 3 is no generator's (Z5's one generator
    # is 1), so the law fails at x = 1, y = 2, and the rescan reads each row
    # a block of columns at a time, never a temporary the size of the table
    g = build(GroupSpec.product(GroupSpec.cyclic(5), GroupSpec.cyclic(5)))
    table = np.array(rotation_action(product_one_tuples(g, g.full_set(), 5)).table)
    table[3, [-2, -1]] = table[3, [-1, -2]]
    z5 = build(GroupSpec.cyclic(5))
    tracemalloc.start()
    try:
        with pytest.raises(NotMorphism) as exc:
            make_action(z5, z5.full_set(), Carrier(table.shape[1]), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.triple == (1, 2, table.shape[1] - 2)
    assert peak <= table.nbytes, peak / table.nbytes


def test_conjugation_keeps_the_group_dtype_on_c1024():
    # the table is g.mul's int32, 4 MiB: an intp cast (8 MiB) takes
    # conjugation_action past its bound, and orbit_stabilizer_counts, whose
    # column sort copies the table, past its own
    g = build(GroupSpec.cyclic(1024))

    def peak(f):
        tracemalloc.start()
        try:
            return f(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    act, act_peak = peak(lambda: conjugation_action(g, g.full_set()))
    (orb, _, _, ok), counts_peak = peak(lambda: orbit_stabilizer_counts(act))
    assert act_peak <= 2.25 * g.mul.nbytes, act_peak / g.mul.nbytes
    assert counts_peak <= 2.75 * g.mul.nbytes, counts_peak / g.mul.nbytes
    assert act.table.dtype == g.mul.dtype and ok.all() and (orb == 1).all()


def test_orbit_counts_sort_a_block_of_columns_at_a_time():
    # a sorted copy of C1024's whole conjugation table took the counts to
    # 10.2 MiB at their traced peak
    g = build(GroupSpec.cyclic(1024))
    act = conjugation_action(g, g.full_set())
    tracemalloc.start()
    try:
        orb, _, _, ok = orbit_stabilizer_counts(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * g.mul.nbytes, peak / g.mul.nbytes
    assert ok.all() and (orb == 1).all()


def test_generators_come_from_the_acting_subgroup(z12):
    # 1 and 2 lie outside H = {0, 3, 6, 9}; the pick takes 3, which
    # generates H, and the rows of 6 and 9 (rows 2 and 3) are still
    # checked as y
    h = members(z12, [0, 3, 6, 9])
    assert list(greedy_generators(z12.mul, z12.unit, h.bits)) == [3]
    act = left_translation_action(z12, h, members(z12, [0, 6]), z12.full_set())
    assert act.points.size == 6
    for row in (2, 3):
        bad = np.array(act.table)
        bad[row, [0, 1]] = bad[row, [1, 0]]
        assert assert_verdict_matches_oracle(z12, h, bad)[0] == "morphism"


def test_a_table_passing_the_first_generator_fails_at_the_second(klein):
    # the generators are 1 and 2, acting as the involutions (0 1) and (1 2),
    # and 3 = 1*2 as their composite: the law holds for x = 1 and every y,
    # but (0 1) and (1 2) do not commute, so it fails for x = 2
    assert list(greedy_generators(klein.mul, klein.unit, klein.full_set().bits)) == [1, 2]
    table = np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1], [1, 2, 0]])
    assert assert_verdict_matches_oracle(klein, klein.full_set(), table) == ("morphism", (2, 1, 0))


@pytest.mark.parametrize("table", [np.array([[0., 1.], [1.2, 0.3]]),
                                   np.array([[False, True], [True, False]])],
                         ids=["float", "bool"])
def test_a_table_of_no_integer_dtype_is_refused(z2, table):
    # neither is read as the swap [[0, 1], [1, 0]]
    with pytest.raises(PointOutOfRange, match="not an integer dtype"):
        make_action(z2, z2.full_set(), Carrier(2), table)
    assert table.flags.writeable


@pytest.mark.parametrize("cells", [group_mod.CHECK_CELLS, 50, 7, 1],
                         ids=["one_block", "blocks", "columns", "rows"])
@pytest.mark.parametrize("spec", [GroupSpec.symmetric(4), GroupSpec.q8()],
                         ids=lambda spec: spec.describe())
def test_int32_and_int64_tables_get_the_same_verdict(monkeypatch, spec, cells):
    # the rotation of the product-one pairs, conjugation and translation
    # of a Sylow 2-subgroup's cosets, each as built and then mutated, and
    # checked in one block, in blocks of whole rows with a short last one,
    # in ranges of columns of each row wider than 7 points (24 on S4, 8 on
    # Q8, the last range short), or one entry at a time
    monkeypatch.setattr(group_mod, "CHECK_CELLS", cells)
    g = build(spec)
    z2 = build(GroupSpec.cyclic(2))
    full = g.full_set()
    p2 = sylow_subgroup(g, full, 2).subgroup
    cases = [(z2, z2.full_set(), rotation_action(product_one_tuples(g, full, 2)).table),
             (g, full, conjugation_action(g, full).table),
             (g, p2, left_translation_action(g, p2, p2, full).table)]
    rng = np.random.default_rng(19)
    verdicts = set()
    for grp, acting, built in cases:
        for table in [built, *mutations(rng, built, 3, unit_row(grp, acting))]:
            got = []
            for dt in (np.int32, np.int64):
                t = table.astype(dt)
                got.append(action_verdict(grp, acting, t))
                # a table that passes is held, not copied, and frozen; a
                # refused one is left as it was
                assert t.flags.writeable == (got[-1] is not None)
                if got[-1] is None:
                    act = make_action(grp, acting, Carrier(t.shape[1]), t)
                    assert np.shares_memory(act.table, t) and act.table.dtype == dt
            assert got[0] == got[1] == oracles.naive_first_action_violation(
                oracles.table_rows(grp), table.tolist(), acting.indices())
            verdicts.add(got[0] and got[0][0])
    assert verdicts == {None, "bijective", "morphism"}


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint64],
                         ids=lambda dt: np.dtype(dt).name)
@pytest.mark.parametrize("entry", [-1, 3], ids=["negative", "point_count"])
def test_an_entry_outside_the_points_is_refused_in_every_dtype(z2, dtype, entry):
    # an unsigned table holds -1 as its largest value
    table = np.array([[0, 1, 2], [1, 0, entry]]).astype(dtype)
    with pytest.raises(PointOutOfRange, match="leaves the point carrier"):
        make_action(z2, z2.full_set(), Carrier(3), table)
    assert table.flags.writeable


def test_a_negative_entry_is_refused_where_the_points_outnumber_the_dtype(z2):
    # 300 points in int8, whose entries stop at 127: a -1 read unsigned is
    # 255, past the dtype yet below the point count
    table = np.tile(np.arange(300) % 128, (2, 1)).astype(np.int8)
    assert action_verdict(z2, z2.full_set(), table) == ("bijective", 0)
    table[1, 5] = -1
    with pytest.raises(PointOutOfRange, match="leaves the point carrier"):
        make_action(z2, z2.full_set(), Carrier(300), table)


# -- orbits, stabilizers, fixed points -----------------------------------


def test_trivial_action_orbits(s3):
    act = trivial_action(s3, 4)
    assert all(orbit(act, a).indices() == (a,) for a in range(4))
    assert all(stabilizer(act, a).card == 6 for a in range(4))
    assert fixed_points(act).card == 4


def test_unit_subgroup_acts_trivially(s3):
    act = conjugation_action(s3, singleton(s3.carrier, s3.unit))
    assert all(orbit(act, a).card == 1 for a in s3.elements())


def test_conjugation_orbit_of_transposition(s3):
    act = conjugation_action(s3, s3.full_set())
    assert orbit(act, 1).indices() == (1, 2, 5)  # the transpositions
    st_ = stabilizer(act, 1)
    assert st_.indices() == (0, 1)  # identity and the transposition itself
    assert fixed_points(act).indices() == (0,)  # trivial center


def test_conjugation_on_abelian_fixes_everything(z12):
    act = conjugation_action(z12, z12.full_set())
    assert fixed_points(act).card == 12


def test_orbit_stabilizer_s3(s3):
    act = conjugation_action(s3, s3.full_set())
    checks = orbit_stabilizer_check(act, 1)
    assert [c.name for c in checks] == ["orbit_stabilizer", "orbit_divides"]
    assert all(c.ok for c in checks)
    assert checks[0].lhs == 3  # orbit size = index of the stabilizer


def test_orbit_stabilizer_s4_three_cycle(s4):
    perms = symmetric_elements(4)
    a = perms.index((1, 2, 0, 3))
    act = conjugation_action(s4, s4.full_set())
    assert orbit(act, a).card == 8
    assert stabilizer(act, a).card == 3
    assert all(c.ok for c in orbit_stabilizer_check(act, a))


def naive_checks(act):
    """Every point's (name, ok, lhs, rhs, witness) tuples from the plain
    per-point reference, or None when some stabilizer is not a subgroup."""
    g = act.group
    rows = oracles.table_rows(g)
    acting = act.acting.indices()
    out = []
    per_point = oracles.naive_orbit_stabilizer(rows, act.table.tolist(), acting, act.points.size)
    for a, (orb, stab, idx) in enumerate(per_point):
        if not oracles.naive_is_subgroup(rows, g.unit, stab):
            return None
        out.append([
            ("orbit_stabilizer", orb == idx, orb, idx, {"point": a, "stabilizer_order": len(stab)}),
            ("orbit_divides", len(acting) % orb == 0, len(acting) % orb, 0, {"point": a}),
        ])
    return out


def checks_as_tuples(act):
    return [[(c.name, c.ok, c.lhs, c.rhs, c.witness) for c in orbit_stabilizer_check(act, a)]
            for a in range(act.points.size)]


def counts_as_tuples(act):
    """Every point's (orbit size, stabilizer order, index, passes) from
    the arrays."""
    return list(zip(*(v.tolist() for v in orbit_stabilizer_counts(act))))


def naive_counts(checks):
    """The same, read off naive_checks."""
    return [(cs[0][2], cs[0][4]["stabilizer_order"], cs[0][3], all(c[1] for c in cs))
            for cs in checks]


@pytest.fixture(scope="module")
def small_catalog():
    return [(label, g) for label, g in catalog() if g.order <= 24]


def test_all_point_checks_match_naive_on_verify_actions(small_catalog):
    # every action verify_group builds: conjugation by the whole group and
    # each sample subgroup translating its own cosets
    for label, g in small_catalog:
        full = g.full_set()
        acts = [conjugation_action(g, full)]
        acts += [left_translation_action(g, h, h, full) for h in subgroup_sample(g)]
        for act in acts:
            got, want = checks_as_tuples(act), naive_checks(act)
            assert got == want, (label, act.acting.indices())
            assert all(type(v) is int for cs in got for c in cs for v in c[2:4])
            assert counts_as_tuples(act) == naive_counts(want), (label, act.acting.indices())


def test_single_point_check_rejects_a_point_outside_the_action(s4):
    act = conjugation_action(s4, closure(s4, [1, 8]))
    for a in (-1, act.points.size):
        with pytest.raises(PointOutOfRange):
            orbit_stabilizer_check(act, a)


def unchecked_action(g, table):
    """An Action that skips make_action, so its table need not be one."""
    table = np.asarray(table, dtype=np.int64)
    return Action(g, g.full_set(), Carrier(table.shape[1]), table, tuple(range(len(table))))


def test_all_point_checks_flag_what_naive_flags_on_a_non_action():
    z3 = build(GroupSpec.cyclic(3))
    # rows 1 and 2 act alike: every stabilizer is a subgroup, but points
    # 0-2 have an orbit of 2 against an index of 3
    act = unchecked_action(z3, [[0, 1, 2, 3], [1, 2, 0, 3], [1, 2, 0, 3]])
    want = naive_checks(act)
    assert checks_as_tuples(act) == want
    assert counts_as_tuples(act) == naive_counts(want)
    flagged = [a for a, cs in enumerate(want) if not all(c[1] for c in cs)]
    assert flagged == [0, 1, 2]


def test_all_point_checks_refuse_a_stabilizer_that_is_no_subgroup():
    z4 = build(GroupSpec.cyclic(4))
    # point 0 is fixed by the subgroup {0, 2}; point 1 by {0, 1}, of the
    # same order but no subgroup of Z4
    act = unchecked_action(z4, [[0, 1, 2, 3], [2, 1, 0, 3], [0, 3, 2, 1], [2, 3, 0, 1]])
    assert naive_checks(act) is None
    with pytest.raises(InvalidSubgroup):
        orbit_stabilizer_counts(act)
    with pytest.raises(InvalidSubgroup):
        orbit_stabilizer_check(act, 0)


def test_fixed_points_read_from_the_generators_match_the_all_rows_scan(tuple_route_families):
    # each catalog group's conjugation action, its Sylow steps' coset
    # translations and the rotation of each product-one family verify builds
    def actions():
        for _, g in catalog():
            full = g.full_set()
            yield conjugation_action(g, full)
            for p in prime_divisors(g.order):
                for hi in sylow_subgroup(g, full, p).chain[:-1]:
                    yield left_translation_action(g, hi, hi, full)
        for g, h, p in tuple_route_families:
            yield rotation_action(product_one_tuples(g, h, p))

    for act in actions():
        assert len(act.gen_rows) < len(act.table)
        want = np.flatnonzero((act.table == np.arange(act.points.size)).all(axis=0))
        assert fixed_points(act).indices() == tuple(want.tolist())


def test_a_trivial_acting_group_fixes_every_point(s3):
    e = singleton(s3.carrier, s3.unit)
    for act in (conjugation_action(s3, e), left_translation_action(s3, e, e, s3.full_set()),
                make_action(s3, e, Carrier(4), np.arange(4)[None])):
        assert act.gen_rows == ()
        assert fixed_points(act).card == act.points.size


def test_conjugation_table_matches_naive_on_the_catalog():
    for label, g in catalog():
        rows = oracles.table_rows(g)
        inv = [oracles.naive_inverse(rows, g.unit, x) for x in range(g.order)]
        want = [[rows[rows[x][z]][inv[x]] for z in range(g.order)] for x in range(g.order)]
        assert conjugation_action(g, g.full_set()).table.tolist() == want, label


def test_orbits_partition_the_points(s4):
    act = conjugation_action(s4, s4.full_set())
    seen = set()
    total = 0
    for a in s4.elements():
        if a not in seen:
            orb = set(orbit(act, a).indices())
            assert not (orb & seen)
            seen |= orb
            total += len(orb)
    assert total == 24


@given(st.integers(0, 23))
@settings(max_examples=30, deadline=None)
def test_orbit_size_divides_acting_order(s4, a):
    h = closure(s4, [1, 8])
    act = conjugation_action(s4, h)
    assert h.card % orbit(act, a).card == 0


# -- the mod-p fixed point congruence ------------------------------------


def test_mpl_translation_cosets_of_self(s3):
    h = members(s3, [0, 2])
    act = left_translation_action(s3, h, h, s3.full_set())
    assert act.points.size == 3
    assert fixed_points(act).card == 1
    chk = mod_p_fixed_point_check(act, 2)
    assert chk.ok and (chk.lhs, chk.rhs) == (1, 1)


def test_mpl_requires_prime(s3):
    act = conjugation_action(s3, members(s3, [0, 3, 4]))
    with pytest.raises(NotPrime):
        mod_p_fixed_point_check(act, 4)


def test_mpl_requires_p_power(s3):
    act = conjugation_action(s3, s3.full_set())  # |H| = 6 is not a 2-power
    with pytest.raises(NotPPower):
        mod_p_fixed_point_check(act, 2)


def test_mpl_trivial_acting_group(s3):
    act = conjugation_action(s3, singleton(s3.carrier, s3.unit))
    chk = mod_p_fixed_point_check(act, 3)  # p^0 case
    assert chk.ok and chk.lhs == chk.rhs


def test_mpl_across_p_subgroups(s4):
    full = s4.full_set()
    for h in subgroup_sample(s4):
        if h.card in (2, 4, 8):
            act = left_translation_action(s4, h, h, full)
            assert mod_p_fixed_point_check(act, 2).ok


# -- coset translation ---------------------------------------------------


def test_translation_action_z12(z12):
    act = left_translation_action(
        z12, members(z12, [0, 6]), members(z12, [0, 4, 8]), z12.full_set()
    )
    assert act.point_labels == (0, 1, 2, 3)
    assert act.table[1].tolist() == [2, 3, 0, 1]  # the row of 6
    assert fixed_points(act).card == 0


def test_translation_by_trivial_group(s3):
    h = singleton(s3.carrier, s3.unit)
    l = members(s3, [0, 2])
    act = left_translation_action(s3, h, l, s3.full_set())
    assert act.points.size == 3
    assert fixed_points(act).card == 3


def test_translation_matches_coset_arithmetic(s4):
    rows = oracles.table_rows(s4)
    h = closure(s4, [3])
    l = closure(s4, [1, 2])
    act = left_translation_action(s4, h, l, s4.full_set())
    lset = frozenset(l.indices())
    for x, row in zip(h, act.table):
        for i, r in enumerate(act.point_labels):
            got = act.point_labels[row[i]]
            want = min(rows[rows[x][r]][m] for m in lset)
            assert got == want


# -- conjugation on families of sets -------------------------------------


def test_normal_singleton_family(s3):
    fam = [members(s3, A3) for A3 in [(0, 3, 4)]]
    act = conjugation_action_on_subsets(s3, s3.full_set(), fam)
    assert fixed_points(act).card == 1


def test_s3_order_two_family_single_orbit(s3):
    fam = [members(s3, [0, t]) for t in (1, 2, 5)]
    act = conjugation_action_on_subsets(s3, s3.full_set(), fam)
    assert orbit(act, 0).card == 3


def test_family_not_closed(s3):
    fam = [members(s3, [0, 1])]  # conjugates escape the family
    with pytest.raises(FamilyNotClosed) as exc:
        conjugation_action_on_subsets(s3, s3.full_set(), fam)
    assert exc.value.index == 0


def per_cell_subset_table(g, acting, family):
    """The subset action's table the slow way: one conjugate_set per cell,
    raising FamilyNotClosed at the first (x, i) in row-major order."""
    index = {m.bits: i for i, m in enumerate(family)}
    table = []
    for x in g.elements():
        row = []
        for i, m in enumerate(family):
            j = index.get(conjugate_set(g, m, x).bits)
            if j is None:
                if x in acting:
                    raise FamilyNotClosed(x, i)
                j = i
            row.append(j)
        table.append(row)
    return table


def test_subset_action_matches_per_cell_conjugation(small_catalog):
    # Sylow families under the whole group, and the conjugates of each
    # cyclic subgroup under a Sylow subgroup, whose other rows the
    # reference fills and the action does not hold
    for label, g in small_catalog:
        full = g.full_set()
        for p in prime_divisors(g.order):
            cert = sylow_subgroup(g, full, p)
            cases = [(full, sylow_family(g, full, p, cert))]
            cases += [(cert.subgroup, conjugacy_family(g, cert.subgroup, closure(g, [x])))
                      for x in g.elements()]
            for acting, family in cases:
                act = conjugation_action_on_subsets(g, acting, family)
                want = per_cell_subset_table(g, acting, family)
                assert act.table.tolist() == [want[x] for x in acting], label


def test_family_not_closed_witness_is_the_first_cell(s4):
    base = closure(s4, [1])
    family = conjugacy_family(s4, s4.full_set(), base)
    # under a proper acting subgroup, C3 or C4, the witness is still a
    # group element, not the position of its row
    for acting in (s4.full_set(), closure(s4, [8]), closure(s4, [9])):
        for dropped in range(len(family)):
            rest = family[:dropped] + family[dropped + 1:]
            with pytest.raises(FamilyNotClosed) as want:
                per_cell_subset_table(s4, acting, rest)
            with pytest.raises(FamilyNotClosed) as got:
                conjugation_action_on_subsets(s4, acting, rest)
            assert (got.value.x, got.value.index) == (want.value.x, want.value.index)


def test_subset_action_matches_conjugate_set(s4):
    base = closure(s4, [1])
    fam_bits = sorted({conjugate_set(s4, base, x).bits for x in s4.elements()})
    fam = [ElemSet(s4.carrier, b) for b in fam_bits]
    act = conjugation_action_on_subsets(s4, s4.full_set(), fam)
    for x in (0, 5, 17):
        for i, f in enumerate(fam):
            assert fam[act.table[x, i]].bits == conjugate_set(s4, f, x).bits


# -- the batched translation actions ---------------------------------------


def single_counts(g, h):
    """What translation_batch counts for h, by the single-instance route."""
    full = g.full_set()
    act = left_translation_action(g, h, h, full)
    orb, stab_order, stab_index, _ = orbit_stabilizer_counts(act)
    return (left_index(g, h, full), orb.tolist(), stab_order.tolist(), stab_index.tolist(),
            fixed_points(act).card)


def split_counts(b):
    """A batch's counts as one (index, orbits, stabilizer orders, stabilizer
    indices, fixed points) per subgroup, the points' lists cut by b.index."""
    cut = np.cumsum(b.index)[:-1]
    return list(zip(b.index.tolist(), *([part.tolist() for part in np.split(v, cut)]
                                        for v in (b.orbit, b.stab_order, b.stab_index)),
                    b.fixed.tolist()))


def batched_counts(g, sample):
    out = []
    for hs in action_mod.sample_batches(g, sample):
        out += split_counts(action_mod.translation_batch(g, hs))
    return out


def relabeled(spec, seed):
    """The group of spec with element a renamed perm[a], perm seeded."""
    t = build(spec).mul
    perm = np.random.default_rng(seed).permutation(len(t))
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return from_cayley_table(len(t), out)


def test_batch_matches_the_single_instance_route_on_the_catalog():
    for label, g in catalog():
        sample = subgroup_sample(g)
        assert batched_counts(g, sample) == [single_counts(g, h) for h in sample], label


def test_batch_matches_the_single_instance_route_in_tiny_batches_and_blocks(monkeypatch):
    # 64-cell batches hold several orders of the smallest groups and cut
    # the classes of the others; 7-entry blocks cut every pass
    monkeypatch.setattr(action_mod, "BATCH_CELLS", 64)
    monkeypatch.setattr(group_mod, "CHECK_CELLS", 7)
    test_batch_matches_the_single_instance_route_on_the_catalog()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec", [GroupSpec.symmetric(4),
                                  GroupSpec.product(GroupSpec.dihedral(4), GroupSpec.cyclic(2))],
                         ids=["s4", "d4xc2"])
@pytest.mark.parametrize("budget", [None, 64], ids=["whole classes", "tiny batches"])
def test_batch_matches_the_single_instance_route_on_relabelings(monkeypatch, spec, seed, budget):
    if budget is not None:
        monkeypatch.setattr(action_mod, "BATCH_CELLS", budget)
        monkeypatch.setattr(group_mod, "CHECK_CELLS", 7)
    g = relabeled(spec, seed)
    sample = subgroup_sample(g)
    assert batched_counts(g, sample) == [single_counts(g, h) for h in sample]


def test_batch_refuses_what_it_cannot_prove(s3, s4):
    sample = subgroup_sample(s4)
    twos = [h for h in sample if h.card == 2]
    three = next(x for x in s4.elements() if closure(s4, [x]).card == 3)
    not_closed = members(s4, [s4.unit, three])
    no_unit = members(s4, [x for x in twos[0] if x != s4.unit] + [three])
    with pytest.raises(InvalidSubgroup, match="h must be a subgroup"):
        action_mod.translation_batch(s4, twos + [not_closed])
    with pytest.raises(InvalidSubgroup, match="h must be a subgroup"):
        action_mod.translation_batch(s4, [no_unit] + twos)
    # a batch of several orders counts what its runs of one order count
    # alone, also where one order makes two runs, each checked against the
    # table's count for its own first subgroup
    fours = [h for h in sample if h.card == 4]
    for runs in ([twos, [sample[-1]], fours], [twos[:2], fours, twos[2:]]):
        assert split_counts(action_mod.translation_batch(s4, sum(runs, []))) == sum(
            (split_counts(action_mod.translation_batch(s4, hs)) for hs in runs), [])
    with pytest.raises(CarrierMismatch):
        action_mod.translation_batch(s4, twos + [members(s3, [0, 1])])
    assert len(action_mod.translation_batch(s4, twos).index) == len(twos)


@pytest.mark.parametrize("spec", [GroupSpec.symmetric(3), GroupSpec.dihedral(4),
                                  GroupSpec.symmetric(4)], ids=["s3", "d4", "s4"])
def test_a_batch_refuses_exactly_the_sets_the_naive_oracle_refuses(spec):
    # every set holding the unit in S3 and D4; in S4, 200 seeded ones,
    # each a sample subgroup with up to two other members toggled
    g = build(spec)
    rows = oracles.table_rows(g)
    others = [x for x in g.elements() if x != g.unit]
    if g.order < 24:
        sets = [[x for j, x in enumerate(others) if bits >> j & 1]
                for bits in range(1 << len(others))]
    else:
        rng, sample = np.random.default_rng(0), subgroup_sample(g)
        sets = []
        for _ in range(200):
            pick = set(sample[rng.integers(len(sample))].indices())
            pick ^= set(rng.choice(others, size=rng.integers(3), replace=False).tolist())
            sets.append(sorted(pick - {g.unit}))
    refusals = 0
    for pts in sets:
        h = members(g, [g.unit, *pts])
        try:
            action_mod.translation_batch(g, [h])
            refused = False
        except InvalidSubgroup:
            refused = True
        assert refused != oracles.naive_is_subgroup(rows, g.unit, frozenset(h.indices())), pts
        refusals += refused
    assert 0 < refusals < len(sets)


def corrupted_columns(columns, seed, swap):
    """A copy of a group's transposed table with, seeded, one entry
    overwritten or (swap) two columns exchanged, which keeps every row a
    permutation."""
    cols = columns.copy()
    r, c, v = np.random.default_rng(seed).integers(len(cols), size=3)
    if swap:
        cols[:, [c, v]] = cols[:, [v, c]]
    else:
        cols[r, c] = v
    return cols


def test_a_corrupted_column_cache_never_passes_unnoticed(monkeypatch, s4):
    # the batch reads the cached columns, the single-instance route the
    # table: a corruption must raise InternalInvariant naming a subgroup
    # of its batch, or fail a check of verify, unless no count changes
    sample = subgroup_sample(s4)
    want = [single_counts(s4, h) for h in sample]
    columns, faults = s4.columns(), set()
    for seed in range(40):
        for swap in (False, True):
            monkeypatch.setattr(s4, "_columns", corrupted_columns(columns, seed, swap))
            got, raised = [], False
            for hs in action_mod.sample_batches(s4, sample):
                try:
                    got += batched_counts(s4, hs)
                except InternalInvariant as e:
                    fact, _, named = str(e).partition(" fails for the subgroup ")
                    assert named in [str(list(h.indices())) for h in hs], str(e)
                    faults.add(fact.split(" == ")[0])
                    got, raised = got + [None] * len(hs), True
            assert raised or got == want or not verify_group(s4, "s4").ok, (seed, swap)
    assert faults == {"[G : H]", "each acting element permutes the cosets", "(x*y).z"}


def test_the_stabilizer_trap_stands_without_the_law(monkeypatch, s4):
    # with the law's check patched out, S4's column cache corrupted at seed
    # 5 still maps each row into the cosets, keeps the unit's row the
    # identity and the indices right: the stabilizers' closure catches it
    sample = subgroup_sample(s4)
    monkeypatch.setattr(action_mod, "_law", lambda *args: None)
    monkeypatch.setattr(s4, "_columns", corrupted_columns(s4.columns(), 5, False))
    with pytest.raises(InternalInvariant, match="each stabilizer is a subgroup fails") as err:
        action_mod.translation_batch(s4, sample)
    named = str(err.value).partition(" fails for the subgroup ")[2]
    assert named in [str(list(h.indices())) for h in sample]


def test_a_batch_of_one_subgroup_counts_its_index_on_the_table(monkeypatch, s4):
    # a batch of one subgroup has no second index in its chunk to compare
    # with: a corrupted column cache must raise, or leave the index right
    lone = [h for h in subgroup_sample(s4) if h.card in (1, s4.order)]
    assert len(lone) == 2
    columns = s4.columns()
    for seed in range(40):
        for swap in (False, True):
            monkeypatch.setattr(s4, "_columns", corrupted_columns(columns, seed, swap))
            for h in lone:
                try:
                    index = action_mod.translation_batch(s4, [h]).index.tolist()
                except InternalInvariant:
                    continue
                assert index == [s4.order // h.card], (seed, swap, h.card)


def batch_peak(g, hs):
    """The traced peak of translation_batch(g, hs), in bytes."""
    tracemalloc.start()
    try:
        action_mod.translation_batch(g, hs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_batch_temporary_exceeds_the_cell_budget(monkeypatch):
    spec = GroupSpec.q8()
    for _ in range(5):
        spec = GroupSpec.product(spec, GroupSpec.cyclic(2))
    g = build(spec)
    budget = g.order ** 2
    monkeypatch.setattr(action_mod, "BATCH_CELLS", budget)
    sample = subgroup_sample(g)
    g.columns()
    bound = 8 * 8 * budget  # eight int64 arrays the size of the budget
    batches = list(action_mod.sample_batches(g, sample))
    assert sum(batches, []) == sample
    for hs in batches:
        assert sum(h.card for h in hs) * g.order <= budget
        assert batch_peak(g, hs) <= bound, (hs[0].card, len(hs))
    # the measure sees a class gathered whole
    assert batch_peak(g, [h for h in sample if h.card == 8]) > bound


@pytest.mark.parametrize("spec", [GroupSpec.product(GroupSpec.dihedral(6), GroupSpec.dihedral(6)),
                                  GroupSpec.product(GroupSpec.symmetric(5), GroupSpec.cyclic(2))],
                         ids=["d6xd6", "s5xc2"])
def test_merged_batches_stay_small(spec):
    # the sample's batches hold several orders each, and each stays within
    # 2.5 MiB at its traced peak
    g = build(spec)
    sample = subgroup_sample(g)
    g.columns()
    batches = list(action_mod.sample_batches(g, sample))
    assert sum(batches, []) == sample
    assert max(len({h.card for h in hs}) for hs in batches) > 2
    for hs in batches:
        peak = batch_peak(g, hs)
        assert peak <= 2.5 * 2 ** 20, ([h.card for h in hs], peak / 2 ** 20)


def test_verify_holds_one_batch_of_the_sample_at_a_time():
    # Q8 x C2^5's sample takes 46 batches; verify reduces each to its
    # verdicts as it is made, so a second verify stays within 4 MiB traced
    spec = GroupSpec.q8()
    for _ in range(5):
        spec = GroupSpec.product(spec, GroupSpec.cyclic(2))
    g = build(spec)
    verify_group(g, "q8xc2^5")  # the group's caches are filled once
    tracemalloc.start()
    try:
        assert verify_group(g, "q8xc2^5").ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_no_batch_at_the_order_bound_peaks_past_18_mib():
    # C1024's sample: the whole group's batch, one subgroup of 1,024
    # members and 2^20 pairs, sets the peak
    g = build(GroupSpec.cyclic(1024))
    sample = subgroup_sample(g)
    g.columns()
    for hs in action_mod.sample_batches(g, sample):
        peak = batch_peak(g, hs)
        assert peak <= 18 * 2 ** 20, ([h.card for h in hs], peak / 2 ** 20)
