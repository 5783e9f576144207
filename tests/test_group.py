import gc
import itertools
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fingroups import (
    GroupSpec,
    build,
    check_identities,
    from_cayley_table,
    symmetric_elements,
)
from fingroups.errors import (
    GroupTheoryError,
    InternalInvariant,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NonAssociative,
    UnsupportedSpec,
)
from fingroups import group as group_mod
from fingroups.group import MAX_GROUP_ORDER, MAX_PRODUCT_DEPTH, MAX_SYMMETRIC_DEGREE
from fingroups.suite import catalog_specs, verify_group

import oracles


# -- table validation ----------------------------------------------------


def test_trivial_table():
    g = from_cayley_table(1, [[0]])
    assert g.order == 1
    assert g.unit == 0


def test_cyclic_addition_table():
    t = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    g = from_cayley_table(3, t)
    assert g.unit == 0
    assert g.inv[1] == 2


def test_malformed_shape():
    with pytest.raises(MalformedTable):
        from_cayley_table(2, [[0, 1]])
    with pytest.raises(MalformedTable):
        from_cayley_table(0, [])


def test_malformed_entries():
    with pytest.raises(MalformedTable):
        from_cayley_table(2, [[0, 1], [1, 2]])
    with pytest.raises(MalformedTable):
        from_cayley_table(2, [[0, 1], [1, -1]])
    with pytest.raises(MalformedTable):
        from_cayley_table(2, [[0.0, 1.0], [1.0, 0.0]])


def test_left_zero_semigroup_has_no_identity():
    with pytest.raises(NoIdentity):
        from_cayley_table(2, [[0, 0], [1, 1]])


def test_min_table_lacks_inverses():
    # min(x, y) on {0,1,2}: 2 is a two-sided identity but 0 is absorbing
    t = [[min(i, j) for j in range(3)] for i in range(3)]
    with pytest.raises(NoInverse) as exc:
        from_cayley_table(3, t)
    assert exc.value.x == 0


def test_nonassociative_reports_first_triple():
    t = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    # the scan promises the lexicographically first bad triple; recompute
    # it here the slow way rather than trusting the implementation
    expected = next(
        (x1, x2, x3)
        for x1, x2, x3 in itertools.product(range(3), repeat=3)
        if t[t[x1][x2]][x3] != t[x1][t[x2][x3]]
    )
    with pytest.raises(NonAssociative) as exc:
        from_cayley_table(3, t)
    assert exc.value.triple == expected


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.describe())
def test_every_catalog_table_is_associative_by_the_oracle(spec):
    g = build(spec)  # validated by Light's test
    assert oracles.naive_first_nonassociative(oracles.table_rows(g)) is None


def block_ends(monkeypatch, n: int, block_rows: int | None) -> list[int]:
    """Set group_mod.CHECK_CELLS to block_rows rows of an order-n table
    plus one entry (None keeps the default, one block at these orders) and
    return the last line of the first block and of the table, which sits in
    a trailing partial block when the step does not divide n; a line is a
    row or a column, as the check reads blocks of either."""
    if block_rows is not None:
        monkeypatch.setattr(group_mod, "CHECK_CELLS", block_rows * n + 1)
    step = max(1, group_mod.CHECK_CELLS // n)
    return [min(step, n) - 1, n - 1]


def test_blocks_are_whole_lines_and_at_least_one(monkeypatch):
    monkeypatch.setattr(group_mod, "CHECK_CELLS", 7)
    assert group_mod.blocks(10) == [slice(0, 7), slice(7, 10)]
    assert group_mod.blocks(7) == [slice(0, 7)] and group_mod.blocks(9, 3, 7) == [slice(7, 9)]
    assert group_mod.blocks(9, 3) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8),
                                      slice(8, 9)]
    assert group_mod.blocks(9, 3, 5) == [slice(5, 7), slice(7, 9)]
    assert group_mod.blocks(3, 8) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert group_mod.blocks(4, 3, 4) == []
    # lines of their own widths, each held as wide as the widest of its block
    widths = np.array([1, 2, 3, 1, 1, 8, 2])
    assert group_mod.blocks(7, widths) == [slice(0, 2), slice(2, 4), slice(4, 5), slice(5, 6),
                                          slice(6, 7)]
    assert group_mod.blocks(5, widths, 3) == [slice(3, 5)]
    assert group_mod.blocks(3, widths, 3) == []


# block_ends' block_rows: one row, five rows plus one entry, the default
BLOCK_ROWS = [1, 5, None]
SMALL_SPECS = pytest.mark.parametrize(
    "spec",
    [GroupSpec.symmetric(4), GroupSpec.dihedral(6),
     GroupSpec.product(GroupSpec.q8(), GroupSpec.cyclic(2))],
    ids=lambda s: s.describe(),
)


@SMALL_SPECS
def test_corruptions_report_the_oracles_first_triple(monkeypatch, spec):
    """One-cell changes off the unit's row and column that keep every
    column's unit entry: the identity and the inverses survive, so only
    associativity can fail, and it must fail at the oracle's triple.  The
    checks read the table in blocks of each of BLOCK_ROWS rows, and the
    first changes fall in a row that ends a block."""
    g = build(spec)
    for block_rows in BLOCK_ROWS:
        with monkeypatch.context() as mp:
            corrupt_off_the_unit(mp, g, block_rows)


def corrupt_off_the_unit(mp, g, block_rows: int | None) -> None:
    ends = [r for r in block_ends(mp, g.order, block_rows) if r != g.unit]
    rng = np.random.default_rng(g.order)
    others = [x for x in range(g.order) if x != g.unit]
    for trial in range(60):
        rows = oracles.table_rows(g)
        i, j = (int(x) for x in rng.choice(others, size=2))
        if trial < 6:
            i = ends[trial % len(ends)]
        if rows[i][j] == g.unit:
            continue
        rows[i][j] = int(rng.choice([v for v in others if v != rows[i][j]]))
        with pytest.raises(NonAssociative) as exc:
            from_cayley_table(g.order, rows)
        assert exc.value.triple == oracles.naive_first_nonassociative(rows), (block_rows, i, j)


# the smallest loop that is not a group: a Latin square with unit 0
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
# LOOP5 x Z2 with (i, k) at 2*i + k: the first generator, 1 = (0, 1), passes
# Light's test, and the second, 2 = (1, 0), fails it
LOOP5_X_Z2 = [[LOOP5[a // 2][b // 2] * 2 + (a + b) % 2 for b in range(10)] for a in range(10)]


@pytest.mark.parametrize("cells", [None, 3, 1], ids=["one_block", "cells3", "cells1"])
@pytest.mark.parametrize("rows", [LOOP5, LOOP5_X_Z2], ids=["loop5", "loop5xz2"])
def test_nonassociative_loop_reports_the_oracles_first_triple(monkeypatch, rows, cells):
    # in one block, and with blocks narrower than a row, so the row scan
    # reads each row a range of columns at a time
    if cells is not None:
        monkeypatch.setattr(group_mod, "CHECK_CELLS", cells)
    with pytest.raises(NonAssociative) as exc:
        from_cayley_table(len(rows), rows)
    assert exc.value.triple == oracles.naive_first_nonassociative(rows)


def test_generator_failure_without_a_witness_is_an_internal_invariant(monkeypatch):
    # Light's test rejects the loop; a row scan that confirms nothing means
    # the library contradicts itself, which is never reported as bad input
    monkeypatch.setattr(group_mod, "_first_nonassociative", lambda t: None)
    with pytest.raises(InternalInvariant):
        from_cayley_table(5, LOOP5)


def relabeled(rows: list[list[int]], perm) -> list[list[int]]:
    """The same group with point a renamed perm[a]."""
    out = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = int(perm[v])
    return out


def unit_and_inverses(rows: list[list[int]]):
    """from_cayley_table's verdict in the shape of the oracle's."""
    try:
        g = from_cayley_table(len(rows), rows)
    except NoIdentity:
        return ("NoIdentity",)
    except NoInverse as e:
        return ("NoInverse", e.x)
    return ("unit", g.unit, g.inv.tolist())


@pytest.mark.parametrize("spec", [s for s in catalog_specs() if build(s).order <= 24],
                         ids=lambda s: s.describe())
def test_unit_and_inverses_match_the_oracle(spec):
    rows = oracles.table_rows(build(spec))
    perm = np.random.default_rng(len(rows)).permutation(len(rows))
    for table in (rows, relabeled(rows, perm)):  # the unit at 0, then elsewhere
        assert unit_and_inverses(table) == oracles.naive_unit_and_inverses(table)


@SMALL_SPECS
def test_corruptions_removing_the_unit_or_an_inverse_match_the_oracle(monkeypatch, spec):
    """Seeded changes to a relabeled table: one cell of the unit's row or
    column (no unit is left), or the unit entry of one or two columns off
    it (those columns have no left inverse; the first must be named).  The
    inverses are read in blocks of each of BLOCK_ROWS columns, and the
    first changes fall in a line that ends a block."""
    g = build(spec)
    for block_rows in BLOCK_ROWS:
        with monkeypatch.context() as mp:
            remove_the_unit_or_an_inverse(mp, g, block_rows)


def remove_the_unit_or_an_inverse(mp, g, block_rows: int | None) -> None:
    n = g.order
    ends = block_ends(mp, n, block_rows)
    rng = np.random.default_rng(n)
    for trial in range(60):
        perm = rng.permutation(n)
        rows = relabeled(oracles.table_rows(g), perm)
        unit = int(perm[g.unit])
        if trial % 3 == 0:
            x = int(rng.integers(n))
            cells = [(unit, x) if rng.integers(2) else (x, unit)]
        else:
            xs = rng.choice([x for x in range(n) if x != unit], size=trial % 3, replace=False)
            cells = [([r[x] for r in rows].index(unit), int(x)) for x in xs]
        end = ends[trial % 2]
        if trial < 6 and trial % 3 == 0:
            cells = [(end, unit) if trial else (unit, end)]  # the unit's column or row
        elif trial < 6 and end != unit and end not in xs:
            cells[0] = ([r[end] for r in rows].index(unit), end)  # the unit entry of column end
        for i, j in cells:
            rows[i][j] = int(rng.choice([v for v in range(n) if v != rows[i][j]]))
        want = oracles.naive_unit_and_inverses(rows)
        assert want[0] == ("NoIdentity" if trial % 3 == 0 else "NoInverse")
        assert unit_and_inverses(rows) == want, (block_rows, cells)


@given(st.integers(2, 8), st.data())
def test_single_cell_corruption_rejected(n, data):
    """Any one-cell change to a valid table breaks a row of the Latin
    square, so no corrupted table can pass all three axioms."""
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda v: v != t[i][j]))
    t[i][j] = v
    with pytest.raises(GroupTheoryError):
        from_cayley_table(n, t)


def test_validation_holds_the_int32_copy_and_blocks_only(monkeypatch):
    """from_cayley_table's peak on S6 and Q8 x C2^7 (order 1,024), accepted
    and with one cell changed off the unit's row and column: the table's
    int32 copy plus four int64 entries per entry of a block."""
    q = GroupSpec.q8()
    for _ in range(7):
        q = GroupSpec.product(q, GroupSpec.cyclic(2))

    def peak(n, table):
        tracemalloc.start()
        try:
            try:
                from_cayley_table(n, table)
            except NonAssociative:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for g in (build(GroupSpec.symmetric(6)), build(q)):
        n = g.order
        assert g.unit == 0 and g.inv[n - 1] != 1
        table = np.array(g.mul)
        bad = table.copy()
        bad[n - 1, 1] = bad[n - 1, 1] % (n - 1) + 1  # neither the unit nor itself
        with pytest.raises(NonAssociative):
            from_cayley_table(n, bad)
        bound = 4 * n * n + 32 * group_mod.CHECK_CELLS
        assert peak(n, table) <= bound and peak(n, bad) <= bound, n
    # the measure sees one block holding the whole table
    monkeypatch.setattr(group_mod, "CHECK_CELLS", n * n)
    assert peak(n, table) > bound


def test_export_roundtrip(s3):
    rebuilt = from_cayley_table(s3.order, s3.export_table())
    assert rebuilt.unit == s3.unit
    assert np.array_equal(rebuilt.mul, s3.mul)
    assert np.array_equal(rebuilt.inv, s3.inv)


def test_export_is_a_writable_copy(s4):
    table = s4.export_table()
    assert np.array_equal(table, s4.mul) and table.dtype.kind == "i"
    assert not np.shares_memory(table, s4.mul)
    table[0, 0] = 1  # writable, and the group's table is untouched
    assert s4.mul[0, 0] == 0


def test_tables_are_read_only(z6):
    with pytest.raises(ValueError):
        z6.mul[0, 0] = 3


def test_an_f_ordered_table_is_held_c_ordered():
    # rows() views whole rows, and the action gathers read ravel() in place
    table = build(GroupSpec.symmetric(6)).export_table()
    g = from_cayley_table(720, np.asfortranarray(table))
    assert g.mul.flags.c_contiguous
    assert np.shares_memory(g.mul.ravel(), g.mul)
    assert (verify_group(g, "s6").to_json(with_timing=False)
            == verify_group(from_cayley_table(720, table), "s6").to_json(with_timing=False))


# -- catalog builders ----------------------------------------------------


def test_cyclic_is_addition():
    g = build(GroupSpec.cyclic(6))
    assert g.order == 6
    assert g.unit == 0
    assert all(g.mul[i, j] == (i + j) % 6 for i in range(6) for j in range(6))


def test_dihedral_relations():
    n = 5
    g = build(GroupSpec.dihedral(n))
    assert g.order == 2 * n
    r, s = 1, n  # rotation by one step, first reflection
    # r has order n, s has order 2, and s r s = r^-1
    assert oracles.naive_order(oracles.table_rows(g), g.unit, r) == n
    assert g.mul[s, s] == g.unit
    assert g.mul[g.mul[s, r], s] == g.inv[r]


def test_dihedral_table_matches_the_case_rule():
    # the relations alone would also pass a relabelled table
    for n in range(1, 61):
        t = group_mod._dihedral_table(n)
        assert t.dtype == group_mod.TABLE_DTYPE
        assert t.tolist() == oracles.naive_dihedral_rows(n), n


def test_quaternion_table_matches_the_unit_rule():
    t = group_mod._quaternion_table()
    assert t.dtype == group_mod.TABLE_DTYPE
    assert t.tolist() == oracles.naive_quaternion_rows()


def test_symmetric_lex_order_and_composition():
    for n in range(1, MAX_SYMMETRIC_DEGREE + 1):
        perms = symmetric_elements(n)
        assert perms == sorted(itertools.permutations(range(n)))  # lexicographic
        index = {p: i for i, p in enumerate(perms)}
        want = [[index[oracles.permutation_compose(p, q)] for q in perms]  # q, then p
                for p in perms]
        t = group_mod._symmetric_table(n)
        assert t.dtype == group_mod.TABLE_DTYPE and t.tolist() == want, n
        g = build(GroupSpec.symmetric(n))
        assert g.unit == 0 and g.mul.tolist() == want, n


def test_symmetric_degree_bound():
    assert build(GroupSpec.symmetric(6)).order == 720
    with pytest.raises(UnsupportedSpec):
        build(GroupSpec.symmetric(7))


def test_quaternion_fingerprint(q8):
    # one element of order 1, one of order 2, six of order 4: that
    # signature separates Q8 from every other group of order 8
    orders = oracles.element_orders(oracles.table_rows(q8), q8.unit)
    by_order = sorted(orders.values())
    assert by_order == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not oracles.naive_is_abelian(oracles.table_rows(q8))


def test_product_structure(s3):
    g = build(GroupSpec.product(GroupSpec.cyclic(2), GroupSpec.symmetric(3)))
    assert g.order == 12
    assert not oracles.naive_is_abelian(oracles.table_rows(g))
    # componentwise: index i1*|G2| + i2
    for i1, j1 in itertools.product(range(2), repeat=2):
        for i2, j2 in itertools.product(range(6), repeat=2):
            a = i1 * 6 + i2
            b = j1 * 6 + j2
            want = ((i1 + j1) % 2) * 6 + s3.mul[i2, j2]
            assert g.mul[a, b] == want


def test_product_of_abelian_is_abelian(klein):
    assert oracles.naive_is_abelian(oracles.table_rows(klein))
    assert klein.order == 4


@pytest.mark.parametrize(
    "spec, order",
    [
        (GroupSpec.cyclic(100000), 100000),
        (GroupSpec.dihedral(1000000), 2000000),
        (GroupSpec.product(GroupSpec.cyclic(1000), GroupSpec.cyclic(1000)), 1000000),
    ],
    ids=lambda v: v.describe() if isinstance(v, GroupSpec) else str(v),
)
def test_order_bound_refuses_before_any_table(monkeypatch, spec, order):
    def no_table(*args):
        raise AssertionError("a table was built past the order bound")

    for name in ("_cyclic_table", "_dihedral_table", "_product_table", "from_cayley_table"):
        monkeypatch.setattr(group_mod, name, no_table)
    assert order > MAX_GROUP_ORDER
    with pytest.raises(UnsupportedSpec, match=f"order {order} exceeds"):
        build(spec)


def test_order_bound_admits_up_to_the_maximum(monkeypatch):
    class Built(Exception):
        pass

    def sentinel(*args):
        raise Built

    monkeypatch.setattr(group_mod, "_cyclic_table", sentinel)
    with pytest.raises(Built):
        build(GroupSpec.cyclic(MAX_GROUP_ORDER))
    with pytest.raises(UnsupportedSpec):
        build(GroupSpec.cyclic(MAX_GROUP_ORDER + 1))
    assert build(GroupSpec.symmetric(MAX_SYMMETRIC_DEGREE)).order <= MAX_GROUP_ORDER


def nested_spec(levels):
    spec = GroupSpec.cyclic(1)
    for _ in range(levels):
        spec = GroupSpec.product(spec, GroupSpec.cyclic(1))
    return spec


def test_product_nesting_is_bounded_for_specs_built_in_code():
    assert build(nested_spec(MAX_PRODUCT_DEPTH)).order == 1
    for levels in (MAX_PRODUCT_DEPTH + 1, 1200):
        with pytest.raises(UnsupportedSpec, match=f"nest at most {MAX_PRODUCT_DEPTH} levels"):
            build(nested_spec(levels))
    # one part shared by both sides 64 times over: 2^64 paths, 65 objects
    shared = GroupSpec.cyclic(1)
    for _ in range(64):
        shared = GroupSpec.product(shared, shared)
    with pytest.raises(UnsupportedSpec, match="nest at most"):
        build(shared)


def shared_spec(levels: int, leaf: GroupSpec) -> GroupSpec:
    """product(s, s) over leaf, levels times: 2^levels paths, levels + 1 parts."""
    spec = leaf
    for _ in range(levels):
        spec = GroupSpec.product(spec, spec)
    return spec


def test_a_part_shared_at_every_level_is_built_once(monkeypatch):
    spec = shared_spec(MAX_PRODUCT_DEPTH, GroupSpec.cyclic(1))  # 2^32 paths
    sizes = []
    validate = group_mod.from_cayley_table
    monkeypatch.setattr(group_mod, "from_cayley_table",
                        lambda n, table: sizes.append(n) or validate(n, table))
    assert build(spec).order == 1
    assert sizes == [1] * (MAX_PRODUCT_DEPTH + 1)
    # with a part of order 2 the orders square at each level
    with pytest.raises(UnsupportedSpec, match=f"order {2**32} exceeds"):
        build(shared_spec(5, GroupSpec.cyclic(2)))
    with pytest.raises(UnsupportedSpec, match=f"order {2**16} exceeds"):
        build(shared_spec(4, GroupSpec.cyclic(2)))
    sizes.clear()
    g = build(shared_spec(3, GroupSpec.cyclic(2)))
    assert sizes == [2, 4, 16, 256]
    z2 = oracles.table_rows(build(GroupSpec.cyclic(2)))
    want = z2
    for _ in range(3):
        want = oracles.naive_product_rows(want, want)
    assert g.mul.tolist() == want


def test_a_shared_part_at_the_depth_bound_is_refused_at_once():
    # the exact order would have 2^32 bits, a 512 MiB integer
    code = ("from fingroups import GroupSpec, build\n"
            "s = GroupSpec.cyclic(2)\n"
            f"for _ in range({MAX_PRODUCT_DEPTH}):\n"
            "    s = GroupSpec.product(s, s)\n"
            "build(s)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert (f"UnsupportedSpec: group order 2^{2**MAX_PRODUCT_DEPTH} or more exceeds "
            f"the maximum of {MAX_GROUP_ORDER}") in proc.stderr


def test_build_frees_its_groups_without_the_cyclic_collector():
    # a reference cycle would keep every built table alive until a
    # collection, which numpy-heavy code triggers rarely
    spec = GroupSpec.product(GroupSpec.symmetric(3), GroupSpec.cyclic(2))
    gc.collect()
    gc.disable()
    try:
        built = weakref.ref(build(spec))  # outside the assert, which would hold it
        assert built() is None
    finally:
        gc.enable()


def naive_spec_rows(spec: GroupSpec) -> list[list[int]]:
    """A spec's table by one recursion per path, products composed by the oracle."""
    if spec.kind != "product":
        return oracles.table_rows(build(spec))
    a, b = spec.parts
    return oracles.naive_product_rows(naive_spec_rows(a), naive_spec_rows(b))


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.describe())
def test_catalog_tables_match_the_per_path_composition(spec):
    assert build(spec).mul.tolist() == naive_spec_rows(spec)


def test_spec_validation():
    with pytest.raises(UnsupportedSpec):
        build(GroupSpec.cyclic(0))
    with pytest.raises(UnsupportedSpec):
        build(GroupSpec.dihedral(0))


def test_describe_grammar_roundtrip():
    spec = GroupSpec.product(GroupSpec.q8(), GroupSpec.cyclic(2))
    assert spec.describe() == "product:(q8,cyclic:2)"
    assert GroupSpec.symmetric(4).describe() == "symmetric:4"


# -- identity laws -------------------------------------------------------

LAW_NAMES = [
    "identity:right_unit",
    "identity:unit_self_inverse",
    "identity:right_inverse",
    "identity:inverse_involution",
    "identity:inverse_of_product",
    "identity:left_cancellation",
    "identity:right_cancellation",
    "identity:solve_right_inverse",
    "identity:solve_right_multiply",
]


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.cyclic(1),
        GroupSpec.cyclic(12),
        GroupSpec.dihedral(6),
        GroupSpec.symmetric(4),
        GroupSpec.q8(),
        GroupSpec.product(GroupSpec.cyclic(2), GroupSpec.symmetric(3)),
    ],
    ids=lambda s: s.describe(),
)
def test_identity_laws(spec):
    g = build(spec)
    checks = check_identities(g)
    assert [c.name for c in checks] == LAW_NAMES
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("spec", [GroupSpec.symmetric(4), GroupSpec.cyclic(12)],
                         ids=lambda s: s.describe())
def test_identity_witnesses_on_a_table_corrupted_after_validation(monkeypatch, spec, swap):
    # one entry overwritten, or two columns exchanged (every row stays a
    # permutation); the inverses stay those of the valid table.  The laws
    # read the table in blocks of each of BLOCK_ROWS rows or columns, and
    # the first changes fall in a line that ends a block.
    g = build(spec)
    for block_rows in BLOCK_ROWS:
        with monkeypatch.context() as mp:
            ends = block_ends(mp, g.order, block_rows)
            failed = 0
            for seed in range(10):
                t = g.mul.copy()
                r, c, v = np.random.default_rng(seed).integers(g.order, size=3)
                if seed < 4:
                    r = c = ends[seed % 2]
                shift = 1 + v % (g.order - 1)  # to another column, or another value
                if swap:
                    d = (c + shift) % g.order
                    t[:, [c, d]] = t[:, [d, c]]
                else:
                    t[r, c] = (t[r, c] + shift) % g.order
                got = check_identities(group_mod.Group(g.carrier, g.unit, g.inv.copy(), t))
                want = oracles.naive_identity_laws(t.tolist(), g.unit, g.inv.tolist())
                assert [(c.name, c.ok, c.lhs, c.rhs, c.witness) for c in got] == want, \
                    (block_rows, seed)
                failed += sum(not c.ok for c in got)
            assert failed, block_rows


def test_identity_laws_hold_blocks_only(monkeypatch):
    """check_identities' traced peak on C1024 is a few bytes per entry of a
    block, beside the table it reads; whole n-by-n laws peak at over twice
    the table."""
    g = build(GroupSpec.cyclic(1024))

    def peak():
        tracemalloc.start()
        try:
            assert all(c.ok for c in check_identities(g))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 16 * group_mod.CHECK_CELLS
    assert peak() <= bound < g.mul.nbytes
    # the measure sees one block holding the whole table
    monkeypatch.setattr(group_mod, "CHECK_CELLS", g.order ** 2)
    assert peak() > 2 * g.mul.nbytes


def test_each_identity_law_is_timed_alone(monkeypatch, s4):
    # a fake clock reading k * k seconds at its k-th read: the law between
    # reads k and k + 1 takes 2k + 1 s
    reads = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)) ** 2)
    checks = check_identities(s4)
    assert [c.name for c in checks] == LAW_NAMES
    assert [c.ms for c in checks] == [1000.0 * (2 * k + 1) for k in range(len(LAW_NAMES))]
    # in verify, whose clock reads first, the laws run one read later: every
    # law after the first keeps its time, and the first takes the rest of
    # verify's lap up to its stamp of the laws at read len(LAW_NAMES) + 2
    reads = itertools.count()
    checks = verify_group(s4, "s4").checks[:len(LAW_NAMES)]
    assert [c.name for c in checks] == LAW_NAMES
    assert [c.ms for c in checks[1:]] == [1000.0 * (2 * k + 3) for k in range(1, len(LAW_NAMES))]
    assert sum(c.ms for c in checks) == 1000.0 * (len(LAW_NAMES) + 2) ** 2


def test_verify_check_times_add_up_to_its_clock_span(monkeypatch, s4):
    # a fake clock reading k * k seconds at its k-th read; verify's clock
    # reads first (k = 0) and stamps last, and every read is on a clock
    reads = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)) ** 2)
    ms = [c.ms for c in verify_group(s4, "s4").checks]
    last = next(reads) - 1
    assert min(ms) >= 0
    assert sum(ms) == 1000.0 * last ** 2


def test_latin_square(s4):
    rep = verify_group(s4, "symmetric:4")
    c = next(c for c in rep.checks if c.name == "latin_square")
    assert c.ok and (c.lhs, c.rhs) == (1, 1)


@given(st.sampled_from([3, 4, 5, 8]), st.data())
def test_inverse_laws_pointwise(n, data):
    g = build(GroupSpec.dihedral(n))
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    assert g.mul[g.inv[x], x] == g.unit
    assert g.mul[x, g.inv[x]] == g.unit
    assert g.inv[g.mul[x, y]] == g.mul[g.inv[y], g.inv[x]]
