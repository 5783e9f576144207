import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingroups import (
    GroupSpec,
    build,
    closure,
    conjugate_set,
    from_cayley_table,
    image_subgroup,
    is_normal,
    is_subgroup,
    left_index,
    normalizer,
    preimage_subgroup,
    quotient_group,
    quotient_morphism_check,
    set_of,
    subgroup_sample,
    sylow_subgroup,
)
from fingroups.conjnormal import conjugacy_family
from fingroups import conjnormal as conjnormal_mod
from fingroups.errors import InternalInvariant, InvalidSubgroup, NotNormal
from fingroups.group import Group, conjugates
from fingroups.numutil import prime_divisors
from fingroups.report import Check

import oracles


def members(g, pts):
    return set_of(g.carrier, pts)


A3 = (0, 3, 4)
TRANSPOSITIONS = (1, 2, 5)


# -- pointwise conjugation, read off the grid ------------------------------


def test_conjugate_by_unit(s3):
    ys = np.arange(s3.order)
    assert np.array_equal(conjugates(s3, [s3.unit], ys)[0], ys)


def test_conjugate_definition(s4):
    # grid[i, j] = x y x^-1 for x = xs[i], y = ys[j], against the raw table
    rows = oracles.table_rows(s4)
    xs, ys = (3, 7, 19), (1, 10, 23)
    grid = conjugates(s4, xs, ys)
    assert grid.shape == (len(xs), len(ys))
    for i, x in enumerate(xs):
        xi = oracles.naive_inverse(rows, s4.unit, x)
        for j, y in enumerate(ys):
            assert grid[i, j] == rows[rows[x][y]][xi]


@given(st.integers(0, 23), st.integers(0, 23))
def test_conjugation_is_invertible(s4, x, y):
    there = conjugates(s4, [x], [y])[0, 0]
    assert conjugates(s4, [s4.inv[x]], [there])[0, 0] == y


@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
@settings(max_examples=60)
def test_conjugation_composes(s4, x, z, y):
    # conj by a product splits into successive conjugations, z first
    inner = conjugates(s4, [z], [y])[0, 0]
    assert conjugates(s4, [s4.mul[x, z]], [y])[0, 0] == conjugates(s4, [x], [inner])[0, 0]


def test_conjugate_set_matches_naive(s4):
    rows = oracles.table_rows(s4)
    h = closure(s4, [1, 9])
    hset = frozenset(h.indices())
    for x in s4.elements():
        want = oracles.naive_conjugate_set(rows, s4.unit, hset, x)
        assert frozenset(conjugate_set(s4, h, x).indices()) == want


def test_conjugate_set_preserves_cardinality(s3):
    h = members(s3, [0, 2])
    for x in s3.elements():
        assert conjugate_set(s3, h, x).card == h.card


# -- normality -----------------------------------------------------------


def test_subgroup_normal_in_itself(s3):
    h = members(s3, A3)
    assert is_normal(s3, h, h)


def test_alternating_is_normal(s3):
    assert is_normal(s3, members(s3, A3), s3.full_set())


def test_order_two_not_normal_in_s3(s3):
    assert not is_normal(s3, members(s3, [0, 2]), s3.full_set())


def test_everything_normal_in_abelian(z12):
    full = z12.full_set()
    for h in subgroup_sample(z12):
        assert is_normal(z12, h, full)


def test_q8_all_subgroups_normal(q8):
    # the classic nonabelian example where every subgroup is normal
    full = q8.full_set()
    for h in subgroup_sample(q8):
        assert is_normal(q8, h, full)


def test_normalizer_of_order_two_in_s3(s3):
    h = members(s3, [0, 2])
    assert normalizer(s3, h, s3.full_set()).indices() == (0, 2)


def test_normalizer_matches_naive(s4):
    rows = oracles.table_rows(s4)
    full = s4.full_set()
    for h in subgroup_sample(s4):
        want = oracles.naive_normalizer(
            rows, s4.unit, frozenset(h.indices()), range(24)
        )
        assert frozenset(normalizer(s4, h, full).indices()) == want


def test_normalizer_is_largest_normalizing_subgroup(s4):
    full = s4.full_set()
    for h in subgroup_sample(s4)[:12]:
        nz = normalizer(s4, h, full)
        assert is_subgroup(s4, nz)
        assert h.issubset(nz)
        assert is_normal(s4, h, nz)


def relabeled(spec, seed):
    """The group of spec with element a renamed perm[a], perm seeded."""
    t = build(spec).mul
    perm = np.random.default_rng(seed).permutation(len(t))
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return from_cayley_table(len(t), out)


S4_C2 = GroupSpec.product(GroupSpec.symmetric(4), GroupSpec.cyclic(2))
D6_C2 = GroupSpec.product(GroupSpec.dihedral(6), GroupSpec.cyclic(2))
Q8_C2 = GroupSpec.product(GroupSpec.q8(), GroupSpec.cyclic(2))
# seed 0 keeps the catalog labels
CONJ_GROUPS = [(GroupSpec.symmetric(4), 0), (Q8_C2, 0), (GroupSpec.dihedral(6), 0),
               (S4_C2, 1), (D6_C2, 2)]


@pytest.mark.parametrize("spec, seed", CONJ_GROUPS,
                         ids=[f"{s.describe()}-seed{n}" for s, n in CONJ_GROUPS])
def test_conjugation_layer_matches_naive(spec, seed):
    """conjugacy_family, is_normal and normalizer against the oracles, for
    every sample subgroup as the base, over the whole group and over the
    largest proper sample subgroup."""
    g = relabeled(spec, seed) if seed else build(spec)
    rows = oracles.table_rows(g)
    sample = subgroup_sample(g)
    for k in (g.full_set(), sample[-2]):
        kset = frozenset(k.indices())
        for h in sample:
            hset = frozenset(h.indices())
            want = sorted({tuple(sorted(oracles.naive_conjugate_set(rows, g.unit, hset, x)))
                           for x in kset})
            assert [c.indices() for c in conjugacy_family(g, k, h)] == want
            assert is_normal(g, h, k) == oracles.naive_is_normal(rows, g.unit, hset, kset)
            if hset <= kset:
                want_n = oracles.naive_normalizer(rows, g.unit, hset, kset)
                assert frozenset(normalizer(g, h, k).indices()) == want_n
            else:
                with pytest.raises(InvalidSubgroup):
                    normalizer(g, h, k)


@pytest.mark.parametrize("spec, seed", CONJ_GROUPS,
                         ids=[f"{s.describe()}-seed{n}" for s, n in CONJ_GROUPS])
def test_normality_on_the_sylow_chains_matches_naive(spec, seed):
    """normalizer and is_normal in the whole group against the oracles, for
    every member of the Sylow chain of every prime, sampled or not."""
    g = relabeled(spec, seed) if seed else build(spec)
    rows = oracles.table_rows(g)
    full = g.full_set()
    kset = frozenset(full.indices())
    for p in prime_divisors(g.order):
        for hi in sylow_subgroup(g, full, p).chain:
            hset = frozenset(hi.indices())
            want = oracles.naive_normalizer(rows, g.unit, hset, kset)
            assert frozenset(normalizer(g, hi, full).indices()) == want, (p, hset)
            assert is_normal(g, hi, full) == oracles.naive_is_normal(rows, g.unit, hset, kset)


def test_normalizer_reads_a_grid_over_h_not_over_k():
    """On C1024 with |H| = 2 the grid of conjugates holds 2,048 cells; one of
    |K|^2 = 2^20 cells would peak at several MiB."""
    g = build(GroupSpec.cyclic(1024))
    h = members(g, [0, 512])
    full = g.full_set()
    normalizer(g, h, full)  # proves H and K subgroups, outside the measure
    tracemalloc.start()
    try:
        got = normalizer(g, h, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.card == 1024
    assert peak < 1 << 20


def test_a_validated_table_records_its_carrier_as_a_subgroup():
    """Validation has seen the unit and every entry in range, all that
    is_subgroup asks of the whole carrier, so the first normalizer on a
    fresh C1024 proves H alone; proving the carrier by its (|G|, |G|)
    gather would peak at several MiB.  A Group built directly records
    nothing."""
    g = build(GroupSpec.cyclic(1024))
    full = g.full_set()
    assert g._subgroup_bits == {full.bits}
    assert Group(g.carrier, g.unit, g.inv.copy(), g.mul.copy())._subgroup_bits == set()
    tracemalloc.start()
    try:
        got = normalizer(g, members(g, [0, 512]), full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.card == 1024
    assert peak < 1 << 20


# -- quotients -----------------------------------------------------------


def test_quotient_by_self_is_trivial(s3):
    full = s3.full_set()
    q = quotient_group(s3, full, full)
    assert q.group.order == 1
    assert all(q.project(x) == 0 for x in s3.elements())


def test_s3_mod_a3(s3):
    q = quotient_group(s3, members(s3, A3), s3.full_set())
    assert q.group.order == 2
    imgs = {q.project(t) for t in TRANSPOSITIONS}
    assert len(imgs) == 1  # all transpositions land on one point
    assert imgs != {q.project(s3.unit)}


def test_quotient_requires_normal(s3):
    with pytest.raises(NotNormal):
        quotient_group(s3, members(s3, [0, 2]), s3.full_set())


def test_quotient_requires_containment(z12, s3):
    with pytest.raises(InvalidSubgroup):
        quotient_group(z12, members(z12, [0, 4, 8]), members(z12, [0, 6]))


def test_z12_quotients(z12):
    full = z12.full_set()
    q = quotient_group(z12, members(z12, [0, 4, 8]), full)
    assert q.group.order == 4
    assert q.roots == (0, 1, 2, 3)

    # Z12/{0,6} has the Z6 order profile
    q2 = quotient_group(z12, members(z12, [0, 6]), full)
    orders = sorted(
        oracles.element_orders(oracles.table_rows(q2.group), q2.group.unit).values()
    )
    assert orders == [1, 2, 3, 3, 6, 6]


def test_projection_and_embedding_roundtrip(z12):
    q = quotient_group(z12, members(z12, [0, 4, 8]), z12.full_set())
    for i in range(q.group.order):
        assert q.project(q.embed(i)) == i


def test_project_outside_ambient(z12):
    q = quotient_group(z12, members(z12, [0, 6]), members(z12, [0, 3, 6, 9]))
    with pytest.raises(InvalidSubgroup):
        q.project(1)


def test_morphism_checks_pass(s4):
    full = s4.full_set()
    for cand in subgroup_sample(s4):
        if cand.card in (4, 12) and is_normal(s4, cand, full):
            q = quotient_group(s4, cand, full)
            checks = quotient_morphism_check(q)
            assert all(c.ok for c in checks), cand.indices()
            assert q.group.order == left_index(s4, cand, full)


@pytest.mark.parametrize("x", [1, 5, 17])
def test_a_corrupted_projection_names_the_first_failing_pair(s4, x):
    # x sent to the next quotient point: the morphism fails first at the
    # row-major first pair (a, b) of K with proj(a*b) != proj(a)proj(b)
    full = s4.full_set()
    v4 = next(h for h in subgroup_sample(s4) if h.card == 4 and is_normal(s4, h, full))
    q = quotient_group(s4, v4, full)
    proj = q.proj_table.copy()
    proj[x] = (proj[x] + 1) % q.group.order
    morph, kernel, coset = quotient_morphism_check(dataclasses.replace(q, proj_table=proj))
    rows, qrows, km = oracles.table_rows(s4), oracles.table_rows(q.group), list(full)
    fails = [[a, b] for a in km for b in km if proj[rows[a][b]] != qrows[proj[a]][proj[b]]]
    assert morph == Check("quotient_morphism", False, 24 * 24 - len(fails), 24 * 24, fails[0])
    assert kernel.ok == (x not in v4)
    own = [rows[s4.inv[a]][q.roots[proj[a]]] in v4 for a in km]
    assert coset == Check("quotient_root_in_own_coset", False, sum(own), 24)


def test_quotient_order_is_checked_against_the_right_cosets(monkeypatch, s4):
    # left_coset_roots made to return A4's roots for V4: the quotient comes
    # out a valid group of order 2, and the right cosets count 6
    full = s4.full_set()
    sample = subgroup_sample(s4)
    v4 = next(h for h in sample if h.card == 4 and is_normal(s4, h, full))
    a4 = next(h for h in sample if h.card == 12)
    real = conjnormal_mod.left_coset_roots
    monkeypatch.setattr(conjnormal_mod, "left_coset_roots", lambda g, h, d: real(g, a4, d))
    with pytest.raises(InternalInvariant, match="subgroup index"):
        quotient_group(s4, v4, full)


def test_image_preimage_roundtrip(z12):
    q = quotient_group(z12, members(z12, [0, 4, 8]), z12.full_set())
    for l1 in subgroup_sample(q.group):
        back = image_subgroup(q, preimage_subgroup(q, l1))
        assert back.bits == l1.bits


def test_image_requires_sandwich(z12):
    q = quotient_group(z12, members(z12, [0, 4, 8]), z12.full_set())
    with pytest.raises(InvalidSubgroup):
        image_subgroup(q, members(z12, [0, 6]))  # does not contain the kernel
