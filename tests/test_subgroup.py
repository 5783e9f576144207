import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingroups import (
    ElemSet,
    GroupSpec,
    build,
    closure,
    from_cayley_table,
    is_subgroup,
    lagrange_check,
    left_coset,
    left_index,
    product_subgroup_checks,
    right_coset,
    right_index,
    set_of,
    set_product,
    singleton,
    subgroup_sample,
    subgroup_set,
)
from fingroups.errors import InvalidSubgroup
from fingroups.subgroup import left_coset_roots
from fingroups.suite import catalog, catalog_specs

import oracles


def members(g, pts):
    return set_of(g.carrier, pts)


# S3 in lexicographic enumeration: 0 = identity, {1, 2, 5} are the
# transpositions, {0, 3, 4} is the alternating subgroup.
A3 = (0, 3, 4)


def test_trivial_and_full(s3):
    assert is_subgroup(s3, singleton(s3.carrier, s3.unit))
    assert is_subgroup(s3, s3.full_set())


def test_not_closed(z6):
    assert not is_subgroup(z6, members(z6, [0, 1]))  # 1+1=2 missing


def test_missing_unit(z6):
    assert not is_subgroup(z6, members(z6, [2, 4]))


def test_alternating_subgroup(s3):
    assert is_subgroup(s3, members(s3, A3))
    assert not is_subgroup(s3, members(s3, [0, 1, 2]))


def test_agrees_with_naive_subgroup_test(s4):
    rows = oracles.table_rows(s4)
    sample = subgroup_sample(s4)
    for h in sample:
        assert oracles.naive_is_subgroup(rows, s4.unit, frozenset(h.indices()))
    # and on some sets that are not subgroups
    assert not is_subgroup(s4, members(s4, [0, 1, 2, 3]))


def test_subgroup_set_validates(s3):
    with pytest.raises(InvalidSubgroup):
        subgroup_set(s3, members(s3, [0, 1, 2]))
    assert subgroup_set(s3, members(s3, A3)).card == 3


@pytest.mark.parametrize("spec", [GroupSpec.symmetric(3), GroupSpec.cyclic(6),
                                  GroupSpec.q8()], ids=["s3", "z6", "q8"])
def test_recorded_proofs_agree_with_naive_on_every_subset(spec):
    # a fresh group: the first pass proves, the second reads the record
    g = build(spec)
    rows = oracles.table_rows(g)
    subsets = [ElemSet(g.carrier, bits) for bits in range(2 ** g.order)]
    want = [oracles.naive_is_subgroup(rows, g.unit, frozenset(s.indices()))
            for s in subsets]
    for _ in range(2):
        assert [is_subgroup(g, s) for s in subsets] == want
    assert g._subgroup_bits == {s.bits for s, ok in zip(subsets, want) if ok}


def test_proof_in_one_group_is_not_taken_by_another(z6, s3):
    h = members(z6, [0, 3])
    assert h.carrier == s3.carrier
    assert is_subgroup(z6, h) and is_subgroup(z6, h)
    assert not is_subgroup(s3, h)
    with pytest.raises(InvalidSubgroup):
        subgroup_set(s3, h)


# -- closure -------------------------------------------------------------


def test_closure_of_unit(z6):
    assert closure(z6, [z6.unit]).indices() == (0,)
    with pytest.raises(ValueError):
        closure(z6, [])


def test_closure_in_z6(z6):
    assert closure(z6, [2]).indices() == (0, 2, 4)
    assert closure(z6, [1]).card == 6


def test_closure_matches_naive(s4):
    rows = oracles.table_rows(s4)
    for gens in [(1,), (1, 2), (9, 16), (3, 7, 11)]:
        want = oracles.naive_closure(rows, s4.unit, gens)
        assert frozenset(closure(s4, gens).indices()) == want


@given(st.lists(st.integers(0, 23), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_closure_is_subgroup(s4, gens):
    c = closure(s4, gens)
    assert is_subgroup(s4, c)
    assert all(x in c for x in gens)


# -- cosets --------------------------------------------------------------


def test_left_coset_z6(z6):
    h = members(z6, [0, 3])
    assert left_coset(z6, h, 1).indices() == (1, 4)
    assert left_coset(z6, h, 0).indices() == (0, 3)


def test_cosets_partition(s4):
    rows = oracles.table_rows(s4)
    h = closure(s4, [1, 2])
    hset = frozenset(h.indices())
    want = oracles.left_cosets(rows, hset, range(s4.order))
    got = {frozenset(left_coset(s4, h, a).indices()) for a in s4.elements()}
    assert got == want
    assert sum(len(c) for c in want) == s4.order  # disjoint cover


def test_right_coset_differs_in_s3(s3):
    h = members(s3, [0, 2])
    # (01) generates a non-normal subgroup, so some left and right
    # cosets disagree
    assert any(
        left_coset(s3, h, a).bits != right_coset(s3, h, a).bits
        for a in s3.elements()
    )


def root_of(roots, number, x):
    """x's coset root as left_coset_roots numbers it, -1 outside the domain."""
    return int(roots[number[x]]) if number[x] >= 0 else -1


def test_coset_roots_are_minima(s4):
    h = closure(s4, [1])
    roots, number = left_coset_roots(s4, h, s4.full_set())
    for a in s4.elements():
        assert root_of(roots, number, a) == min(left_coset(s4, h, a).indices())
    # exactly one self-rooted representative per coset
    marked = [a for a in s4.elements() if root_of(roots, number, a) == a]
    want = oracles.left_cosets(oracles.table_rows(s4), frozenset(h.indices()), range(s4.order))
    assert len(marked) == len(want)


def test_coset_roots_outside_domain(z12):
    h = members(z12, [0, 4, 8])
    roots, number = left_coset_roots(z12, h, h)
    assert all(root_of(roots, number, x) == 0 for x in (0, 4, 8))
    assert all(root_of(roots, number, x) == -1 for x in (1, 2, 3, 5))


# -- index and Lagrange --------------------------------------------------


def test_index_a3_in_s3(s3):
    assert left_index(s3, members(s3, A3), s3.full_set()) == 2


def test_index_requires_subgroup(z6):
    with pytest.raises(InvalidSubgroup):
        left_index(z6, members(z6, [0, 1]), z6.full_set())


def test_index_matches_coset_count(s4):
    rows = oracles.table_rows(s4)
    full = s4.full_set()
    for h in subgroup_sample(s4):
        want = len(oracles.left_cosets(rows, frozenset(h.indices()), range(24)))
        assert left_index(s4, h, full) == want
        wantr = len(oracles.right_cosets(rows, frozenset(h.indices()), range(24)))
        assert right_index(s4, h, full) == wantr


def test_lagrange_s3(s3):
    checks = lagrange_check(s3, members(s3, A3), s3.full_set())
    assert [c.name for c in checks] == ["lagrange", "lagrange_divides"]
    assert all(c.ok for c in checks)
    assert checks[0].lhs == 6


def test_lagrange_h_equals_k(q8):
    full = q8.full_set()
    checks = lagrange_check(q8, full, full)
    assert all(c.ok for c in checks)


# -- set products --------------------------------------------------------


def test_product_with_unit(s3):
    h = members(s3, A3)
    assert set_product(s3, h, singleton(s3.carrier, s3.unit)).bits == h.bits


def test_product_of_complementary_subgroups(z6):
    h, k = members(z6, [0, 3]), members(z6, [0, 2, 4])
    hk = set_product(z6, h, k)
    assert hk.card == 6
    checks = product_subgroup_checks(z6, h, k)
    assert all(c.ok for c in checks)


def test_product_of_noncommuting_pair(s3):
    # two distinct order-2 subgroups: |HK| = 4 does not divide 6, so HK
    # cannot be a subgroup and HK != KH
    h, k = members(s3, [0, 2]), members(s3, [0, 1])
    rows = oracles.table_rows(s3)
    want = {rows[a][b] for a in h.indices() for b in k.indices()}
    hk = set_product(s3, h, k)
    assert set(hk.indices()) == want
    assert hk.card == 4
    assert not is_subgroup(s3, hk)
    kh = set_product(s3, k, h)
    assert kh.bits != hk.bits


# -- the sample ----------------------------------------------------------


def test_sample_is_deduplicated_and_sorted(s4):
    sample = subgroup_sample(s4)
    keys = [(h.card, h.indices()) for h in sample]
    assert keys == sorted(keys)
    assert len({h.bits for h in sample}) == len(sample)


def test_sample_contains_extremes(s4):
    sample = subgroup_sample(s4)
    assert any(h.card == 1 for h in sample)
    assert any(h.card == s4.order for h in sample)
    assert all(is_subgroup(s4, h) for h in sample)


# -- differential: cyclic-generator sample and gathered coset roots -------

SMALL_CATALOG = [s for s in catalog_specs() if build(s).order <= 24]
D6_C2 = GroupSpec.product(GroupSpec.dihedral(6), GroupSpec.cyclic(2))


@pytest.mark.parametrize("spec", SMALL_CATALOG + [D6_C2], ids=lambda s: s.describe())
def test_sample_matches_naive_all_pairs(spec):
    g = build(spec)
    got = [(h.card, h.indices()) for h in subgroup_sample(g)]
    assert got == oracles.naive_subgroup_sample(oracles.table_rows(g), g.unit)


# The sample closes one pair per conjugation orbit, and which pair that is
# depends on the labels; so the differential runs on relabeled tables too.
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "spec",
    [GroupSpec.product(GroupSpec.symmetric(4), GroupSpec.cyclic(2)),
     GroupSpec.product(GroupSpec.q8(), GroupSpec.cyclic(2)), D6_C2],
    ids=lambda s: s.describe(),
)
def test_sample_matches_naive_all_pairs_on_relabelings(spec, seed):
    t = build(spec).mul
    perm = np.random.default_rng(seed).permutation(len(t))
    relabeled = np.empty_like(t)
    relabeled[np.ix_(perm, perm)] = perm[t]  # point a renamed perm[a]
    g = from_cayley_table(len(t), relabeled)
    got = [(h.card, h.indices()) for h in subgroup_sample(g)]
    assert got == oracles.naive_subgroup_sample(oracles.table_rows(g), g.unit)


@pytest.mark.parametrize("spec", [GroupSpec.symmetric(5), GroupSpec.dihedral(60)],
                         ids=lambda s: s.describe())
def test_sample_is_closed_under_conjugation(spec):
    g = build(spec)
    rows = oracles.table_rows(g)
    inv = [oracles.naive_inverse(rows, g.unit, x) for x in g.elements()]
    sample = {h.indices() for h in subgroup_sample(g)}
    for h in sample:
        for x in g.elements():
            assert tuple(sorted({rows[rows[x][y]][inv[x]] for y in h})) in sample, (h, x)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.symmetric(4), GroupSpec.product(GroupSpec.q8(), GroupSpec.cyclic(2)),
     GroupSpec.dihedral(6)],
    ids=lambda s: s.describe(),
)
def test_coset_roots_and_index_match_naive_cosets(spec):
    g = build(spec)
    rows = oracles.table_rows(g)
    sample = subgroup_sample(g)
    full = g.full_set()
    for h in sample:
        hm = frozenset(h.indices())
        proper = [k for k in sample if h.issubset(k) and k != full]
        # the full group, and the largest proper sample subgroup over h
        for k in [full] + proper[-1:]:
            cosets = oracles.left_cosets(rows, hm, k.indices())
            roots, number = left_coset_roots(g, h, k)
            for x in g.elements():
                want = min(next(c for c in cosets if x in c)) if x in k else -1
                assert root_of(roots, number, x) == want, (h.indices(), k.indices(), x)
            assert left_index(g, h, k) == len(cosets)


def test_left_index_matches_right_index_on_every_catalog_sample_subgroup():
    # the left roots are counted on the domain, the right cosets marked off
    # one by one: two routes to [K : H]
    for label, g in catalog():
        sample = subgroup_sample(g)
        full = g.full_set()
        for h in sample:
            over = [k for k in sample if h.issubset(k) and k != full]
            for k in [full] + over[:1] + over[-1:]:
                assert left_index(g, h, k) == right_index(g, h, k), (label, h.indices(), k.indices())
