import tracemalloc

import numpy as np
import pytest

from fingroups import (
    GroupSpec,
    build,
    cauchy_element,
    closure,
    conjugate_set,
    cyclic,
    extend_p_subgroup,
    from_cayley_table,
    is_normal,
    is_subgroup,
    is_sylow,
    order,
    padic_val,
    product_one_tuples,
    rotation_action,
    set_of,
    orbit,
    fixed_points,
    sylow_battery,
    sylow_conjugator,
    sylow_count_divides_check,
    sylow_count_mod_p_check,
    sylow_family,
    sylow_subgroup,
)
from fingroups import action as action_mod
from fingroups import group as group_mod
from fingroups import oracle as pkg_oracle
from fingroups import sylow as sylow_mod
from fingroups.action import mod_p_fixed_point_check
from fingroups.errors import (
    BadArg,
    BadBase,
    DoesNotDivide,
    InternalInvariant,
    InvalidSubgroup,
    NotPPower,
    NotPrime,
    PDoesNotDivide,
    UnsupportedSpec,
)
from fingroups.numutil import prime_divisors
from fingroups.suite import catalog, verify_group
from fingroups.sylow import DEFAULT_TUPLE_CAP, TUPLE_CAP_ENV, TupleCarrier, tuple_cap

import oracles


def members(g, pts):
    return set_of(g.carrier, pts)


# -- divisor logarithm ---------------------------------------------------


def test_padic_val():
    assert padic_val(2, 24) == 3
    assert padic_val(3, 24) == 1
    assert padic_val(5, 24) == 0
    assert padic_val(3, 1) == 0
    assert padic_val(2, 1024) == 10


def test_padic_val_validation():
    with pytest.raises(BadBase):
        padic_val(1, 10)
    with pytest.raises(BadArg):
        padic_val(2, 0)


# -- the product-one tuple family ----------------------------------------


def test_tuple_family_size(z6):
    z3 = build(GroupSpec.cyclic(3))
    tc = product_one_tuples(z3, z3.full_set(), 3)
    assert len(tc.tuples) == 9  # |H|^(p-1)
    # sum of each tuple is 0 mod 3
    assert all(sum(t) % 3 == 0 for t in tc.tuples)


def test_tuple_head_is_determined(q8):
    tc = product_one_tuples(q8, q8.full_set(), 2)
    for t in tc.tuples:
        assert t[0] == q8.inv[t[1]]


def test_tuple_enumeration_order(z6):
    tc = product_one_tuples(z6, members(z6, [0, 2, 4]), 3)
    assert tc.members == (0, 2, 4) and len(tc.tuples) == 9
    for t in tc.tuples:
        assert len(t) == 3 and all(c in tc.members for c in t)
        assert z6.mul[z6.mul[t[0], t[1]], t[2]] == z6.unit
    # the family is ascending in the mixed-radix rank of the tail
    pos = {m: i for i, m in enumerate(tc.members)}
    tails = [pos[t[1]] * len(tc.members) + pos[t[2]] for t in tc.tuples]
    assert tails == sorted(tails)


def test_rotation_action_orbits(z6):
    z3 = build(GroupSpec.cyclic(3))
    tc = product_one_tuples(z3, z3.full_set(), 3)
    act = rotation_action(tc)
    s0 = fixed_points(act)
    assert s0.card == 3  # the constant tuples
    assert 9 % 3 == s0.card % 3
    for i in range(9):
        assert orbit(act, i).card in (1, 3)


def assert_rotation_matches_naive(g, h, p):
    tc = product_one_tuples(g, h, p)
    act = rotation_action(tc)
    tuples, table = oracles.naive_rotation_table(
        oracles.table_rows(g), g.unit, list(h.indices()), p
    )
    assert tc.tuples.dtype == np.min_scalar_type(g.order - 1)
    assert tc.tuples.shape == (len(tuples), p)
    assert act.table.dtype == np.int32
    assert tc.tuples.T.flags.c_contiguous  # one row per coordinate
    assert tc.tuples.tolist() == [list(t) for t in tuples]
    assert act.table.tolist() == table
    n = len(tuples)
    naive_fixed = tuple(i for i in range(n) if all(row[i] == i for row in table))
    assert fixed_points(act).indices() == naive_fixed


def test_rotation_action_matches_naive_on_the_catalog():
    cases = 0
    for _, g in catalog():
        for p in prime_divisors(g.order):
            if g.order ** (p - 1) <= 10**5:
                assert_rotation_matches_naive(g, g.full_set(), p)
                cases += 1
    assert cases > 60  # 64 with the current catalog


def test_rotation_action_matches_naive_on_a_proper_subgroup(z6, s4):
    assert_rotation_matches_naive(z6, members(z6, [0, 2, 4]), 3)
    h = sylow_subgroup(s4, s4.full_set(), 2).subgroup
    assert h.indices() == (0, 1, 6, 7, 16, 17, 22, 23)
    assert_rotation_matches_naive(s4, h, 2)


@pytest.mark.parametrize("n, p, dtype", [(129, 2, np.uint16), (129, 3, np.uint16),
                                         (128, 2, np.uint8)],
                         ids=["order258-p2", "order258-p3", "order256-p2"])
def test_rotation_action_matches_naive_at_the_tuple_dtype_boundary(n, p, dtype):
    # order 256 is the last whose labels fit a byte
    g = build(GroupSpec.dihedral(n))
    assert np.min_scalar_type(g.order - 1) == dtype
    assert_rotation_matches_naive(g, g.full_set(), p)


def test_rotation_action_builds_the_acting_group_once_per_prime(monkeypatch):
    built = []

    def counting_build(spec):
        built.append(spec.describe())
        return build(spec)

    monkeypatch.setattr(sylow_mod, "build", counting_build)
    sylow_mod.cyclic_of_prime.cache_clear()
    try:
        for spec, p in [(GroupSpec.cyclic(6), 2), (GroupSpec.cyclic(6), 3),
                        (GroupSpec.dihedral(3), 3), (GroupSpec.dihedral(3), 2)] * 2:
            g = build(spec)
            act = rotation_action(product_one_tuples(g, g.full_set(), p))
            assert act.group is sylow_mod.cyclic_of_prime(p) and act.group.order == p
    finally:
        sylow_mod.cyclic_of_prime.cache_clear()
    assert sorted(built) == ["cyclic:2", "cyclic:3"]


def assert_rows_match_sigma_powers_and_rotated_tuples(tc, act, seed):
    """Each row k of the rotation table against two slow paths: row 1
    applied k times by gathers, and, on a seeded sample of ranks r, the
    one rank whose tuple in tc.tuples is tuple r rotated left by k."""
    table = act.table
    p, n = table.shape
    sigma = table[1].astype(np.intp)
    powers = [np.arange(n), sigma]
    for _ in range(2, p):
        powers.append(sigma[powers[-1]])
    assert np.array_equal(table, np.array(powers))
    rng = np.random.default_rng(seed)
    for r in rng.choice(n, min(n, 6), replace=False):
        t = tc.tuples[r].tolist()
        for k in range(1, p):
            rotated = np.array(t[k:] + t[:k], dtype=tc.tuples.dtype)
            at = np.flatnonzero((tc.tuples == rotated).all(axis=1))
            assert at.tolist() == [table[k, r]], (r, k)


def test_rotation_rows_match_two_slow_paths_on_every_family_verify_builds(tuple_route_families):
    assert len(tuple_route_families) == 68
    for i, (g, h, p) in enumerate(tuple_route_families):
        tc = product_one_tuples(g, h, p)
        assert_rows_match_sigma_powers_and_rotated_tuples(tc, rotation_action(tc), i)


@pytest.mark.parametrize("n, p", [(30, 5), (999, 3)], ids=["cyclic30-p5", "cyclic999-p3"])
def test_rotation_rows_match_two_slow_paths_on_the_largest_families_under_the_cap(n, p):
    # 30^4 = 810,000 and 999^2 = 998,001 tuples: the largest the cap admits
    # at p = 5 and at p = 3, where the next order p divides is past it
    g = build(GroupSpec.cyclic(n))
    tc = product_one_tuples(g, g.full_set(), p)
    assert len(tc.tuples) <= DEFAULT_TUPLE_CAP < (n + p) ** (p - 1)
    assert_rows_match_sigma_powers_and_rotated_tuples(tc, rotation_action(tc), n)


def relabeled(spec, seed):
    """The group of spec with element a renamed perm[a], perm seeded."""
    t = build(spec).mul
    perm = np.random.default_rng(seed).permutation(len(t))
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return from_cayley_table(len(t), out)


RELABELED = [(GroupSpec.product(GroupSpec.symmetric(4), GroupSpec.cyclic(2)), 1),
             (GroupSpec.dihedral(10), 2),
             (GroupSpec.product(GroupSpec.cyclic(5), GroupSpec.cyclic(5)), 3)]
RELABELED_IDS = [f"{spec.describe()}-seed{seed}" for spec, seed in RELABELED]


@pytest.mark.parametrize("spec, seed", RELABELED, ids=RELABELED_IDS)
def test_rotation_action_matches_naive_on_relabelings(spec, seed):
    g = relabeled(spec, seed)
    assert g.unit != 0
    cases = 0
    for p in prime_divisors(g.order):
        # subgroups of a relabeled group have scattered members
        sylow = sylow_subgroup(g, g.full_set(), p).subgroup
        for h in (g.full_set(), sylow, cyclic(g, cauchy_element(g, g.full_set(), p))):
            if h.card ** (p - 1) <= 10**4:
                assert_rotation_matches_naive(g, h, p)
                cases += 1
    assert cases > 0


@pytest.mark.parametrize("head", [1, 99, 4], ids=["non_member", "outside_group", "wrong_member"])
def test_rotation_rejects_a_corrupted_head(z6, head):
    tc = product_one_tuples(z6, members(z6, [0, 2, 4]), 3)
    tuples = tc.tuples.copy()
    assert tuples[5].tolist() == [0, 2, 4]
    tuples[5, 0] = head
    with pytest.raises(InternalInvariant, match="rotation left the product-one family"):
        rotation_action(TupleCarrier(tc.members, tuples))


# group.CHECK_CELLS, read by the tuple route's passes and its action's
# checks alike: the default (one block), blocks of 50 and 7 entries with a
# short last one, and one entry a block
ROUTE_CELLS = [group_mod.CHECK_CELLS, 50, 7, 1]
ROUTE_CELLS_IDS = ["one_block", "cells50", "cells7", "cells1"]


def route_in_blocks(mp, cells):
    mp.setattr(group_mod, "CHECK_CELLS", cells)


def tuple_route(g, h, p):
    tc = product_one_tuples(g, h, p)
    act = rotation_action(tc)
    return (tc.tuples.tolist(), act.table.tolist(), fixed_points(act).indices(),
            cauchy_element(g, h, p))


@pytest.mark.parametrize("cells", ROUTE_CELLS, ids=ROUTE_CELLS_IDS)
def test_the_tuple_route_in_blocks_matches_one_block_and_the_oracle(monkeypatch, cells):
    # 625, 225, 36 and 8 tuples: none a multiple of 50 or 7
    families = [(build(GroupSpec.cyclic(5)), None, 5), (build(GroupSpec.cyclic(15)), None, 3),
                (build(GroupSpec.symmetric(3)), None, 3), (build(GroupSpec.q8()), None, 2)]
    s4 = build(GroupSpec.symmetric(4))
    families.append((s4, sylow_subgroup(s4, s4.full_set(), 2).subgroup, 2))
    for g, h, p in families:
        h = h or g.full_set()
        want = tuple_route(g, h, p)
        with monkeypatch.context() as mp:
            route_in_blocks(mp, cells)
            assert tuple_route(g, h, p) == want, g
            assert_rotation_matches_naive(g, h, p)


@pytest.mark.parametrize("coordinate", [0, 1, 2], ids=["head", "coordinate_1", "coordinate_2"])
@pytest.mark.parametrize("cells", [50, 7], ids=["cells50", "cells7"])
def test_rotation_rejects_a_corrupted_tuple_in_the_last_partial_block(monkeypatch, cells,
                                                                      coordinate):
    # C3xC3's last tuple, (8, 8, 8), is constant, so rotation fixes it and
    # only its own place in the check can see a change to it
    route_in_blocks(monkeypatch, cells)
    g = build(GroupSpec.product(GroupSpec.cyclic(3), GroupSpec.cyclic(3)))
    tc = product_one_tuples(g, g.full_set(), 3)
    n = len(tc.tuples)
    assert n % cells and n > cells  # the last tuple ends a short block after the first
    assert tc.tuples[n - 1].tolist() == [8, 8, 8]
    tuples = tc.tuples.copy()
    tuples[n - 1, coordinate] = (tuples[n - 1, coordinate] + 1) % g.order  # another member
    with pytest.raises(InternalInvariant, match="rotation left the product-one family"):
        rotation_action(TupleCarrier(tc.members, tuples))


# Tuple 0 is (0, 0, 0).  Rotation sends a tuple to the one whose tail is its
# last coordinate then its head's rank, so each replacement of tuple 0 below
# rotates onto tuple 1, (4, 0, 2), and no tuple rotates onto tuple 0; each
# then breaks one coordinate's check alone: coordinate j of the image
# against coordinate j + 1 of the tuple.
@pytest.mark.parametrize("bad", [(2, 0, 0), (2, 4, 1), (1, 4, 0)],
                         ids=["coordinate_0", "coordinate_1", "coordinate_2"])
def test_rotation_checks_every_coordinate(z6, bad):
    tc = product_one_tuples(z6, members(z6, [0, 2, 4]), 3)
    tuples = tc.tuples.copy()
    assert tuples[0].tolist() == [0, 0, 0] and tuples[1].tolist() == [4, 0, 2]
    tuples[0] = bad
    with pytest.raises(InternalInvariant, match="rotation left the product-one family"):
        rotation_action(TupleCarrier(tc.members, tuples))


# -- Cauchy --------------------------------------------------------------


def test_cauchy_z2(z2):
    assert cauchy_element(z2, z2.full_set(), 2) == 1


def test_cauchy_z6_tie_break(z6):
    # both elements of order 3 are 2 and 4; the rule picks the smaller
    assert cauchy_element(z6, z6.full_set(), 3) == 2
    assert cauchy_element(z6, z6.full_set(), 2) == 3


def test_the_tuple_route_peaks_within_its_bytes_per_tuple_coordinate():
    # C5xC5 at p = 5: 390,625 tuples of 5 coordinates, held as 1-byte
    # entries beside the rotation's 4-byte index table, 5 bytes per
    # coordinate; the whole run peaks at 5.6, as every other pass over a
    # coordinate or a row of the table reads a block of CHECK_CELLS entries
    g = build(GroupSpec.product(GroupSpec.cyclic(5), GroupSpec.cyclic(5)))
    h = g.full_set()
    assert cauchy_element(g, h, 5) == 1
    tracemalloc.start()
    try:
        cauchy_element(g, h, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 5 * 25 ** 4, peak / (5 * 25 ** 4)


def test_a_cauchy_run_leaves_the_table_as_an_array():
    # the fixed tuples' order check reads each power from a view of one row
    # of g.mul; the whole table as Python lists would hold 30 MiB on C999
    g = build(GroupSpec.cyclic(999))
    tracemalloc.start()
    try:
        assert cauchy_element(g, g.full_set(), 3) == 333
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 2 * 2**20, left


def test_tuple_cap_may_be_set_to_its_ceiling(monkeypatch):
    monkeypatch.setenv(TUPLE_CAP_ENV, "0" + str(DEFAULT_TUPLE_CAP))
    assert tuple_cap() == DEFAULT_TUPLE_CAP


def test_cauchy_fallback_same_answer(z6, monkeypatch):
    trace: list = []
    monkeypatch.setenv(TUPLE_CAP_ENV, "1")
    a = cauchy_element(z6, z6.full_set(), 3, trace)
    assert a == 2
    assert any("fell back" in line for line in trace)


def cauchy_on_both_routes(g, p, monkeypatch):
    """(route, answer) with the default cap, then the answer down the scan."""
    trace: list = []
    a = cauchy_element(g, g.full_set(), p, trace)
    with monkeypatch.context() as m:
        m.setenv(TUPLE_CAP_ENV, "1")
        scan = cauchy_element(g, g.full_set(), p)
    return ("scan" if "fell back" in trace[0] else "tuples", a), scan


def test_cauchy_routes_agree_on_the_catalog(monkeypatch):
    routes = []
    for _, g in catalog():
        for p in prime_divisors(g.order):
            (route, a), scan = cauchy_on_both_routes(g, p, monkeypatch)
            assert a == scan, (g.order, p)
            routes.append(route)
    assert (routes.count("tuples"), len(routes)) == (68, 79)


@pytest.mark.parametrize("spec, seed", RELABELED, ids=RELABELED_IDS)
def test_cauchy_routes_agree_on_relabelings(spec, seed, monkeypatch):
    g = relabeled(spec, seed)
    assert g.unit != 0
    for p in prime_divisors(g.order):
        (route, a), scan = cauchy_on_both_routes(g, p, monkeypatch)
        assert route == "tuples" and a == scan and order(g, a) == p


def test_cauchy_scans_fixed_points_once(z6, monkeypatch):
    scans, congruences = [], []

    def counted_fixed_points(act):
        scans.append(act)
        return fixed_points(act)

    def recorded_congruence(act, p, fixed=None):
        check = mod_p_fixed_point_check(act, p, fixed)
        congruences.append(check)
        return check

    monkeypatch.setattr(action_mod, "fixed_points", counted_fixed_points)
    monkeypatch.setattr(sylow_mod, "fixed_points", counted_fixed_points)
    monkeypatch.setattr(sylow_mod, "mod_p_fixed_point_check", recorded_congruence)
    trace: list = []
    assert cauchy_element(z6, z6.full_set(), 3, trace) == 2
    assert len(scans) == 1
    assert [c.ok for c in congruences] == [True]
    assert congruences[0].witness == {"points": 36, "fixed": 3, "p": 3}
    assert trace == ["cauchy p=3: 36 product-one tuples, 3 fixed, nonunit diagonal min 2"]


def test_cauchy_validation(z6, s3):
    with pytest.raises(NotPrime):
        cauchy_element(z6, z6.full_set(), 4)
    with pytest.raises(DoesNotDivide):
        cauchy_element(z6, z6.full_set(), 5)
    with pytest.raises(InvalidSubgroup):
        cauchy_element(s3, members(s3, [0, 1, 2]), 2)


def test_huge_prime_is_rejected_by_the_order_bound(z6):
    huge = 2**61 - 1  # prime; trial division up to its root takes minutes
    with pytest.raises(DoesNotDivide):
        cauchy_element(z6, z6.full_set(), huge)
    with pytest.raises(PDoesNotDivide):
        sylow_subgroup(z6, z6.full_set(), huge)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.cyclic(12),
        GroupSpec.dihedral(6),
        GroupSpec.symmetric(4),
        GroupSpec.q8(),
        GroupSpec.product(GroupSpec.cyclic(2), GroupSpec.symmetric(3)),
    ],
    ids=lambda s: s.describe(),
)
def test_cauchy_order_is_exact(spec):
    g = build(spec)
    rows = oracles.table_rows(g)
    for p in (2, 3, 5, 7):
        if g.order % p:
            continue
        a = cauchy_element(g, g.full_set(), p)
        assert order(g, a) == p
        # the oracle agrees an element of that order exists
        assert any(
            oracles.naive_order(rows, g.unit, x) == p for x in range(g.order)
        )


def test_cauchy_in_proper_subgroup(s4):
    h = closure(s4, [1, 2])  # order 6
    a = cauchy_element(s4, h, 3)
    assert a in h
    assert order(s4, a) == 3


# -- the Sylow predicate -------------------------------------------------


def test_p_group_is_its_own_sylow(q8):
    assert is_sylow(q8, q8.full_set(), 2, q8.full_set())


def test_is_sylow_in_s4(s4):
    cert = sylow_subgroup(s4, s4.full_set(), 2)
    assert is_sylow(s4, s4.full_set(), 2, cert.subgroup)
    four = closure(s4, [9])  # a 4-cycle generates order 4: too small
    assert order(s4, 9) == 4
    assert not is_sylow(s4, s4.full_set(), 2, four)


def test_is_sylow_checks_prime(s4):
    with pytest.raises(NotPrime):
        is_sylow(s4, s4.full_set(), 6, s4.full_set())


# -- growing p-subgroups -------------------------------------------------


def test_extend_z12(z12):
    got = extend_p_subgroup(z12, z12.full_set(), 2, members(z12, [0, 6]), 1)
    assert got.indices() == (0, 3, 6, 9)


def test_extend_s4_steps(s4):
    full = s4.full_set()
    h1 = cyclic(s4, cauchy_element(s4, full, 2))
    h2 = extend_p_subgroup(s4, full, 2, h1, 1)
    assert h2.card == 4 and h1.issubset(h2) and is_normal(s4, h1, h2)
    h3 = extend_p_subgroup(s4, full, 2, h2, 2)
    assert h3.card == 8 and h2.issubset(h3) and is_normal(s4, h2, h3)
    assert is_sylow(s4, full, 2, h3)


def test_extend_validates_step_index(z12):
    with pytest.raises(ValueError):
        extend_p_subgroup(z12, z12.full_set(), 2, members(z12, [0, 6]), 2)
    with pytest.raises(InvalidSubgroup):
        extend_p_subgroup(z12, z12.full_set(), 2, members(z12, [0, 4, 8]), 1)


# -- Sylow existence with certificate ------------------------------------


def test_sylow_z12(z12):
    cert = sylow_subgroup(z12, z12.full_set(), 2)
    assert cert.subgroup.indices() == (0, 3, 6, 9)
    assert (cert.p, cert.n) == (2, 2)


def test_sylow_s4_orders(s4):
    full = s4.full_set()
    assert sylow_subgroup(s4, full, 2).subgroup.card == 8
    assert sylow_subgroup(s4, full, 3).subgroup.card == 3


def test_sylow_certificate_chain(s4):
    cert = sylow_subgroup(s4, s4.full_set(), 2)
    assert len(cert.chain) == cert.n == 3
    for i, h in enumerate(cert.chain):
        assert h.card == 2 ** (i + 1)
        assert is_subgroup(s4, h)
    for lo, hi in zip(cert.chain, cert.chain[1:]):
        assert lo.issubset(hi)
        assert is_normal(s4, lo, hi)
    assert cert.chain[-1].bits == cert.subgroup.bits
    assert cert.trace  # the log is populated


def test_certificate_dict_shape(q8):
    cert = sylow_subgroup(q8, q8.full_set(), 2)
    d = cert.to_certificate_dict()
    assert d["kind"] == "sylow"
    assert d["p"] == 2 and d["n"] == 3
    assert d["elements"] == list(range(8))  # the whole group


def test_sylow_of_p_group_is_whole(q8):
    cert = sylow_subgroup(q8, q8.full_set(), 2)
    assert cert.subgroup.card == 8


def test_sylow_validation(s3):
    with pytest.raises(PDoesNotDivide):
        sylow_subgroup(s3, s3.full_set(), 5)
    with pytest.raises(NotPrime):
        sylow_subgroup(s3, s3.full_set(), 4)


# -- conjugacy of Sylow subgroups ----------------------------------------


def test_conjugator_s3_pinned(s3):
    h, l = members(s3, [0, 2]), members(s3, [0, 5])
    x = sylow_conjugator(s3, s3.full_set(), 2, h, l)
    assert x == 1
    assert conjugate_set(s3, l, x).bits == h.bits


def test_conjugator_covers_all_ordered_pairs(s4):
    full = s4.full_set()
    for p in (2, 3):
        family = sylow_family(s4, full, p, sylow_subgroup(s4, full, p))
        for l1 in family:
            for l2 in family:
                x = sylow_conjugator(s4, full, p, l1, l2)
                assert conjugate_set(s4, l2, x).bits == l1.bits


def test_conjugator_on_smaller_p_subgroup(s4):
    # a non-maximal p-subgroup still lands inside some conjugate
    full = s4.full_set()
    h = cyclic(s4, cauchy_element(s4, full, 2))
    l = sylow_subgroup(s4, full, 2).subgroup
    x = sylow_conjugator(s4, full, 2, h, l)
    assert h.issubset(conjugate_set(s4, l, x))


def test_conjugator_rejects_non_p_power(s3):
    a3 = members(s3, [0, 3, 4])
    l = members(s3, [0, 1])
    with pytest.raises(NotPPower):
        sylow_conjugator(s3, s3.full_set(), 2, a3, l)


# -- the family and the counting theorems --------------------------------


def test_s3_family_is_the_three_transposition_subgroups(s3):
    full = s3.full_set()
    fam = sylow_family(s3, full, 2, sylow_subgroup(s3, full, 2))
    got = {frozenset(h.indices()) for h in fam}
    want = oracles.closed_subsets_of_size(oracles.table_rows(s3), s3.unit, 2)
    assert got == want
    assert len(fam) == 3


def test_s4_family_counts(s4):
    full = s4.full_set()
    assert len(sylow_family(s4, full, 2, sylow_subgroup(s4, full, 2))) == 3
    assert len(sylow_family(s4, full, 3, sylow_subgroup(s4, full, 3))) == 4


def test_family_deterministic_and_sylow(s4):
    full = s4.full_set()
    fam = sylow_family(s4, full, 2, sylow_subgroup(s4, full, 2))
    assert fam == sorted(fam, key=lambda h: h.indices())
    assert all(is_sylow(s4, full, 2, h) for h in fam)


def test_s5_prime_order_counts(s5):
    # for Sylow subgroups of prime order p, the family size is just
    # (number of order-p elements) / (p - 1); count the elements directly
    rows = oracles.table_rows(s5)
    ords = oracles.element_orders(rows, s5.unit)
    for p in (3, 5):
        n_elements = sum(1 for o in ords.values() if o == p)
        expect = n_elements // (p - 1)
        full = s5.full_set()
        assert len(sylow_family(s5, full, p, sylow_subgroup(s5, full, p))) == expect


def test_abelian_family_is_singleton(z12):
    full = z12.full_set()
    for p in (2, 3):
        assert len(sylow_family(z12, full, p, sylow_subgroup(z12, full, p))) == 1


def test_count_checks_s4(s4):
    full = s4.full_set()
    for p in (2, 3):
        cert = sylow_subgroup(s4, full, p)
        family = sylow_family(s4, full, p, cert)
        for c in sylow_count_divides_check(s4, full, p, cert, family):
            assert c.ok, c.name
        for c in sylow_count_mod_p_check(s4, full, p, cert, family):
            assert c.ok, c.name


def test_count_checks_q8(q8):
    full = q8.full_set()
    cert = sylow_subgroup(q8, full, 2)
    family = sylow_family(q8, full, 2, cert)
    for c in sylow_count_divides_check(q8, full, 2, cert, family):
        assert c.ok, c.name
    for c in sylow_count_mod_p_check(q8, full, 2, cert, family):
        assert c.ok, c.name


def test_battery_is_the_certificate_then_both_counting_checks(s4):
    full = s4.full_set()
    cert, family, order_check, counting = sylow_battery(s4, full, 2)
    assert cert.subgroup == sylow_subgroup(s4, full, 2).subgroup
    assert family == sylow_family(s4, full, 2, cert)
    divides = sylow_count_divides_check(s4, full, 2, cert, family)
    mod_p = sylow_count_mod_p_check(s4, full, 2, cert, family)
    assert order_check.name == "sylow_order[p=2]"
    assert [c.name for c in counting] == [c.name for c in divides + mod_p]
    checks = [order_check, *counting]
    assert all(c.ok for c in checks)
    # each stage's first check carries the stage's time
    assert all(checks[i].ms > 0 for i in (0, 1, 1 + len(divides)))


@pytest.mark.parametrize("check", [sylow_count_divides_check, sylow_count_mod_p_check])
def test_count_checks_refuse_a_family_without_the_subgroup(s4, check):
    full = s4.full_set()
    cert = sylow_subgroup(s4, full, 2)
    family = [h for h in sylow_family(s4, full, 2, cert) if h != cert.subgroup]
    with pytest.raises(InvalidSubgroup):
        check(s4, full, 2, cert, family)


def test_verify_builds_each_family_once(s4, monkeypatch):
    calls = []
    real = sylow_mod.sylow_family

    def family(g, k, p, cert):
        calls.append(p)
        return real(g, k, p, cert)

    monkeypatch.setattr(sylow_mod, "sylow_family", family)
    assert verify_group(s4, "s4").ok
    assert calls == [2, 3]


# -- the package's brute-force oracle ------------------------------------


def test_all_subgroups_s3_against_powerset(s3):
    """Order 6 is small enough to test every one of the 64 subsets."""
    rows = oracles.table_rows(s3)
    want = set()
    for bits in range(1 << 6):
        sub = frozenset(i for i in range(6) if (bits >> i) & 1)
        if sub and oracles.naive_is_subgroup(rows, s3.unit, sub):
            want.add(sub)
    got = {frozenset(h.indices()) for h in pkg_oracle.all_subgroups(s3)}
    assert got == want
    assert len(got) == 6


def test_all_subgroups_s4(s4):
    got = pkg_oracle.all_subgroups(s4)
    want = oracles.all_subgroups_naive(oracles.table_rows(s4), s4.unit)
    assert {frozenset(h.indices()) for h in got} == want
    assert len(got) == 30


def test_all_subgroups_sorted_by_size(s4):
    got = pkg_oracle.all_subgroups(s4)
    keys = [(h.card, h.indices()) for h in got]
    assert keys == sorted(keys)


def test_oracle_order_bound():
    g = build(GroupSpec.cyclic(61))
    with pytest.raises(UnsupportedSpec):
        pkg_oracle.all_subgroups(g)


def test_bruteforce_family_matches_constructed(s4, q8, z12):
    for g in (s4, q8, z12):
        full = g.full_set()
        for p in (2, 3):
            if g.order % p:
                continue
            fam = sylow_family(g, full, p, sylow_subgroup(g, full, p))
            brute = pkg_oracle.sylow_family_bruteforce(g, full, p)
            assert [h.indices() for h in fam] == [h.indices() for h in brute]


def test_element_order_scan_consistency(s4):
    for a in s4.elements():
        assert oracles.naive_order(oracles.table_rows(s4), s4.unit, a) == order(s4, a)
