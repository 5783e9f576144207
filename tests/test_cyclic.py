import importlib
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fingroups import (
    GroupSpec,
    build,
    closure,
    cyclic,
    order,
    phi,
    phi_theorem_checks,
    power,
    symmetric_elements,
)
from fingroups.numutil import is_prime, prime_divisors
from fingroups.report import Check
from fingroups.suite import verify_group

import oracles

cyclic_mod = importlib.import_module("fingroups.cyclic")  # the package's cyclic is the function


# -- iterated powers -----------------------------------------------------


def test_power_zero_is_unit(s3):
    assert all(power(s3, a, 0) == s3.unit for a in s3.elements())


def test_power_in_z6(z6):
    # the operation is addition, so powers are multiples
    assert power(z6, 2, 1) == 2
    assert power(z6, 2, 2) == 4
    assert power(z6, 2, 3) == 0
    assert power(z6, 5, 7) == 35 % 6


def test_negative_exponent_rejected(z6):
    with pytest.raises(ValueError):
        power(z6, 1, -1)


@given(st.integers(0, 7), st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=60)
def test_power_adds_exponents(q8, a, m, n):
    assert q8.mul[power(q8, a, m), power(q8, a, n)] == power(q8, a, m + n)


def test_power_and_cyclic_read_one_row_of_the_table():
    # rows() views the rows of g.mul: the table as Python lists would take
    # about 32 MiB on C1024, its row views a few hundred KiB
    g = build(GroupSpec.symmetric(3))
    assert [power(g, a, 2) for a in g.elements()] == [0, 0, 0, 4, 3, 0]
    assert all(type(power(g, a, 5)) is int for a in g.elements())
    assert [cyclic(g, a).card for a in g.elements()] == [1, 2, 2, 3, 3, 2]
    g = build(GroupSpec.cyclic(1024))
    tracemalloc.start()
    try:
        assert closure(g, [1]).card == 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# -- cyclic subgroups and element order ----------------------------------


def test_cyclic_of_unit(z6):
    assert cyclic(z6, 0).indices() == (0,)


def test_cyclic_in_z6(z6):
    assert cyclic(z6, 2).indices() == (0, 2, 4)
    assert cyclic(z6, 1).card == 6


def test_order_values(z6):
    assert order(z6, 0) == 1
    assert order(z6, 2) == 3
    assert order(z6, 1) == 6


def test_four_cycle_in_s4(s4):
    perms = symmetric_elements(4)
    fourcycle = perms.index((1, 2, 3, 0))
    assert order(s4, fourcycle) == 4
    assert 24 % order(s4, fourcycle) == 0
    assert cyclic(s4, fourcycle).card == 4


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.cyclic(12), GroupSpec.dihedral(6), GroupSpec.symmetric(4), GroupSpec.q8()],
    ids=lambda s: s.describe(),
)
def test_order_matches_naive_scan(spec):
    g = build(spec)
    rows = oracles.table_rows(g)
    want = oracles.element_orders(rows, g.unit)
    for a in g.elements():
        assert order(g, a) == want[a]
        assert cyclic(g, a).card == want[a]


def test_order_divides_group_order(s5):
    for a in range(0, 120, 7):
        assert 120 % order(s5, a) == 0


# -- Euler phi -----------------------------------------------------------


def test_phi_small_values():
    assert [phi(n) for n in range(11)] == [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_phi_of_primes():
    for p in (2, 3, 5, 7, 11, 97):
        assert phi(p) == p - 1


def test_phi_matches_factorization_formula():
    for n in range(1, 300):
        assert phi(n) == oracles.phi_formula(n)


def test_phi_theorem_checks():
    checks = phi_theorem_checks(120)
    assert [c.name for c in checks] == ["phi_multiplicative", "phi_prime_power"]
    assert all(c.ok for c in checks)


def test_phi_theorem_checks_match_the_loops():
    for bound in [*range(2, 131), 240, 1024]:
        want = [Check(*c) for c in oracles.naive_phi_theorem_checks(bound, phi)]
        assert phi_theorem_checks(bound) == want, bound


@pytest.mark.parametrize("wrong", [6, 9, 12, 25, 30, 49, 97])
def test_phi_theorem_checks_match_the_loops_on_a_wrong_phi(monkeypatch, wrong):
    def bad(n):
        return phi(n) + (n == wrong)

    monkeypatch.setattr(cyclic_mod, "phi", bad)
    got = phi_theorem_checks(120)
    assert got == [Check(*c) for c in oracles.naive_phi_theorem_checks(120, bad)]
    assert not all(c.ok for c in got)


def test_each_phi_check_is_timed_alone(monkeypatch, s4):
    # a fake clock reading k * k seconds at its k-th read: the check between
    # reads k and k + 1 takes 2k + 1 s, the phi table counting with the first
    reads = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)) ** 2)
    assert [c.ms for c in phi_theorem_checks(120)] == [1000.0, 3000.0]
    # in verify, of n reads, the phi clock starts at read n - 4 and stamps
    # at n - 3 and n - 2, and verify stamps both at the last; the second
    # keeps its time, the first takes the rest of verify's lap from its
    # previous stamp at read n - 5
    reads = itertools.count()
    mult, pp = verify_group(s4, "s4").checks[-2:]
    n = next(reads)
    assert (mult.name, pp.name) == ("phi_multiplicative", "phi_prime_power")
    assert pp.ms == 1000.0 * (2 * (n - 3) + 1)
    assert mult.ms + pp.ms == 1000.0 * ((n - 1) ** 2 - (n - 5) ** 2)


def test_phi_theorem_bound_validation():
    with pytest.raises(ValueError):
        phi_theorem_checks(1)


# -- the small prime helpers ---------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_prime_divisors():
    assert prime_divisors(1) == []
    assert prime_divisors(12) == [2, 3]
    assert prime_divisors(30) == [2, 3, 5]
    assert prime_divisors(49) == [7]
