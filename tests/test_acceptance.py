"""Acceptance gate: one test per criterion, run with `pytest -v` to get a
pass/fail line for each.  Expected values come from the naive oracles in
oracles.py or from exhaustive scans done inside the test, never from the
code under test.
"""

import json
import subprocess
import sys
import time
from math import gcd

import numpy as np
import pytest

from fingroups import (
    GroupSpec,
    build,
    cauchy_element,
    check_identities,
    conjugate_set,
    conjugation_action,
    from_cayley_table,
    image_subgroup,
    is_normal,
    left_index,
    left_translation_action,
    mod_p_fixed_point_check,
    orbit,
    orbit_stabilizer_check,
    orbit_stabilizer_counts,
    order,
    phi,
    phi_theorem_checks,
    preimage_subgroup,
    quotient_group,
    quotient_morphism_check,
    set_of,
    subgroup_sample,
    sylow_conjugator,
    sylow_count_divides_check,
    sylow_count_mod_p_check,
    sylow_family,
    sylow_subgroup,
)
from fingroups.numutil import prime_divisors
from fingroups.suite import catalog
from fingroups.sylow import padic_val

import oracles


@pytest.fixture(scope="module")
def groups():
    return catalog()


@pytest.fixture(scope="module")
def samples(groups):
    return {label: subgroup_sample(g) for label, g in groups}


@pytest.fixture(scope="module")
def oracle_subgroups(groups):
    """Closure-adjunction enumeration of every subgroup, for groups small
    enough (order <= 60) that the naive route is exhaustive."""
    out = {}
    for label, g in groups:
        if g.order <= 60:
            out[label] = oracles.all_subgroups_naive(oracles.table_rows(g), g.unit)
    return out


def test_criterion_01_axiom_round_trip(groups):
    t0 = time.perf_counter()
    for label, g in groups:
        rebuilt = from_cayley_table(g.order, g.export_table())
        assert rebuilt.unit == g.unit, label
        assert np.array_equal(rebuilt.mul, g.mul), label
        checks = check_identities(g)
        assert len(checks) == 9
        assert all(c.ok for c in checks), (label, [c.name for c in checks if not c.ok])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"round-trip took {elapsed:.1f}s"


def test_criterion_02_lagrange(groups, samples):
    t0 = time.perf_counter()
    for label, g in groups:
        full = g.full_set()
        for h in samples[label]:
            assert h.card * left_index(g, h, full) == g.order, (label, h.indices())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"Lagrange sweep took {elapsed:.1f}s"


def _prime_power(n):
    for p in prime_divisors(n):
        if p ** padic_val(p, n) == n:
            return p
    return None


def test_criterion_03_orbit_stabilizer_and_mod_p(groups, samples):
    for label, g in groups:
        full = g.full_set()
        acts = [conjugation_action(g, full)]
        acts += [left_translation_action(g, h, h, full) for h in samples[label]]
        for act in acts:
            hcard = act.acting.card
            orb, _, idx, ok = orbit_stabilizer_counts(act)
            for a in range(act.points.size):
                assert ok[a], label
                assert orb[a] == idx[a] == orbit(act, a).card, label
                assert hcard % orbit(act, a).card == 0, label
            assert all(c.ok for c in orbit_stabilizer_check(act, 0)), label
            p = _prime_power(hcard)
            if p is not None:
                assert mod_p_fixed_point_check(act, p).ok, label


def test_criterion_04_cauchy(groups):
    for label, g in groups:
        rows = oracles.table_rows(g)
        full = g.full_set()
        for p in prime_divisors(g.order):
            a = cauchy_element(g, full, p)
            assert order(g, a) == p, (label, p)
            # existence and tie-break agree with a naive order scan
            want = min(
                x for x in range(g.order)
                if oracles.naive_order(rows, g.unit, x) == p
            )
            assert a == want, (label, p)
    z6 = build(GroupSpec.cyclic(6))
    assert cauchy_element(z6, z6.full_set(), 3) == 2


def test_criterion_05_sylow_existence_with_certified_chain(groups):
    for label, g in groups:
        full = g.full_set()
        for p in prime_divisors(g.order):
            n = padic_val(p, g.order)
            cert = sylow_subgroup(g, full, p)
            assert cert.subgroup.card == p**n, (label, p)
            assert len(cert.chain) == n
            assert cert.chain[0].card == p
            for lo, hi in zip(cert.chain, cert.chain[1:]):
                assert hi.card == p * lo.card, (label, p)
                assert lo.issubset(hi)
                assert is_normal(g, lo, hi), (label, p)


def test_criterion_06_sylow_conjugacy_over_oracle_pairs(groups, oracle_subgroups):
    for label, g in groups:
        if label not in oracle_subgroups:
            continue  # the enumeration oracle is bounded to order <= 60
        full = g.full_set()
        for p in prime_divisors(g.order):
            size = p ** padic_val(p, g.order)
            sylows = [s for s in oracle_subgroups[label] if len(s) == size]
            assert sylows, (label, p)
            members = [set_of(g.carrier, s) for s in sylows]
            for l1 in members:
                for l2 in members:
                    x = sylow_conjugator(g, full, p, l2, l1)
                    assert conjugate_set(g, l1, x).bits == l2.bits, (label, p)


def test_criterion_07_sylow_counting(groups, oracle_subgroups):
    t0 = time.perf_counter()
    counts = {}
    for label, g in groups:
        full = g.full_set()
        for p in prime_divisors(g.order):
            cert = sylow_subgroup(g, full, p)
            fam = sylow_family(g, full, p, cert)
            counts[label, p] = len(fam)
            # the counting theorems, re-derived through group actions
            assert all(c.ok for c in sylow_count_divides_check(g, full, p, cert, fam)), (label, p)
            assert all(c.ok for c in sylow_count_mod_p_check(g, full, p, cert, fam)), (label, p)
            assert g.order % len(fam) == 0 and len(fam) % p == 1
            # against the independent enumeration where it is exhaustive
            if label in oracle_subgroups:
                size = p ** padic_val(p, g.order)
                want = {s for s in oracle_subgroups[label] if len(s) == size}
                assert {frozenset(h.indices()) for h in fam} == want, (label, p)
        if oracles.naive_is_abelian(oracles.table_rows(g)):
            for p in prime_divisors(g.order):
                assert counts[label, p] == 1, label

    assert counts["symmetric:4", 2] == 3
    assert counts["symmetric:4", 3] == 4
    assert counts["symmetric:3", 2] == 3

    # the combinatorial scan over all C(24,8) subsets is a second,
    # assumption-free count of the S4 Sylow 2-subgroups
    s4 = dict(groups)["symmetric:4"]
    scan = oracles.closed_subsets_of_size(oracles.table_rows(s4), s4.unit, 8)
    assert len(scan) == 3

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"Sylow counting took {elapsed:.1f}s"


def test_criterion_08_quotient_soundness(groups, samples):
    for label, g in groups:
        sample = samples[label]
        for h in sample:
            for k in sample:
                if h.bits == k.bits or not h.issubset(k):
                    continue
                if not is_normal(g, h, k):
                    continue
                q = quotient_group(g, h, k)  # runs full table validation
                assert q.group.order == left_index(g, h, k), label
                assert all(c.ok for c in quotient_morphism_check(q)), label
                for l1 in subgroup_sample(q.group):
                    back = image_subgroup(q, preimage_subgroup(q, l1))
                    assert back.bits == l1.bits, label


def test_criterion_09_euler_phi():
    t0 = time.perf_counter()
    for n in range(1001):
        by_gcd = sum(1 for k in range(n) if gcd(k, n) == 1) if n else 0
        assert phi(n) == by_gcd, n
        assert phi(n) == oracles.phi_formula(n), n
    checks = phi_theorem_checks(1000)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"phi sweep took {elapsed:.1f}s"


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k != "ms"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def test_criterion_10_report_determinism():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "fingroups.cli", "verify", "s4", "--json"],
            capture_output=True, text=True, check=True,
        )
        runs.append(_strip_timing(json.loads(proc.stdout)))
    assert runs[0] == runs[1]
