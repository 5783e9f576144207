"""The standard group catalog and the theorem-suite runner.

verify_group re-derives, for one group, everything this package claims to
know: the defining axioms and their one-sided consequences, Lagrange over
a generated subgroup sample, orbit counting for conjugation and coset
translation, the fixed-point congruence where a p-power acts, Cauchy and
the full Sylow battery for every prime divisor, and the totient theorems.
Checks are aggregated per theorem by report.tally (counts of passing
instances, and a witness for the first failure only) so reports stay
readable; the per-instance loops live in the test suite.

Lagrange, translation and the congruence run over the sample in batches:
the sample is sorted by order and membership, so each order is one
contiguous run, cut into chunks by action.sample_batches, and each chunk
is one action.translation_batch.  The verdicts keep the sample's order,
so the first failure's witness is the first failing subgroup's.  A set
that is no subgroup raises InvalidSubgroup, and a fault the theory rules
out (in the table, its cached columns or the batch) InternalInvariant.
"""

from __future__ import annotations

import time

import numpy as np

from .action import (
    conjugation_action,
    mod_p_fixed_point_check,
    orbit_stabilizer_counts,
    orbit_stabilizer_ok,
    sample_batches,
    translation_batch,
)
from .cyclic import order, phi_theorem_checks
from .errors import GroupTheoryError
from .group import (
    Group,
    GroupSpec,
    build,
    check_identities,
    from_cayley_table,
)
from .numutil import prime_divisors, prime_power_base
from .report import Check, Report, tally
from .subgroup import subgroup_sample
from .sylow import cauchy_certificate, cauchy_element, sylow_battery


def catalog_specs() -> list[GroupSpec]:
    """The built-in groups every suite run covers: all small cyclics,
    dihedrals and symmetric groups, the quaternions, and a spread of
    direct products up to order 48."""
    specs: list[GroupSpec] = []
    specs += [GroupSpec.cyclic(n) for n in range(1, 25)]
    specs += [GroupSpec.dihedral(n) for n in range(1, 13)]
    specs += [GroupSpec.symmetric(n) for n in range(1, 6)]
    specs.append(GroupSpec.q8())
    c = GroupSpec.cyclic
    specs += [
        GroupSpec.product(c(2), c(2)),
        GroupSpec.product(c(2), c(3)),
        GroupSpec.product(c(2), GroupSpec.product(c(2), c(2))),
        GroupSpec.product(c(3), c(3)),
        GroupSpec.product(c(2), GroupSpec.symmetric(3)),
        GroupSpec.product(GroupSpec.q8(), c(2)),
        GroupSpec.product(c(4), c(6)),
        GroupSpec.product(GroupSpec.dihedral(4), c(3)),
        GroupSpec.product(c(5), c(5)),
        GroupSpec.product(GroupSpec.symmetric(3), GroupSpec.symmetric(3)),
        GroupSpec.product(GroupSpec.symmetric(4), c(2)),
    ]
    return specs


def catalog() -> list[tuple[str, Group]]:
    return [(spec.describe(), build(spec)) for spec in catalog_specs()]


def _aggregate(name: str, blocks: list[tuple[list, np.ndarray]]) -> Check:
    """The tally over blocks of (subgroups, verdicts), in order: one verdict
    per subgroup, or a row of one per point.  A failure's witness is its
    subgroup's members, then its point."""
    def witness(i: int) -> dict:
        for hs, ok in blocks:  # the block of instance i, then its place there
            if i < ok.size:
                r, z = divmod(i, ok.size // len(ok))
                found = {"subgroup": list(hs[r].indices())}
                if ok.ndim > 1:
                    found["point"] = z
                return found
            i -= ok.size

    return tally(name, np.concatenate([np.ones(0, bool), *(ok.ravel() for _, ok in blocks)]),
                 witness)


def verify_group(g: Group, label: str) -> Report:
    rep = Report(group=label, order=g.order)
    full = g.full_set()

    def add(check: Check, t0: float) -> None:
        check.ms = (time.perf_counter() - t0) * 1000.0
        rep.checks.append(check)

    rep.checks += check_identities(g)  # each law timed alone
    laws = {c.name: c.ok for c in rep.checks}
    t0 = time.perf_counter()
    # Every row and every column of the table is a permutation of the carrier.
    rows_ok = laws["identity:left_cancellation"]
    cols_ok = laws["identity:right_cancellation"]
    add(Check("latin_square", rows_ok and cols_ok, int(rows_ok), int(cols_ok)), t0)

    t0 = time.perf_counter()
    try:
        from_cayley_table(g.order, g.export_table())
        add(Check("table_roundtrip", True, 1, 1), t0)
    except GroupTheoryError as e:
        add(Check("table_roundtrip", False, 0, 1, str(e)), t0)

    # Lagrange, translation and the congruence, over the sample in batches
    # of one order; each check's time is its part of every batch.
    blocks: list[list] = [[], [], []]
    secs = [0.0, 0.0, 0.0]
    for hs in sample_batches(g, subgroup_sample(g)):
        n, k = g.order, hs[0].card
        b = translation_batch(g, hs)
        blocks[0].append((hs, (k * b.index == n) & (n % k == 0)))
        blocks[1].append((hs, orbit_stabilizer_ok(b.orbit, b.stab_index, k)))
        p = prime_power_base(k)
        if p:
            blocks[2].append((hs, b.orbit.shape[1] % p == b.fixed % p))
        secs = [t + dt for t, dt in zip(secs, b.secs)]
    names = ("lagrange", "orbit_stabilizer:translation", "mod_p_fixed_points:translation")
    lagrange, trans, congruence = (_aggregate(*nb) for nb in zip(names, blocks))
    for c, dt in zip((lagrange, trans, congruence), secs):
        c.ms = dt * 1000.0
    rep.checks.append(lagrange)

    t0 = time.perf_counter()
    conj = conjugation_action(g, full)
    add(tally("orbit_stabilizer:conjugation", orbit_stabilizer_counts(conj)[3],
              lambda z: {"point": z}), t0)
    p_whole = prime_power_base(g.order)
    if p_whole is not None:
        t0 = time.perf_counter()
        c = mod_p_fixed_point_check(conj, p_whole)
        c.name = "mod_p_fixed_points:conjugation"
        add(c, t0)

    rep.checks += [trans, congruence]

    for p in prime_divisors(g.order):
        t0 = time.perf_counter()
        trace: list[str] = []
        a = cauchy_element(g, full, p, trace)
        add(Check(f"cauchy_order[p={p}]", order(g, a) == p, order(g, a), p), t0)
        rep.certificates.append(cauchy_certificate(p, a, trace))

        cert, _, order_check, counting = sylow_battery(g, full, p)
        for c in counting:
            c.name = f"{c.name}[p={p}]"
        rep.checks += [order_check, *counting]
        rep.certificates.append(cert.to_certificate_dict())

    rep.checks += phi_theorem_checks(max(2, g.order))  # each check timed alone
    return rep
