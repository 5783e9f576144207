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
action.sample_batches cuts the sample, sorted by order and membership,
into consecutive runs of any orders, each one action.translation_batch
reduced as it is made to what the report reads: indices, fixed points,
laps and each point's verdict, in the sample's order, so the first
failure's witness is the first failing subgroup's (and point's).  A set
that is no subgroup raises InvalidSubgroup, and a fault the theory rules
out (in the table, its cached columns or the batch) InternalInvariant.
"""

from __future__ import annotations

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
from .report import Check, Clock, Report, tally
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


def _aggregate(name: str, hs: list, ok: np.ndarray, points: np.ndarray | None = None) -> Check:
    """The tally of ok, one verdict per subgroup of hs, or with ``points``
    the verdicts of each subgroup's points laid end to end, points[i] of
    them for hs[i].  A failure's witness is its subgroup's members, then
    its point."""
    def witness(i: int) -> dict:
        if points is None:
            return {"subgroup": list(hs[i].indices())}
        ends = np.cumsum(points)
        r = int(np.searchsorted(ends, i, side="right"))
        return {"subgroup": list(hs[r].indices()), "point": i - int(ends[r] - points[r])}

    return tally(name, ok, witness)


def verify_group(g: Group, label: str) -> Report:
    clock = Clock()  # stamps what is appended, so the checks' ms add up to the call's
    rep = Report(group=label, order=g.order)
    full = g.full_set()

    rep.checks += clock.stamp(*check_identities(g))  # each law timed alone
    laws = {c.name: c.ok for c in rep.checks}
    # Every row and every column of the table is a permutation of the carrier.
    rows_ok = laws["identity:left_cancellation"]
    cols_ok = laws["identity:right_cancellation"]
    rep.checks += clock.stamp(Check("latin_square", rows_ok & cols_ok, int(rows_ok), int(cols_ok)))

    try:
        from_cayley_table(g.order, g.export_table())
        roundtrip = Check("table_roundtrip", True, 1, 1)
    except GroupTheoryError as e:
        roundtrip = Check("table_roundtrip", False, 0, 1, str(e))
    rep.checks += clock.stamp(roundtrip)

    # Lagrange, translation and the congruence over the sample in batches,
    # each timed by its part of every batch, lagrange with the sample.
    sample = subgroup_sample(g)
    parts = []  # each batch as its indices, fixed points, points' verdicts and laps
    for hs in sample_batches(g, sample):
        b = translation_batch(g, hs)
        ok = orbit_stabilizer_ok(b.orbit, b.stab_index, np.repeat([h.card for h in hs], b.index))
        parts.append((b.index, b.fixed, ok, b.ms))
    index, fixed, ok, ms = (np.concatenate(v) for v in zip(*parts))
    del parts  # the batches' pieces, now concatenated
    n, k = g.order, np.array([h.card for h in sample])
    lagrange = _aggregate("lagrange", sample, (k * index == n) & (n % k == 0))
    trans = _aggregate("orbit_stabilizer:translation", sample, ok, index)
    base = {x: prime_power_base(x) or 0 for x in set(k.tolist())}  # 0 unless a p-power
    p = np.array([base[x] for x in k.tolist()], dtype=np.int64)
    at = p > 0
    congruence = _aggregate("mod_p_fixed_points:translation",
                            [h for h, q in zip(sample, at) if q],
                            index[at] % p[at] == fixed[at] % p[at])
    lagrange.ms, trans.ms, congruence.ms = ms.reshape(-1, 3).sum(axis=0).tolist()
    clock.stamp(lagrange, trans, congruence)
    rep.checks.append(lagrange)

    conj = conjugation_action(g, full)
    rep.checks += clock.stamp(tally("orbit_stabilizer:conjugation",
                                    orbit_stabilizer_counts(conj)[3], lambda z: {"point": z}))
    p_whole = prime_power_base(g.order)
    if p_whole is not None:
        c = mod_p_fixed_point_check(conj, p_whole)
        c.name = "mod_p_fixed_points:conjugation"
        rep.checks += clock.stamp(c)

    rep.checks += [trans, congruence]  # stamped with lagrange

    for p in prime_divisors(g.order):
        trace: list[str] = []
        a = cauchy_element(g, full, p, trace)
        got = order(g, a)
        rep.checks += clock.stamp(Check(f"cauchy_order[p={p}]", got == p, got, p))
        rep.certificates.append(cauchy_certificate(p, a, trace))

        cert, _, order_check, counting = sylow_battery(g, full, p)
        for c in counting:
            c.name = f"{c.name}[p={p}]"
        rep.checks += clock.stamp(order_check, *counting)
        rep.certificates.append(cert.to_certificate_dict())

    rep.checks += clock.stamp(*phi_theorem_checks(max(2, g.order)))  # each check timed alone
    return rep
