"""Constructive Cauchy and Sylow: existence with certificates, conjugacy,
and the counting congruences.

Cauchy's theorem is run as a computation.  For a prime p dividing |H|,
form the family of length-p tuples over H whose product is the unit; it
has |H|^(p-1) members, since the first component is determined by the rest.
The cyclic group of order p acts on it by index rotation, the fixed points
are exactly the constant tuples (h, ..., h) with h^p = 1, and the mod-p
fixed-point count forces a nonunit such h to exist.  The element returned
is the smallest-index nonunit diagonal value, a deterministic tie-break.

A Sylow subgroup is then grown order by order: given a p-subgroup of order
p^i below the maximum, translate its own cosets, read off the fixed-coset
count as the index of its normalizer, apply Cauchy inside the quotient of
that normalizer, and pull the resulting order-p subgroup back.  Every step
of the chain is re-verified; the whole run is logged in a certificate.

Conjugacy (every p-subgroup embeds in a conjugate of any Sylow subgroup)
falls out of translating the Sylow subgroup's cosets, and both counting
facts about the family of Sylow subgroups are re-derived from their own
actions rather than divided out of cardinalities.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .action import (
    Action,
    conjugation_action_on_subsets,
    fixed_points,
    left_translation_action,
    make_action,
    mod_p_fixed_point_check,
    orbit,
    orbit_stabilizer_check,
)
from .carrier import Carrier, ElemSet
from .conjnormal import (
    conjugacy_family,
    conjugate_set,
    is_normal,
    normalizer,
    preimage_subgroup,
    quotient_group,
)
from .cyclic import cyclic, order, power
from .errors import (
    DoesNotDivide,
    InternalInvariant,
    InvalidSubgroup,
    NotPPower,
    NotPrime,
    PDoesNotDivide,
    UnsupportedSpec,
    quote_input,
)
from .group import Group, GroupSpec, blocks, build
from .numutil import is_prime, padic_val
from .report import Check, Clock
from .subgroup import is_subgroup, require_nested_subgroups, subgroup_set

TUPLE_CAP_ENV = "GRP_MAX_TUPLE_CARRIER"
DEFAULT_TUPLE_CAP = 10**6


def tuple_cap() -> int:
    """Size bound for materializing the product-one tuple family; the
    environment may lower it, never raise it (a Cauchy run at the default
    peaks at about 20 MiB traced, at p = 3 or p = 5)."""
    raw = os.environ.get(TUPLE_CAP_ENV)
    if raw is None:
        return DEFAULT_TUPLE_CAP
    try:
        cap = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # past Python's digit limit
        cap = 0
    if not 1 <= cap <= DEFAULT_TUPLE_CAP:
        raise UnsupportedSpec(f"{TUPLE_CAP_ENV} must be a positive integer no larger than "
                              f"{DEFAULT_TUPLE_CAP}, got {quote_input(raw)}")
    return cap


def _note(trace: list[str] | None, line: str) -> None:
    if trace is not None:
        trace.append(line)


@dataclass(eq=False)
class TupleCarrier:
    """The length-p tuples over a subgroup whose product is the unit
    (|H|^(p-1) of them): tuple r is the one whose trailing p-1 coordinates
    have mixed-radix rank r over the ascending members.  They are held as
    one C-contiguous (p, |H|^(p-1)) array in the narrowest unsigned dtype
    that holds the group's labels (uint8 up to order 256, else uint16), one
    row per coordinate; ``tuples`` is its transpose, one row per tuple."""

    members: tuple[int, ...]
    tuples: np.ndarray


def product_one_tuples(g: Group, h: ElemSet, p: int) -> TupleCarrier:
    """Materialize the product-one tuple family over a subgroup, in the
    dtype TupleCarrier names.  The |H|^(p-1) choices of tail each fix the
    head.  Coordinate j >= 1 repeats the members along axis j-1 of the
    rank's (|H|,)*(p-1) grid; the head inverts the tail's prefix products,
    each one row gather of the member columns from the last, in that dtype."""
    m = h.card
    dt = np.min_scalar_type(g.order - 1)
    mem = h.as_array().astype(dt)
    cols = np.empty((p, m ** (p - 1)), dtype=dt)
    for j in range(1, p):
        cols[j].reshape(m ** (j - 1), m, -1)[...] = mem[:, None]
    prod = mem
    if p > 2:
        by_member = g.mul[:, mem].astype(dt)  # column k multiplies on the right by member k
        for _ in range(p - 2):
            prod = by_member.take(prod, axis=0).ravel()
    for b in blocks(len(prod)):
        g.inv.take(prod[b], out=cols[0, b], mode="clip")
    return TupleCarrier(h.indices(), cols.T)


@functools.cache
def cyclic_of_prime(p: int) -> Group:
    """Z_p, built and validated once per prime; under the tuple cap Cauchy
    brings only p <= 7 here."""
    return build(GroupSpec.cyclic(p))


def rotation_action(tc: TupleCarrier) -> Action:
    """The cyclic group of order p acting on the tuple family by index
    rotation, which preserves the product-one condition.  With m = |H|,
    tuple r has tail digits d_1 ... d_(p-1) (d_1 the most significant) and
    head rank d_0, looked up over the members.  Rotating it left by k
    places makes the tuple whose tail digits are d_(k+1) ... d_(p-1), d_0,
    d_1 ... d_(k-1), of rank

        (r mod m^(p-1-k)) * m^k + d_0 * m^(k-1) + (r div m^(p-k)),

    so row k is written in place from the head ranks by one multiply and
    one add of a digit grid m times smaller, with no gather and no n-sized
    temporary.  Lookup and table are int32, which holds any index under the
    tuple cap (10^6 at most; the environment can only lower it).  The head
    ranks are looked up, and each coordinate of the images under row 1 is
    checked against the next of the tuples a block at a time (group.blocks);
    make_action's law then checks each row k + 1 against row 1 applied to
    row k."""
    cols = tc.tuples.T
    p, n = cols.shape
    m = len(tc.members)
    rank = np.zeros(tc.members[-1] + 1, dtype=np.int32)  # rank[x]: member x's position
    rank[list(tc.members)] = np.arange(m)
    table = np.empty((p, n), dtype=np.int32)
    # A head outside the members gets an in-range rank; the check fails.
    spans = blocks(n)
    for b in spans:
        table[0, b] = np.arange(b.start, b.stop, dtype=np.int32)
        rank.take(cols[0, b], out=table[1, b], mode="clip")
    for k in range(p - 1, 0, -1):  # row 1 holds the head ranks until last
        np.multiply(table[1], m ** (k - 1), out=table[k])
        digits = table[k].reshape(m ** (k - 1), m, -1)  # (d_1..d_(k-1), d_k, the rest)
        digits += np.add.outer(np.arange(m ** (k - 1), dtype=np.int32),
                               np.arange(0, n, m ** k, dtype=np.int32))[:, None]
    # one gather of every coordinate per block converts its index once; row
    # 1 is in range, so clip mode only spares a copy of the buffer
    image = np.empty(p * spans[0].stop, dtype=cols.dtype)
    for b in spans:
        sigma = table[1, b]
        out = image[:p * len(sigma)].reshape(p, -1)
        cols.take(sigma, axis=1, out=out, mode="clip")
        if not ((out[:-1] == cols[1:, b]).all() and (out[-1] == cols[0, b]).all()):
            raise InternalInvariant("rotation left the product-one family")
    zp = cyclic_of_prime(p)
    return make_action(zp, zp.full_set(), Carrier(n), table)


def cauchy_element(g: Group, h: ElemSet, p: int, trace: list[str] | None = None) -> int:
    """An element of order exactly p inside a subgroup whose order p
    divides.  Uses the tuple-family construction when it fits under the
    size cap and a direct ascending order scan otherwise; both choose the
    smallest-index qualifying element, so the answer does not depend on
    the route taken."""
    if p > h.card:  # before the trial-division primality test
        raise DoesNotDivide(f"{p} does not divide the subgroup order {h.card}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    subgroup_set(g, h)
    if h.card % p != 0:
        raise DoesNotDivide(f"{p} does not divide the subgroup order {h.card}")

    family_size = h.card ** (p - 1)
    cap = tuple_cap()
    if family_size <= cap:
        tc = product_one_tuples(g, h, p)
        act = rotation_action(tc)
        s0 = fixed_points(act)
        if not mod_p_fixed_point_check(act, p, s0).ok:
            raise InternalInvariant("fixed-point congruence failed on the tuple family")
        if s0.card % p != 0:
            raise InternalInvariant("fixed tuple count is not divisible by p")
        fixed = tc.tuples[s0.as_array()]
        if (fixed != fixed[:, :1]).any():
            raise InternalInvariant("fixed tuple is not constant")
        diagonal = fixed[:, 0].tolist()
        if any(power(g, x, p) != g.unit for x in diagonal):
            raise InternalInvariant("fixed tuple diagonal has wrong order")
        candidates = sorted(x for x in diagonal if x != g.unit)
        if not candidates:
            raise InternalInvariant("no nonunit fixed tuple despite the congruence")
        a = candidates[0]
        _note(trace, f"cauchy p={p}: {family_size} product-one tuples, "
                     f"{s0.card} fixed, nonunit diagonal min {a}")
    else:
        a = -1
        for x in h:
            if x != g.unit and power(g, x, p) == g.unit:
                a = x
                break
        if a < 0:
            raise InternalInvariant("no element of order p found by direct scan")
        _note(trace, f"cauchy p={p}: tuple family size {family_size} exceeds cap "
                     f"{cap}, fell back to direct element-order scan, min {a}")

    if order(g, a) != p:
        raise InternalInvariant(f"candidate {a} does not have order {p}")
    return a


def is_sylow(g: Group, k: ElemSet, p: int, h: ElemSet) -> bool:
    """H is a subgroup of K of order exactly p^(val_p |K|)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    subgroup_set(g, k)
    n = padic_val(p, k.card)
    return is_subgroup(g, h) and h.issubset(k) and h.card == p**n


def cauchy_certificate(p: int, a: int, trace: list[str]) -> dict:
    """The report certificate of a Cauchy run that returned a."""
    return {"kind": "cauchy", "p": p, "n": 1, "elements": [int(a)], "trace": list(trace)}


@dataclass(frozen=True)
class SylowCertificate:
    """Proof-carrying output of the Sylow existence run: the subgroup, the
    full tower of intermediate p-subgroups, and a human-readable log."""

    subgroup: ElemSet
    p: int
    n: int
    chain: tuple[ElemSet, ...]
    trace: tuple[str, ...]

    def to_certificate_dict(self) -> dict:
        return {
            "kind": "sylow",
            "p": self.p,
            "n": self.n,
            "elements": [int(i) for i in self.subgroup.indices()],
            "trace": list(self.trace),
        }


def extend_p_subgroup(
    g: Group, k: ElemSet, p: int, hi: ElemSet, i: int, trace: list[str] | None = None
) -> ElemSet:
    """Grow a p-subgroup of order p^i (i below the maximum) to one of
    order p^(i+1) containing it as a normal subgroup.

    The fixed cosets of hi translating its own cosets in K are the cosets
    inside the normalizer N; their count is the index [N : hi], which the
    congruence forces to be divisible by p.  Cauchy inside N/hi then yields
    an order-p subgroup whose pullback is the extension.  The points of
    N/hi are the coset roots in N, so its order is that index.
    """
    n = padic_val(p, k.card)
    if not 1 <= i < n:
        raise ValueError(f"step index {i} outside [1, {n})")
    require_nested_subgroups(g, hi, k)
    if hi.card != p**i:
        raise InvalidSubgroup(f"expected order {p**i}, got {hi.card}")

    act = left_translation_action(g, hi, hi, k)
    s0 = fixed_points(act)
    nrm = normalizer(g, hi, k)
    quot = quotient_group(g, hi, nrm)
    if s0.card != quot.group.order:
        raise InternalInvariant("fixed cosets do not match the normalizer index")
    if not mod_p_fixed_point_check(act, p, s0).ok:
        raise InternalInvariant("fixed-point congruence failed on coset translation")
    if quot.group.order % p != 0:
        raise InternalInvariant("p does not divide the normalizer index")

    aq = cauchy_element(quot.group, quot.group.full_set(), p)
    lifted = preimage_subgroup(quot, cyclic(quot.group, aq))

    if lifted.card != p ** (i + 1):
        raise InternalInvariant("extension has the wrong order")
    if not hi.issubset(lifted) or not lifted.issubset(k):
        raise InternalInvariant("extension broke the containment chain")
    if not is_subgroup(g, lifted):
        raise InternalInvariant("extension is not a subgroup")
    if not is_normal(g, hi, lifted):
        raise InternalInvariant("previous stage is not normal in the extension")

    _note(trace, f"step {i}: normalizer order {nrm.card}, quotient order "
                 f"{quot.group.order}, extended to order {lifted.card}")
    return lifted


def sylow_subgroup(g: Group, k: ElemSet, p: int) -> SylowCertificate:
    """Construct a Sylow p-subgroup of K with a step-by-step certificate."""
    if p > k.card:  # before the trial-division primality test
        raise PDoesNotDivide(f"{p} does not divide the group order {k.card}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    subgroup_set(g, k)
    n = padic_val(p, k.card)
    if n == 0:
        raise PDoesNotDivide(f"{p} does not divide the group order {k.card}")

    trace: list[str] = []
    a = cauchy_element(g, k, p, trace)
    h = cyclic(g, a)
    _note(trace, f"base subgroup: cyclic({a}) of order {h.card}")
    chain = [h]
    for i in range(1, n):
        h = extend_p_subgroup(g, k, p, h, i, trace)
        chain.append(h)

    cert = SylowCertificate(subgroup=h, p=p, n=n, chain=tuple(chain), trace=tuple(trace))
    if not is_sylow(g, k, p, h):
        raise InternalInvariant("constructed subgroup fails the Sylow predicate")
    return cert


def sylow_conjugator(g: Group, k: ElemSet, p: int, h: ElemSet, l: ElemSet) -> int:
    """For a p-subgroup H and a Sylow subgroup L of K: an x in K with
    H contained in x L x^-1 (equality when H is Sylow too).

    H translates the cosets of L; the coset count is coprime to p, so some
    coset is fixed, and its minimum-index root is the conjugator.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    require_nested_subgroups(g, h, k)
    if h.card != p ** padic_val(p, h.card):
        raise NotPPower(f"h has order {h.card}, not a power of {p}")
    if not is_sylow(g, k, p, l):
        raise InvalidSubgroup("l must be a Sylow subgroup of k")

    act = left_translation_action(g, h, l, k)
    if act.points.size % p == 0:
        raise InternalInvariant("coset count of a Sylow subgroup divisible by p")
    s0 = fixed_points(act)
    if not mod_p_fixed_point_check(act, p, s0).ok:
        raise InternalInvariant("fixed-point congruence failed on Sylow translation")
    if not s0:
        raise InternalInvariant("no fixed coset despite the congruence")
    x = min(act.point_labels[i] for i in s0)
    if not h.issubset(conjugate_set(g, l, x)):
        raise InternalInvariant("fixed-coset root does not conjugate over h")
    return int(x)


def sylow_family(g: Group, k: ElemSet, p: int, cert: SylowCertificate) -> list[ElemSet]:
    """All Sylow p-subgroups of K, as the conjugation orbit of the
    certificate's subgroup, deduplicated and deterministically ordered by
    membership list."""
    return conjugacy_family(g, k, cert.subgroup)


def _position(family: list[ElemSet], cert: SylowCertificate) -> int:
    """Where the certificate's subgroup sits in the family."""
    try:
        return family.index(cert.subgroup)
    except ValueError:
        raise InvalidSubgroup("the family does not hold the certificate's subgroup") from None


def sylow_count_divides_check(
    g: Group, k: ElemSet, p: int, cert: SylowCertificate, family: list[ElemSet]
) -> list[Check]:
    """The number of Sylow p-subgroups divides |K|, re-derived from the
    conjugation action: the family is a single orbit whose size equals a
    stabilizer index."""
    count = len(family)
    base_index = _position(family, cert)
    act = conjugation_action_on_subsets(g, k, family)
    orb = orbit(act, base_index)
    checks = [
        Check("sylow_family_single_orbit", orb.card == count, orb.card, count),
        *orbit_stabilizer_check(act, base_index),
        Check("sylow_count_divides", k.card % count == 0, k.card % count, 0,
              {"count": count, "group_order": k.card}),
    ]
    return checks


def sylow_count_mod_p_check(
    g: Group, k: ElemSet, p: int, cert: SylowCertificate, family: list[ElemSet]
) -> list[Check]:
    """The number of Sylow p-subgroups is congruent to 1 mod p, re-derived
    by letting the constructed Sylow subgroup conjugate the family: it
    fixes itself and nothing else, and the congruence transfers the count."""
    count = len(family)
    base_index = _position(family, cert)

    act = conjugation_action_on_subsets(g, cert.subgroup, family)
    s0 = fixed_points(act)
    congruence = mod_p_fixed_point_check(act, p, s0)

    # Every fixed family member shares a normalizer in which both it and
    # the constructed subgroup are Sylow; that is what collapses the fixed
    # set to the subgroup itself.
    nrm_ok = True
    for i in s0:
        nrm = normalizer(g, family[i], k)
        if not (is_sylow(g, nrm, p, cert.subgroup) and is_sylow(g, nrm, p, family[i])):
            nrm_ok = False
    return [
        Check("sylow_fixed_only_self", s0.indices() == (base_index,),
              list(s0.indices()), [base_index]),
        Check("sylow_in_fixed_normalizers", nrm_ok, int(nrm_ok), 1),
        congruence,
        Check("sylow_count_mod_p", count % p == 1, count % p, 1, {"count": count}),
    ]


def sylow_battery(
    g: Group, k: ElemSet, p: int
) -> tuple[SylowCertificate, list[ElemSet], Check, list[Check]]:
    """A Sylow p-subgroup of K with its certificate, the family of all of
    them, built once, the check sylow_order[p=p], and the counting checks:
    the divides checks, then the mod-p checks.  The counting checks are
    named without p, so each caller names them as it prints them.  The
    first check of each of the three stages carries the stage's time."""
    clock = Clock()
    cert = sylow_subgroup(g, k, p)
    [order_check] = clock.stamp(Check(f"sylow_order[p={p}]", cert.subgroup.card == p**cert.n,
                                      cert.subgroup.card, p**cert.n))
    family = sylow_family(g, k, p, cert)
    divides = clock.stamp(*sylow_count_divides_check(g, k, p, cert, family))
    mod_p = clock.stamp(*sylow_count_mod_p_check(g, k, p, cert, family))
    return cert, family, order_check, divides + mod_p
