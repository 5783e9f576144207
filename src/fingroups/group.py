"""Validated finite groups given by Cayley tables, plus a standard catalog.

A Group is a carrier together with a unit element, an inverse table and a
multiplication table.  Construction goes through from_cayley_table, which
accepts exactly the tables satisfying the three defining axioms

    unit * x == x              (left unit)
    inv(x) * x == unit         (left inverse)
    (x * y) * z == x * (y * z) (associativity, by Light's test)

with the unit located as the unique two-sided identity and inverses derived
from the table.  Light's test (Clifford and Preston, The Algebraic Theory of
Semigroups I, section 1.2) proves associativity from a generating set: the
a with (x * a) * y == x * (a * y) for all x and y contain the unit and are
closed under the product, so when every generator passes, every element
does.  Generators are picked greedily, each the smallest element not yet
reached, so a group needs at most log2(order) + 1 of them.  A table that
fails the test is scanned for its first violating triple by law_break,
the one scan of the law x.(y.z) == (x*y).z (here t acting on itself by
left multiplication).  Every check reads the table in the slices of
blocks, whole rows or columns, so none holds an n-by-n temporary.
All the usual right-sided laws are consequences; they are re-verified, not
assumed, by check_identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .carrier import Carrier, ElemSet, full_set
from .errors import (
    GroupTheoryError,
    InternalInvariant,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NonAssociative,
    UnsupportedSpec,
)
from .report import Check, Clock, tally_blocks

TABLE_DTYPE = np.int32

# Permutation groups beyond this degree are out of scope (the carriers get
# big and nothing downstream needs them).
MAX_SYMMETRIC_DEGREE = 6

# Groups beyond this order are refused before any table is built or read:
# the table alone takes order^2 entries (4 MiB here).  Light's test costs
# order^2 steps per generator, but a table that fails it falls back to the
# row scan, which takes order^3.
MAX_GROUP_ORDER = 1024

# Entries one block of a table check or build holds at once; blocks, its
# only reader, cuts every block loop of the library by it.
CHECK_CELLS = 1 << 16

# Products nest at most this deep, one level of parentheses each; the spec
# walks recurse once per level.
MAX_PRODUCT_DEPTH = 32


class Group:
    """A finite group on an enumerated carrier.  Immutable once built."""

    def __init__(self, carrier: Carrier, unit: int, inv: np.ndarray, mul: np.ndarray):
        self.carrier = carrier
        self.unit = int(unit)
        self.inv = inv
        self.mul = mul
        inv.setflags(write=False)
        mul.setflags(write=False)
        self._rows: list[memoryview] | None = None
        self._columns: np.ndarray | None = None
        # indicator bits of the sets is_subgroup or translation_batch proved subgroups
        self._subgroup_bits: set[int] = set()

    @property
    def order(self) -> int:
        return self.carrier.size

    def elements(self) -> range:
        return range(self.carrier.size)

    def full_set(self) -> ElemSet:
        return full_set(self.carrier)

    def rows(self) -> list[memoryview]:
        """Read-only memoryviews of the table's rows, not a copy; cached.  A
        view indexes to a Python int without numpy's scalar overhead, so hot
        Python loops read rows()[x][y], and the group holds its table once."""
        if self._rows is None:
            self._rows = [memoryview(r) for r in self.mul]
        return self._rows

    def columns(self) -> np.ndarray:
        """The transposed table, C-ordered and read-only: columns()[y, x] is
        x * y, so the left cosets of H are gathered as rows.  Cached."""
        if self._columns is None:
            self._columns = np.ascontiguousarray(self.mul.T)
            self._columns.setflags(write=False)
        return self._columns

    def export_table(self) -> np.ndarray:
        """A writable copy of the Cayley table, for from_cayley_table."""
        return self.mul.copy()

    def __repr__(self) -> str:
        return f"Group(order={self.order}, unit={self.unit})"


def reach(gen_rows: list[Sequence[int]], bits: int, frontier: list[int]) -> int:
    """Breadth-first closure under left multiplication: from the set
    ``bits`` (indicator bits), whose members still to multiply are
    ``frontier``, add gen * y for every generator row and point y reached
    until nothing new appears.  Returns the result's indicator bits."""
    while frontier:
        nxt = []
        for y in frontier:
            for row in gen_rows:
                z = row[y]
                if not (bits >> z) & 1:
                    bits |= 1 << z
                    nxt.append(z)
        frontier = nxt
    return bits


def greedy_generators(t: np.ndarray, unit: int, target: int) -> Iterator[int]:
    """Generators of the subgroup with indicator bits ``target``, picked
    greedily: each is the smallest member not yet reached, after which the
    reached set grows by one incremental reach over the rows of ``t``.
    Each is yielded as soon as it is picked, so a caller that checks it
    and stops stops the picking too.  At most log2(|target|) + 1 come."""
    gen_rows: list[list[int]] = []
    reached = 1 << unit
    while reached != target:
        left = target & ~reached
        a = (left & -left).bit_length() - 1
        yield a
        gen_rows.append(t[a].tolist())
        reached = reach(gen_rows, reached, [y for y in range(len(t)) if reached >> y & 1])


def conjugates(g: Group, xs, ys) -> np.ndarray:
    """The grid of conjugates x * y * x^-1, at [i, j] for x = xs[i] and
    y = ys[j].  Passing inverses as xs gives x^-1 * y * x."""
    xs = np.asarray(xs)
    return g.mul[g.mul[xs[:, None], ys], g.inv[xs][:, None]]


def blocks(stop: int, line: int | np.ndarray = 1, start: int = 0) -> list[slice]:
    """Slices of the lines start..stop-1, of ``line`` entries each, in blocks
    of as many whole lines as CHECK_CELLS entries hold, and one at least.
    Given an array, line i has line[i] entries, and a block holds each of
    its lines as wide as its widest, as a grid padded to it would."""
    if isinstance(line, np.ndarray):
        if start >= stop or (stop - start) * line[start:stop].max() <= CHECK_CELLS:
            return [slice(start, stop)] if start < stop else []
        cuts = [start]
        while cuts[-1] < stop:
            i = cuts[-1]
            held = np.maximum.accumulate(line[i:min(stop, i + CHECK_CELLS)])
            held *= np.arange(1, len(held) + 1)
            cuts.append(i + max(1, int(np.searchsorted(held, CHECK_CELLS, "right"))))
        return [slice(i, j) for i, j in zip(cuts, cuts[1:])]
    step = CHECK_CELLS // line or 1
    if start + step >= stop:  # one block or none, at a third of the comprehension's cost
        return [slice(start, stop)] if start < stop else []
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def law_break(tx: np.ndarray, table: np.ndarray, ax: np.ndarray,
              skip: int = -1) -> tuple[int, int] | None:
    """The first (i, z) in row-major order where x.(y.z) != (x*y).z, that is
    tx[table[i, z]] != table[ax[i], z], skipping row ``skip``, else None.
    Whole rows are read while they fit in a block; a wider row is read
    alone, a block of columns at a time, against views of the rows of x*y."""
    spans = blocks(table.shape[1])
    for lo, hi in ((0, skip), (skip + 1, len(table))):
        if len(spans) == 1:
            for b in blocks(hi, table.shape[1], lo):
                bad = tx.take(table[b]) != table[ax[b]]
                if bad.any():
                    i, z = np.argwhere(bad)[0]
                    return b.start + int(i), int(z)
        else:
            for i in range(lo, hi):
                for c in spans:
                    bad = tx.take(table[i, c]) != table[ax[i], c]
                    if bad.any():
                        return i, c.start + int(bad.argmax())
    return None


def _first_nonassociative(t: np.ndarray) -> tuple[int, int, int] | None:
    """The lexicographically first triple breaking associativity, or None,
    as the law of t acting on itself: the row of x1 * x2 is t[x1, x2]."""
    for x1 in range(len(t)):
        if (hit := law_break(t[x1], t, t[x1])) is not None:
            return x1, *hit
    return None


def from_cayley_table(n: int, table) -> Group:
    """Validate an n-by-n multiplication table and return the group.

    Raises MalformedTable for shape or range problems, NoIdentity if no
    element is a two-sided identity, NoInverse(x) if some x has no left
    inverse, and NonAssociative(x1, x2, x3) with the first violating triple
    in lexicographic order.  Raises InternalInvariant if Light's test fails
    but the row scan finds no violating triple.
    """
    if n < 1:
        raise MalformedTable(f"carrier size must be at least 1, got {n}")
    t = np.asarray(table)
    if t.ndim != 2 or t.shape != (n, n):
        raise MalformedTable(f"expected shape ({n}, {n}), got {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise MalformedTable(f"entries must be integers, got dtype {t.dtype}")
    if t.size and (t.min() < 0 or t.max() >= n):
        raise MalformedTable(f"entries must lie in [0, {n})")
    found = _axioms(t.astype(TABLE_DTYPE, order="C"))  # rows() views whole rows
    if isinstance(found, GroupTheoryError):
        # a caught rejection keeps this frame's locals alive with its
        # traceback, so the table is dropped before raising
        del t, table
        raise found
    unit, inv, t = found
    g = Group(Carrier(n), unit, inv, t)
    g._subgroup_bits.add(g.full_set().bits)  # is_subgroup's unit and range, both seen
    return g


def _axioms(t: np.ndarray) -> tuple[int, np.ndarray, np.ndarray] | GroupTheoryError:
    """(unit, inverses, t) for a table satisfying the group axioms, else
    the error naming the first one that fails."""
    n = len(t)
    spans = blocks(n, n)
    # the unit is the first e whose row and column both read 0, 1, ..., n-1;
    # each such e has e * 0 == 0, so only those e are read
    idx = np.arange(n, dtype=TABLE_DTYPE)
    unit = next((int(e) for e in np.flatnonzero(t[:, 0] == 0)
                 if (t[e] == idx).all() and (t[:, e] == idx).all()), None)
    if unit is None:
        return NoIdentity("no two-sided identity in the table")

    # the left inverse of x is the first row holding the unit in column x,
    # read in blocks of whole columns; argmax gives row 0 to a column
    # without one, which the check then finds
    inv = np.concatenate([(t[:, b] == unit).argmax(axis=0) for b in spans], dtype=TABLE_DTYPE)
    missing = np.flatnonzero(t[inv, idx] != unit)
    if missing.size:
        return NoInverse(int(missing[0]))

    # Light's test over greedily picked generators; each is checked as soon
    # as it is picked, so a bad table stops at its first failing generator.
    # Row x of a block holds (x*a)*y, then x*(a*y), for every y.
    for a in greedy_generators(t, unit, (1 << n) - 1):
        if not all((t[t[b, a]] == t[b, t[a]]).all() for b in spans):
            triple = _first_nonassociative(t)
            if triple is None:
                return InternalInvariant(
                    f"Light's test fails at generator {a}, but the row scan finds no bad triple")
            return NonAssociative(*triple)
    return unit, inv, t


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class GroupSpec:
    """Structural description of a catalog group."""

    kind: str
    n: int = 0
    parts: tuple["GroupSpec", ...] = ()

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls("cyclic", n=n)

    @classmethod
    def dihedral(cls, n: int) -> "GroupSpec":
        return cls("dihedral", n=n)

    @classmethod
    def symmetric(cls, n: int) -> "GroupSpec":
        return cls("symmetric", n=n)

    @classmethod
    def q8(cls) -> "GroupSpec":
        return cls("q8")

    @classmethod
    def product(cls, a: "GroupSpec", b: "GroupSpec") -> "GroupSpec":
        return cls("product", parts=(a, b))

    def describe(self) -> str:
        if self.kind == "product":
            return f"product:({self.parts[0].describe()},{self.parts[1].describe()})"
        if self.kind == "q8":
            return "q8"
        return f"{self.kind}:{self.n}"


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=TABLE_DTYPE)
    return (idx[:, None] + idx[None, :]) % n


def _dihedral_table(n: int) -> np.ndarray:
    # Order 2n.  Index i < n is the rotation r^i, index n+i is s*r^i, with
    # the relations r^n = 1, s^2 = 1, r*s = s*r^(-1); so s^a*r^i times
    # s^b*r^j is s^(a xor b)*r^(j + (-1)^b * i).
    ref, i = np.divmod(np.arange(2 * n, dtype=TABLE_DTYPE), n)
    return n * (ref[:, None] ^ ref) + (i + (1 - 2 * ref) * i[:, None]) % n


def _symmetric_table(n: int) -> np.ndarray:
    # Permutations of 0..n-1 in lexicographic order; mul(p, q) applies q
    # first and then p, i.e. (p*q)(i) = p[q[i]].  Lexicographic order is
    # the order of the base-n codes, so a product's index is its code's
    # rank, read from an n^n lookup.  A block of rows takes its codes,
    # uint16 as n^n <= 46,656, one digit p[q[k]] per pass.
    perms = np.array(symmetric_elements(n), dtype=np.uint16)
    rank = np.zeros(n ** n, dtype=TABLE_DTYPE)
    rank[perms @ n ** np.arange(n - 1, -1, -1)] = np.arange(len(perms))
    t = np.empty((len(perms), len(perms)), dtype=TABLE_DTYPE)
    for b in blocks(len(t), len(t)):
        codes = perms[b, perms[:, 0]]
        for k in range(1, n):
            codes = codes * n + perms[b, perms[:, k]]
        rank.take(codes, out=t[b])
    return t


def symmetric_elements(n: int) -> list[tuple[int, ...]]:
    """The permutation underlying each carrier point of symmetric(n)."""
    return list(permutations(range(n)))


def _quaternion_table() -> np.ndarray:
    # Index 2*u + m is (+/-)(1, i, j, k)[u], m = 1 for the negative.  With
    # i, j, k as 1, 2, 3, units multiply as u xor v, and the sign turns for
    # i*i, j*j, k*k and for the anticyclic j*i, k*j, i*k (v - u = 2 mod 3).
    u, m = np.divmod(np.arange(8, dtype=TABLE_DTYPE), 2)
    turn = (u[:, None] > 0) & (u > 0) & ((u - u[:, None]) % 3 != 1)
    return 2 * (u[:, None] ^ u) + (m[:, None] ^ m ^ turn)


def _product_table(g1: Group, g2: Group) -> np.ndarray:
    # Pair (i1, i2) is enumerated as i1 * |G2| + i2.
    n2 = g2.order
    m1 = g1.mul.astype(np.int64)
    m2 = g2.mul.astype(np.int64)
    t = m1[:, None, :, None] * n2 + m2[None, :, None, :]
    return t.reshape(g1.order * n2, g1.order * n2).astype(TABLE_DTYPE)


def _fold_spec(spec: GroupSpec, step) -> dict[int, object]:
    """Fold a spec bottom-up once per distinct part, parts told apart by
    identity: step(part, done) runs after the part's own parts, in
    depth-first order, with ``done`` mapping id(part) to step's result so
    far, and the map is returned.  Raises UnsupportedSpec for products
    nested deeper than MAX_PRODUCT_DEPTH, found by a level walk before any
    recursion, so a part shared on both sides at every level costs one
    step, not one per path."""
    level = [spec]
    for _ in range(MAX_PRODUCT_DEPTH + 1):
        level = list({id(p): p for s in level for p in s.parts}.values())
        if not level:
            break
    else:
        raise UnsupportedSpec(f"products nest at most {MAX_PRODUCT_DEPTH} levels deep")
    done: dict[int, object] = {}
    _fold_part(spec, step, done)
    return done


def _fold_part(spec: GroupSpec, step, done: dict[int, object]) -> None:
    # a module-level function: a recursive closure would be a reference
    # cycle that keeps every built group alive until the cyclic collector runs
    if id(spec) not in done:
        for p in spec.parts:
            _fold_part(p, step, done)
        done[id(spec)] = step(spec, done)


def _order_step(spec: GroupSpec) -> int:
    if spec.kind == "cyclic":
        if spec.n < 1:
            raise UnsupportedSpec(f"cyclic order must be positive, got {spec.n}")
        return spec.n
    if spec.kind == "dihedral":
        if spec.n < 1:
            raise UnsupportedSpec(f"dihedral parameter must be positive, got {spec.n}")
        return 2 * spec.n
    if spec.kind == "symmetric":
        if spec.n < 1:
            raise UnsupportedSpec(f"symmetric degree must be positive, got {spec.n}")
        if spec.n > MAX_SYMMETRIC_DEGREE:
            raise UnsupportedSpec(
                f"symmetric degree capped at {MAX_SYMMETRIC_DEGREE}, got {spec.n}"
            )
        return math.factorial(spec.n)
    if spec.kind == "q8":
        return 8
    raise UnsupportedSpec(f"unknown group kind {spec.kind!r}")


def _size_step(spec: GroupSpec, sizes: dict[int, tuple[int | None, int]]) -> tuple[int | None, int]:
    # (n, k) with 2^k <= the part's order: n is that order while it has at
    # most 10,000 bits, and None past that, where only k is carried on.  A
    # part shared on both sides at every level squares the order at each
    # level, 2^32 bits at 32 levels; and str() refuses an int of more than
    # 4,300 digits, which 1,434 factors of cyclic:1000 reach.
    if spec.kind != "product":
        n = _order_step(spec)
    else:
        (na, ka), (nb, kb) = (sizes[id(p)] for p in spec.parts)
        if na is None or nb is None:
            return None, ka + kb
        n = na * nb
    return (n if n.bit_length() <= 10_000 else None), n.bit_length() - 1


def build(spec: GroupSpec) -> Group:
    """Construct a catalog group, each distinct part once.  Every table
    goes back through from_cayley_table, so built groups are validated by
    construction.  The order is bounded by MAX_GROUP_ORDER before anything
    is allocated."""
    sizes = _fold_spec(spec, _size_step)
    n, k = sizes[id(spec)]
    if n is None or n > MAX_GROUP_ORDER:
        shown = n if n is not None else f"2^{k} or more"
        raise UnsupportedSpec(f"group order {shown} exceeds the maximum of {MAX_GROUP_ORDER}")

    def step(s: GroupSpec, groups: dict[int, Group]) -> Group:
        if s.kind == "cyclic":
            table = _cyclic_table(s.n)
        elif s.kind == "dihedral":
            table = _dihedral_table(s.n)
        elif s.kind == "symmetric":
            table = _symmetric_table(s.n)
        elif s.kind == "q8":
            table = _quaternion_table()
        else:
            a, b = s.parts
            table = _product_table(groups[id(a)], groups[id(b)])
        return from_cayley_table(sizes[id(s)][0], table)

    return _fold_spec(spec, step)[id(spec)]


# ---------------------------------------------------------------------------
# derived one-sided laws


def check_identities(g: Group) -> list[Check]:
    """Re-verify the right-sided laws that follow from the three axioms.

    These are consequences, so on any validated group every check passes;
    running them is the point, since the construction never assumed them.
    Each n-by-n law is computed a block at a time, in the whole rows of its
    grid that blocks gives, or whole columns for right_cancellation,
    which sorts the table's columns; a witness is still the first failure
    in row-major order over the whole grid.  Each law's ms is the time
    taken to compute and tally that law alone.
    """
    n = g.order
    t = g.mul
    inv = g.inv
    idx = np.arange(n, dtype=TABLE_DTYPE)
    spans = blocks(n, n)
    checks: list[Check] = []
    clock = Clock()

    def law(name: str, boxes) -> None:
        checks.extend(clock.stamp(tally_blocks(f"identity:{name}", boxes, lambda *i: list(i))))

    law("right_unit", [((0,), t[:, g.unit] == idx)])
    law("unit_self_inverse", [((0,), inv[[g.unit]] == g.unit)])
    law("right_inverse", [((0,), t[idx, inv] == g.unit)])
    law("inverse_involution", [((0,), inv[inv] == idx)])
    # (x2*x1)^-1 == x1^-1 * x2^-1, laid out over (x2, x1)
    law("inverse_of_product", (((blk.start, 0), inv[t[blk]] == t[inv[:, None], inv[blk]].T)
                               for blk in spans))
    law("left_cancellation", (((blk.start, 0), np.sort(t[blk], axis=1) == idx) for blk in spans))
    law("right_cancellation", (((0, blk.start), np.sort(t[:, blk], axis=0) == idx[:, None])
                               for blk in spans))
    # (b * a^-1) * a == b and (b * a) * a^-1 == b, laid out over (a, b)
    law("solve_right_inverse", (((blk.start, 0), t[t[:, inv[blk]].T, idx[blk, None]] == idx)
                                for blk in spans))
    law("solve_right_multiply", (((blk.start, 0), t[t[:, blk].T, inv[blk, None]] == idx)
                                 for blk in spans))
    return checks
