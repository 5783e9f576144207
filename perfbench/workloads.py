"""The benchmark's workloads: seeded inputs, the ops run on them, and the
checks that decide whether each op's output is correct.

Every workload is built from its seed alone.  Seed 0 keeps the catalog
labels; any other seed relabels each group's carrier by a seeded
permutation of its Cayley table, and the relabeled table is validated
again by ``from_cayley_table`` (catalog, large) or written to a table file
that ``resolve_group`` reads back (ingest), as a user's file would be.

An op is one call into the library.  Its output is reduced to a canonical
string; at seed 0 that string must equal the committed reference byte for
byte, at any other seed its relabeling-invariant projection must match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("catalog", "large", "ingest")

LARGE_REFS = (
    "product:(symmetric:5,cyclic:2)",
    "product:(dihedral:6,dihedral:6)",
    "dihedral:60",
    "cyclic:120",
)

# Groups whose relabeled tables the ingest workload writes to files; the
# first is also resolved from catalog grammar, which generates its table.
INGEST_REFS = (
    "symmetric:6",
    "product:(symmetric:5,cyclic:2)",
    "product:(dihedral:6,dihedral:6)",
)


@dataclass
class Op:
    """One timed call.  ``run`` takes no arguments.  ``digest`` reduces its
    outcome ``(result, exception)`` to the canonical string kept as the
    reference; ``check`` returns None when the outcome is correct or a
    one-line reason when it is not."""

    label: str
    run: Callable[[], Any]
    digest: Callable[[Any, BaseException | None], str]
    check: Callable[[Any, BaseException | None], str | None]


# ---------------------------------------------------------------------------
# relabeling and corruption


def permutation(rng: np.random.Generator, n: int, seed: int) -> np.ndarray:
    """The carrier relabeling for one group: point a becomes perm[a]."""
    if seed == 0:
        return np.arange(n, dtype=np.int64)
    return rng.permutation(n).astype(np.int64)


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The Cayley table of the same group after renaming point a to
    perm[a]: new[perm[a], perm[b]] == perm[old[a, b]]."""
    back = np.argsort(perm)
    return perm[table[np.ix_(back, back)]]


def unrelabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Inverse of relabel."""
    back = np.argsort(perm)
    return back[table[np.ix_(perm, perm)]]


def corrupt(rng: np.random.Generator, table: np.ndarray, unit: int) -> tuple[int, int, int]:
    """A seeded single-entry change outside the unit's row and column:
    returns (row, col, new value).  Any such change breaks the Latin
    square, so the table no longer defines a group."""
    n = len(table)
    others = np.delete(np.arange(n), unit)
    i, j = (int(x) for x in rng.choice(others, size=2))
    v = int(rng.integers(n - 1))
    if v >= table[i, j]:
        v += 1
    return i, j, v


def write_table(path: Path, table: np.ndarray) -> None:
    lines = [str(len(table))]
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# canonical outputs and their relabeling-invariant projections


def verify_projection(canonical: str) -> str:
    """What a verify report keeps under relabeling: check names and
    statuses, and each certificate's kind, p, n and size."""
    d = json.loads(canonical)
    return json.dumps({
        "order": d["order"],
        "checks": [[c["name"], c["status"]] for c in d["checks"]],
        "certificates": [[c["kind"], c["p"], c["n"], len(c["elements"])]
                         for c in d["certificates"]],
    }, sort_keys=True)


def group_digest(g, perm: np.ndarray) -> str:
    """Order, unit and table hashes of a group after undoing the
    relabeling, so the same string is expected at every seed."""
    back = np.argsort(perm)
    mul = unrelabel(np.asarray(g.mul), perm).astype(np.int32)
    inv = back[np.asarray(g.inv)[perm]].astype(np.int32)
    return json.dumps({
        "order": g.order,
        "unit": int(back[g.unit]),
        "mul_sha256": hashlib.sha256(mul.tobytes()).hexdigest(),
        "inv_sha256": hashlib.sha256(inv.tobytes()).hexdigest(),
    }, sort_keys=True)


def rejection_digest(out, err: BaseException) -> str:
    """The error class and its witness (column or triple)."""
    witness = getattr(err, "triple", None) or [getattr(err, "x", None)]
    return json.dumps({"error": type(err).__name__, "witness": list(witness)})


def confirm_rejection(err: BaseException, table: np.ndarray) -> str | None:
    """Check a rejection's witness against the table it rejected: the
    reported column really has no left inverse, or the reported triple
    really breaks associativity, and nothing earlier in the validator's
    scan order fails.  Returns None when confirmed."""
    from fingroups.errors import NoInverse, NonAssociative

    n = len(table)
    idx = np.arange(n)
    units = [e for e in range(n)
             if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)]
    if not units:
        return "table has no identity, so the witness cannot be confirmed"
    unit = units[0]
    has_inverse = (table == unit).any(axis=0)
    if isinstance(err, NoInverse):
        if has_inverse[err.x]:
            return f"column {err.x} does have a left inverse"
        if not has_inverse[:err.x].all():
            return f"an earlier column than {err.x} lacks a left inverse"
        return None
    if isinstance(err, NonAssociative):
        if not has_inverse.all():
            return "a column lacks a left inverse, which is checked first"
        x1, x2, x3 = err.triple
        for r in range(x1 + 1):
            bad = np.argwhere(table[table[r]] != table[r][table])
            if r < x1 and len(bad):
                return f"row {r} already breaks associativity before {err.triple}"
            if r == x1 and (not len(bad) or tuple(bad[0]) != (x2, x3)):
                return f"{err.triple} is not the first associativity failure"
        return None
    return f"unexpected {type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# workloads


def _reference_check(reference: dict, label: str, seed: int, canonical: str,
                     projection: Callable[[str], str] | None) -> str | None:
    want = reference.get(label)
    if want is None:
        return "no reference output"
    if seed == 0:
        return None if canonical == want else "output differs from the reference"
    if projection is not None and projection(canonical) != projection(want):
        return "relabeling-invariant projection differs from the reference"
    return None


def _verify_ops(refs, seed: int, reference: dict) -> list[Op]:
    from fingroups import suite
    from fingroups.cli import parse_group_ref
    from fingroups.group import build, from_cayley_table

    def digest(rep, err):
        return rep.to_json(with_timing=False)

    def check(label):
        def check(rep, err):
            if err is not None:
                return f"raised {type(err).__name__}: {err}"
            if not rep.ok:
                return "report has failing checks"
            return _reference_check(reference, label, seed, digest(rep, err),
                                    verify_projection)
        return check

    rng = np.random.default_rng(seed)
    ops = []
    for label in refs:
        g0 = build(parse_group_ref(label))
        perm = permutation(rng, g0.order, seed)
        g = from_cayley_table(g0.order, relabel(np.asarray(g0.mul), perm))
        # looked up at call time, so that the traced run sees its wrapper
        ops.append(Op(label, lambda g=g, label=label: suite.verify_group(g, label),
                      digest, check(label)))
    return ops


def catalog_refs() -> list[str]:
    from fingroups.suite import catalog_specs

    return [spec.describe() for spec in catalog_specs()]


def accept_op(label: str, ref: str, perm: np.ndarray | None, seed: int,
              reference: dict) -> Op:
    """Resolve a reference that names a valid group; perm is the
    relabeling its table file was written with (None: catalog labels)."""
    from fingroups import cli

    def digest(out, err):
        g = out[1]
        return group_digest(g, np.arange(g.order) if perm is None else perm)

    def check(out, err):
        if err is not None:
            return f"raised {type(err).__name__}: {err}"
        # the digest undoes the relabeling, so it is its own projection
        return _reference_check(reference, label, seed, digest(out, err), lambda s: s)

    return Op(label, lambda: cli.resolve_group(ref), digest, check)


def reject_op(label: str, path: str, table: np.ndarray, seed: int,
              reference: dict) -> Op:
    """Resolve a corrupted table file, which must be rejected with a
    witness that holds on the table."""
    from fingroups import cli
    from fingroups.errors import GroupTheoryError

    def check(out, err):
        if err is None:
            return "corrupted table was accepted"
        if not isinstance(err, GroupTheoryError):
            return f"raised {type(err).__name__}, not a GroupTheoryError"
        # a seed's corruption differs from seed 0's, so only the
        # confirmed witness is checked at other seeds
        return confirm_rejection(err, table) or _reference_check(
            reference, label, seed, rejection_digest(None, err), None)

    return Op(label, lambda: cli.resolve_group(path), rejection_digest, check)


def _ingest_ops(seed: int, reference: dict, workdir: Path) -> list[Op]:
    from fingroups.cli import parse_group_ref
    from fingroups.group import build

    rng = np.random.default_rng(seed)
    ops = [accept_op(f"resolve:{INGEST_REFS[0]}", INGEST_REFS[0], None, seed, reference)]
    rejects = []
    for k, ref in enumerate(INGEST_REFS):
        g0 = build(parse_group_ref(ref))
        perm = permutation(rng, g0.order, seed)
        table = relabel(np.asarray(g0.mul), perm)
        path = workdir / f"table{k}.txt"
        write_table(path, table)
        ops.append(accept_op(f"file:{ref}", str(path), perm, seed, reference))

        i, j, v = corrupt(rng, table, int(perm[g0.unit]))
        bad = table.copy()
        bad[i, j] = v
        bad_path = workdir / f"corrupt{k}.txt"
        write_table(bad_path, bad)
        rejects.append(reject_op(f"corrupt:{ref}", str(bad_path), bad, seed, reference))
    return ops + rejects


def build_ops(workload: str, seed: int, reference: dict, workdir: Path) -> list[Op]:
    """Set the workload up: build or relabel its groups and write its
    files.  This is the work ``setup_s`` measures."""
    if workload == "ingest":
        return _ingest_ops(seed, reference, workdir)
    refs = catalog_refs() if workload == "catalog" else LARGE_REFS
    return _verify_ops(refs, seed, reference)
