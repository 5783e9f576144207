"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``fingroups`` modules, and the
``ElemSet.as_array`` and ``ElemSet.mask`` methods, with a recorder.  A
wrapped function is rebound in every ``fingroups.*`` namespace that holds
the same object, so ``from .x import f`` copies and calls within a module
are traced too.  Each call records a span (name, start, end, parent, op
id) in flat arrays; nothing is written until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Each op is added as a pseudo-span at the root, so the self
time of an op's pseudo-span is the op time spent outside every traced
function (the untraced remainder), and all self times of a pass add up to
the pass's traced wall time.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _arg(args, kw, i, name):
    return args[i] if len(args) > i else kw[name]


def _count(key, value):
    """Add value(args, kw) to a counter before the call."""
    def hook(rec, args, kw):
        rec.counts[key] += value(args, kw)
    return hook


def _count_result(key, value):
    """Add value(result) to a counter after the call returns."""
    def hook(rec, result):
        rec.counts[key] += value(result)
    return hook


def _repeat(key, ident):
    """Count calls whose identifying arguments were already seen earlier
    in the same op.  Groups are kept alive until the op ends so that their
    ids cannot be reused by a later group in the same op."""
    def hook(rec, args, kw):
        g = args[0]
        rec.keep.append(g)
        k = (id(g), *ident(args, kw))
        seen = rec.seen[key]
        if k in seen:
            rec.counts[key + ".repeats"] += 1
        else:
            seen.add(k)
    return hook


def _file_bytes(args, kw):
    try:
        return os.path.getsize(_arg(args, kw, 0, "path"))
    except OSError:
        return 0


@dataclass(frozen=True)
class Traced:
    """One traced callable: ``module.attr`` (``attr`` may be
    ``Class.method``), with optional hooks run before the call on its
    arguments and after it on its result."""

    module: str
    attr: str
    before: Callable | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TRACED = (
    Traced("sylow", "product_one_tuples",
           after=_count_result("sylow.product_one_tuples.tuples", lambda r: len(r.tuples))),
    Traced("sylow", "rotation_action"),
    Traced("sylow", "cauchy_element",
           before=_repeat("sylow.cauchy_element",
                          lambda a, k: (_arg(a, k, 1, "h").bits, _arg(a, k, 2, "p")))),
    Traced("sylow", "sylow_subgroup"),
    Traced("sylow", "extend_p_subgroup"),
    Traced("sylow", "sylow_family"),
    Traced("sylow", "sylow_count_divides_check"),
    Traced("sylow", "sylow_count_mod_p_check"),
    Traced("subgroup", "is_subgroup",
           before=_repeat("subgroup.is_subgroup", lambda a, k: (_arg(a, k, 1, "h").bits,))),
    Traced("subgroup", "left_index"),
    Traced("subgroup", "left_coset_roots"),
    Traced("subgroup", "closure"),
    Traced("subgroup", "subgroup_sample",
           after=_count_result("subgroup.subgroup_sample.distinct", len)),
    Traced("subgroup", "lagrange_check"),
    Traced("carrier", "ElemSet.as_array"),
    Traced("carrier", "ElemSet.mask"),
    Traced("action", "make_action",
           before=_count("action.make_action.cells",
                         lambda a, k: _arg(a, k, 0, "g").order * _arg(a, k, 2, "points").size)),
    Traced("action", "left_translation_action"),
    Traced("action", "orbit_stabilizer_check"),
    Traced("action", "orbit"),
    Traced("action", "stabilizer"),
    Traced("action", "fixed_points"),
    Traced("action", "conjugation_action"),
    Traced("action", "conjugation_action_on_subsets"),
    Traced("conjnormal", "normalizer"),
    Traced("conjnormal", "quotient_group"),
    Traced("conjnormal", "conjugate_set"),
    Traced("conjnormal", "is_normal"),
    Traced("cyclic", "cyclic"),
    Traced("cyclic", "power"),
    Traced("cyclic", "phi_theorem_checks"),
    Traced("group", "from_cayley_table",
           before=_count("group.from_cayley_table.cells",
                         lambda a, k: int(_arg(a, k, 0, "n")) ** 2)),
    Traced("group", "build"),
    Traced("group", "check_identities"),
    Traced("cli", "parse_cayley_file", before=_count("cli.parse_cayley_file.bytes", _file_bytes)),
    Traced("suite", "verify_group"),
)

# Metrics beyond calls and self_s: (name, unit, better).
DERIVED = (
    ("sylow.product_one_tuples.tuples", "count", "lower"),
    ("sylow.cauchy_element.repeat_share", "ratio", "lower"),
    ("sylow.cauchy_element.tuple_route_share", "ratio", "higher"),
    ("subgroup.is_subgroup.repeat_share", "ratio", "lower"),
    ("subgroup.subgroup_sample.distinct_per_closure", "ratio", "higher"),
    ("action.make_action.cells", "count", "lower"),
    ("group.from_cayley_table.cells", "count", "lower"),
    ("cli.parse_cayley_file.bytes", "bytes", "lower"),
    ("bench.traced.wall_s", "s", "lower"),
    ("bench.untraced.wall_s", "s", "lower"),
    ("bench.overhead.wall_s", "s", "lower"),
    ("bench.remainder.self_s", "s", "lower"),
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit,
    better), in report order."""
    specs = []
    for t in TRACED:
        specs.append((f"{t.name}.calls", "count", "lower"))
        specs.append((f"{t.name}.self_s", "s", "lower"))
    return specs + list(DERIVED)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span.  ``parent[i]`` is the index of span i's parent,
    or -1 at the root."""
    n = len(start)
    covered = [0.0] * n
    reach = list(start)
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Span recorder.  ``install`` rebinds the traced callables; ``begin_op``
    and ``end_op`` bracket each timed op."""

    def __init__(self):
        self.names = [t.name for t in TRACED]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.ops: list[tuple[int, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.seen: defaultdict[str, set] = defaultdict(set)
        self.keep: list = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------

    def _wrap(self, nid: int, fn, before, after):
        rec = self
        name_of, start, end, parent, op, stack = (
            self.name_of, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter

        def traced(*args, **kw):
            if before is not None:
                before(rec, args, kw)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(rec.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kw)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(rec, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import fingroups.cli  # noqa: F401  (loads every module that gets rebound)

        mods = [m for name, m in list(sys.modules.items())
                if name == "fingroups" or name.startswith("fingroups.")]
        for nid, t in enumerate(TRACED):
            owner = sys.modules[f"fingroups.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(nid, orig, t.before, t.after))
                continue
            orig = getattr(owner, t.attr)
            wrapper = self._wrap(nid, orig, t.before, t.after)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.seen.clear()
        self.keep.clear()

    def end_op(self, t0: float, t1: float) -> None:
        self.ops.append((self.op_id, t0, t1))
        self.keep.clear()

    # ---- analysis -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span and op recorded so far, summed
        over them (ratios are taken over all of them)."""
        m = len(self.start)
        ops = self.ops
        pseudo = {op_id: m + k for k, (op_id, _, _) in enumerate(ops)}
        start = list(self.start) + [t0 for _, t0, _ in ops]
        end = list(self.end) + [t1 for _, _, t1 in ops]
        parent = [p if p >= 0 else pseudo[o] for p, o in zip(self.parent, self.op)]
        parent += [-1] * len(ops)
        selfs = self_times(start, end, parent)
        names = list(self.name_of)

        ids = np.asarray(names, dtype=np.int64)
        calls = np.bincount(ids, minlength=len(TRACED))
        self_s = np.bincount(ids, weights=selfs[:m], minlength=len(TRACED))
        out: dict[str, float] = {}
        for nid, t in enumerate(TRACED):
            out[f"{t.name}.calls"] = int(calls[nid])
            out[f"{t.name}.self_s"] = float(self_s[nid])

        nid_of = {t.name: k for k, t in enumerate(TRACED)}

        def children_of(child: str, parent_name: str) -> tuple[int, int]:
            """(child spans under a parent_name span, distinct such parents)"""
            c, p = nid_of[child], nid_of[parent_name]
            hits = [parent[i] for i in range(m)
                    if names[i] == c and 0 <= parent[i] < m and names[parent[i]] == p]
            return len(hits), len(set(hits))

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        counts = self.counts
        cauchy_calls = out["sylow.cauchy_element.calls"]
        closures_in_sample, _ = children_of("subgroup.closure", "subgroup.subgroup_sample")
        _, tuple_route = children_of("sylow.product_one_tuples", "sylow.cauchy_element")
        out.update({
            "sylow.product_one_tuples.tuples": int(counts["sylow.product_one_tuples.tuples"]),
            "sylow.cauchy_element.repeat_share":
                share(counts["sylow.cauchy_element.repeats"], cauchy_calls),
            "sylow.cauchy_element.tuple_route_share": share(tuple_route, cauchy_calls),
            "subgroup.is_subgroup.repeat_share":
                share(counts["subgroup.is_subgroup.repeats"], out["subgroup.is_subgroup.calls"]),
            "subgroup.subgroup_sample.distinct_per_closure":
                share(counts["subgroup.subgroup_sample.distinct"], closures_in_sample),
            "action.make_action.cells": int(counts["action.make_action.cells"]),
            "group.from_cayley_table.cells": int(counts["group.from_cayley_table.cells"]),
            "cli.parse_cayley_file.bytes": int(counts["cli.parse_cayley_file.bytes"]),
        })
        wall = sum(t1 - t0 for _, t0, t1 in ops)
        remainder = sum(selfs[m:])
        out["bench.traced.wall_s"] = wall
        out["bench.remainder.self_s"] = remainder
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span and op interval to a compressed npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            ops=np.asarray(self.ops, dtype=np.float64).reshape(-1, 3),
        )
