"""Check verdicts and machine-readable reports.

Theorem-checking operations return Check records rather than bare booleans
so that both sides of each asserted relation stay visible.  The CLI bundles
checks and certificates into a Report with a stable JSON form.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np


@dataclass
class Check:
    """One verified relation: lhs and rhs are the two computed sides."""

    name: str
    ok: bool
    lhs: Any
    rhs: Any
    witness: Any = None
    ms: float = field(default=0.0, compare=False)  # a timing, not part of the verdict

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_dict(self, with_timing: bool = True) -> dict:
        d = {
            "name": self.name,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "witness": self.witness,
        }
        if with_timing:
            d["ms"] = round(self.ms, 3)
        return d


def tally(name: str, ok, witness: Callable[..., Any] | None = None) -> Check:
    """The Check over many instances, ``ok`` holding one verdict each: lhs
    counts the instances that pass and rhs all of them.  The witness is
    witness(*i) for the first failing index i in row-major order, or None
    when no callable is given."""
    ok = np.asarray(ok, dtype=bool)
    return tally_blocks(name, [((0,) * ok.ndim, ok)], witness)


def tally_blocks(name: str, blocks: Iterable[tuple[tuple[int, ...], np.ndarray]],
                 witness: Callable[..., Any] | None = None) -> Check:
    """tally over a grid read in boxes that tile it, given as (start, ok)
    with ``ok`` the verdicts of the box whose least index is ``start``.
    The first failing index in row-major order over the whole grid is the
    least of each box's own first, so boxes of whole rows or of whole
    columns name the witness a single box would."""
    good = total = 0
    first = None
    for start, ok in blocks:
        passed = int(np.count_nonzero(ok))
        good += passed
        total += ok.size
        if passed < ok.size and witness is not None:
            at = np.unravel_index(np.argmin(ok), ok.shape)
            at = tuple(s + int(v) for s, v in zip(start, at))
            first = at if first is None else min(first, at)
    return Check(name, good == total, good, total, None if first is None else witness(*first))


class Clock:
    """The one timer of the checks: each lap or stamp takes the ms since the
    previous one, or since the clock was made, so they add up to its span."""

    def __init__(self) -> None:
        self._last = time.perf_counter()

    def lap(self) -> float:
        self._last, last = time.perf_counter(), self._last
        return (self._last - last) * 1000.0

    def stamp(self, *checks: Check) -> list[Check]:
        """The checks, the first given the lap's ms that theirs do not hold."""
        checks[0].ms += self.lap() - sum(c.ms for c in checks)
        return list(checks)


@dataclass
class Report:
    """Everything one CLI command asserts about one group."""

    group: str
    order: int
    checks: list[Check] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self, with_timing: bool = True) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "checks": [c.to_dict(with_timing) for c in self.checks],
            "certificates": self.certificates,
        }

    def to_json(self, with_timing: bool = True) -> str:
        return json.dumps(self.to_dict(with_timing), sort_keys=True, separators=(",", ": "))

    def render_text(self) -> str:
        lines = [f"group: {self.group} (order {self.order})"]
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            line = f"  {mark}  {c.name}: {c.lhs} vs {c.rhs}"
            if c.witness is not None and not c.ok:
                line += f"  witness={c.witness}"
            lines.append(line)
        for cert in self.certificates:
            lines.append(
                f"  certificate {cert['kind']} p={cert['p']} n={cert['n']} "
                f"elements={cert['elements']}"
            )
            for step in cert["trace"]:
                lines.append(f"    * {step}")
        verdict = "all checks passed" if self.ok else "SOME CHECKS FAILED"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)
