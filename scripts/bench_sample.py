#!/usr/bin/env python3
"""Time verify_group on the groups with the largest subgroup samples and
record the times in BENCH_sample.json.

Each group is verified --repeat times and the best wall time is kept,
with the milliseconds its report gives the three checks over the sample
and the Cauchy and Sylow order checks for each prime (cauchy_order[p=...],
sylow_order[p=...]).  Its table layer is timed --repeat times too:
build_ms lists the milliseconds resolve_group takes to build the group
(build(spec) for catalog grammar), validate_ms those from_cayley_table
takes to validate its table again.  faults lists each timed verify's
minor page faults (the process's ru_minflt delta), beside runs_s; a
temporary the allocator has to map afresh on every run shows here.
Each group's table is also written to a file, one line per row, and
read back --repeat times by resolve_group(path), the reader and table
validation: read_ms lists those times and read_faults their minor page
faults.  The reads run in rounds, each reading every group's file in
the order named, as the ingest benchmark reads S6, S5xC2 and D6xD6, so
each read follows the others' and meets the allocator as they left it.
peak_mib lists, per invocation, the tracemalloc peak of one more verify
after the timed runs, in MiB; it cannot see what the timed runs left
cached on the group.  rss_mib lists, per invocation, the fresh-process
peak: the peak resident set, in MiB, of a child process that imports
fingroups from --src, resolves the group and verifies it once,
interpreter and numpy included.  The child reads it as VmHWM from
/proc/self/status (Linux): its ru_maxrss would start from this
process's own peak, which the fork and exec carry over.
A report's lagrange time includes building the subgroup sample, which
reports before the checks' ms added up to verify's wall time left out,
so lagrange times in earlier BENCH_*.json runs are not comparable with
new ones.
Before timing, every sample subgroup's counts are compared route against
route: translation_batch's index, orbit sizes, stabilizer orders and
indices and fixed points against the single-instance functions'
(left_index, left_translation_action, orbit_stabilizer_counts and
fixed_points).  A disagreement, or an error the batch raises, fails the
run.  batches records how many translation_batch calls the sample takes
(sample_batches' runs).  A source tree without translation_batch is timed
only.

The default groups are S5xC2, D6xD6, D60, C120 and Q8xC2^5; naming refs
replaces them.  Q8xC2^7, the largest sample within the order bound, runs
only when named:

    python scripts/bench_sample.py                          # ./src, label "change"
    python scripts/bench_sample.py --src OLD/src --label parent
    python scripts/bench_sample.py --repeat 1 "$Q8C2_7"
    python scripts/bench_sample.py --out BENCH_cauchy.json \
        'product:(cyclic:5,cyclic:5)' dihedral:10 cyclic:20 cyclic:7

with Q8C2_7 set to
product:(q8,product:(z2,product:(z2,product:(z2,product:(z2,product:(z2,product:(z2,z2)))))))

Each group's result is merged into --out under the label, adding its
runs to those already there, so one file holds the runs of several source
trees and invocations; alternate the trees, in one session on one host.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

DEFAULT_REFS = (
    "product:(symmetric:5,cyclic:2)",
    "product:(dihedral:6,dihedral:6)",
    "dihedral:60",
    "cyclic:120",
    "product:(q8,product:(z2,product:(z2,product:(z2,product:(z2,z2)))))",
)


FRESH_PEAK = """
import re, sys
sys.path.insert(0, sys.argv[1])
from fingroups.cli import resolve_group
from fingroups.suite import verify_group
label, g = resolve_group(sys.argv[2])
assert verify_group(g, label).ok
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


def fresh_peak_mib(src: str, ref: str) -> float:
    """The peak RSS of a fresh process that resolves ref and verifies it
    once, in MiB."""
    out = subprocess.run([sys.executable, "-c", FRESH_PEAK, src, ref],
                         capture_output=True, text=True, check=True)
    return round(int(out.stdout) / 1024, 2)


def routes_agree(g, sample) -> bool:
    """Whether translation_batch counts what the single-instance route
    counts, for every subgroup of the sample in its order."""
    from fingroups.action import (
        fixed_points,
        left_translation_action,
        orbit_stabilizer_counts,
        sample_batches,
        translation_batch,
    )
    from fingroups.subgroup import left_index

    import numpy as np

    full = g.full_set()
    batched = []
    for hs in sample_batches(g, sample):
        b = translation_batch(g, hs)
        per_point = (b.orbit, b.stab_order, b.stab_index)
        if hasattr(b, "points"):  # laid end to end, b.points of them per subgroup
            per_point = [np.split(v, np.cumsum(b.points)[:-1]) for v in per_point]
        # else rows, from a tree whose batches hold one order
        batched += zip(b.index.tolist(), *([p.tolist() for p in v] for v in per_point),
                       b.fixed.tolist())
    for h, got in zip(sample, batched):
        act = left_translation_action(g, h, h, full)
        orb, stab_order, stab_index, _ = orbit_stabilizer_counts(act)
        want = (left_index(g, h, full), orb.tolist(), stab_order.tolist(),
                stab_index.tolist(), fixed_points(act).card)
        if got != want:
            print(f"routes differ on {h.indices()}: {got} != {want}", file=sys.stderr)
            return False
    return len(batched) == len(sample)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("refs", nargs="*", help="group references (default: the five above)")
    ap.add_argument("--src", default="src", help="source tree to import fingroups from")
    ap.add_argument("--label", default="change", help="name of this run in the output")
    ap.add_argument("--repeat", type=int, default=3, help="runs per group; the best is kept")
    ap.add_argument("--out", default="BENCH_sample.json", help="JSON file to merge into")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from fingroups import action
    from fingroups.cli import resolve_group
    from fingroups.group import from_cayley_table
    from fingroups.subgroup import subgroup_sample
    from fingroups.suite import verify_group

    batched = hasattr(action, "translation_batch")
    refs = args.refs or DEFAULT_REFS
    read_ms = {ref: [] for ref in refs}
    read_faults = {ref: [] for ref in refs}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for k, ref in enumerate(refs):
            g = resolve_group(ref)[1]
            paths[ref] = Path(tmp) / f"table{k}.txt"
            rows = [" ".join(map(str, row)) for row in g.mul.tolist()]
            paths[ref].write_text("\n".join([str(g.order), *rows]) + "\n")
        del g, rows  # the verify runs below meet no group but their own
        for _ in range(args.repeat):
            for ref, path in paths.items():
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                resolve_group(str(path))
                read_ms[ref].append(round((time.perf_counter() - t0) * 1e3, 2))
                read_faults[ref].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)

    groups = {}
    for ref in refs:
        label, g = resolve_group(ref)
        sample = subgroup_sample(g)
        agree = routes_agree(g, sample) if batched else None
        batches = len(list(action.sample_batches(g, sample))) if batched else None
        if agree is False:
            print(f"FAIL {label}: the batched and single-instance routes disagree")
            return 1
        build_ms, validate_ms = [], []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            resolve_group(ref)
            t1 = time.perf_counter()
            from_cayley_table(g.order, g.mul)
            build_ms.append(round((t1 - t0) * 1e3, 2))
            validate_ms.append(round((time.perf_counter() - t1) * 1e3, 2))
        times, faults, best = [], [], None
        for _ in range(args.repeat):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            rep = verify_group(g, label)
            times.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            if not rep.ok:
                print(f"FAIL {label}: {[c.name for c in rep.checks if not c.ok]}")
                return 1
            if min(times) == times[-1]:
                best = rep
        tracemalloc.start()
        verify_group(g, label)
        peak_mib = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
        rss_mib = fresh_peak_mib(os.path.abspath(args.src), ref)
        ms = {c.name: round(c.ms, 1) for c in best.checks
              if c.name in ("lagrange", "orbit_stabilizer:translation",
                            "mod_p_fixed_points:translation")
              or c.name.startswith(("cauchy_order[", "sylow_order["))}
        groups[ref] = {"order": g.order, "subgroups": len(sample), "batches": batches,
                       "routes_agree": agree,
                       "best_s": round(min(times), 4), "runs_s": [round(t, 4) for t in times],
                       "faults": faults,
                       "checks_ms": ms, "build_ms": build_ms, "validate_ms": validate_ms,
                       "read_ms": read_ms[ref], "read_faults": read_faults[ref],
                       "peak_mib": [peak_mib], "rss_mib": [rss_mib],
                       "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        print(f"{args.label:<8} {label[:48]:<48} order {g.order:>4} {len(sample):>6} subgroups "
              f"{batches} batches "
              f"best {min(times):8.3f} s  build {min(build_ms):8.2f} ms  "
              f"validate {min(validate_ms):8.2f} ms  read {min(read_ms[ref]):8.2f} ms  "
              f"peak {peak_mib:7.2f} MiB  fresh {rss_mib:7.2f} MiB  "
              f"routes agree: {agree}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}
    runs = doc.setdefault("runs", {}).setdefault(args.label, {})
    for ref, new in groups.items():  # runs add up; the best run so far is kept
        old = runs.get(ref)
        if old is not None:
            for key in ("runs_s", "faults", "build_ms", "validate_ms", "read_ms",
                        "read_faults", "peak_mib", "rss_mib"):
                new[key] = old.get(key, []) + new[key]
            if old["best_s"] < new["best_s"]:
                new["best_s"], new["checks_ms"] = old["best_s"], old["checks_ms"]
        runs[ref] = new
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
