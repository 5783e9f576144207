#!/usr/bin/env python3
"""Run the full theorem suite over the built-in catalog and summarize.

Usage:
    python scripts/run_suite.py              # table of per-group results
    python scripts/run_suite.py --json       # one JSON report per line
    python scripts/run_suite.py --only s4 q8 # restrict to some references

A group's ms is the sum of its checks' ms, which is the whole
verify_group time.
"""

import argparse
import sys
import time
from pathlib import Path

# the checkout's package comes first, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fingroups.cli import resolve_group  # noqa: E402
from fingroups.suite import catalog_specs, verify_group  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="emit JSON lines")
    ap.add_argument("--only", nargs="*", help="group references to include")
    args = ap.parse_args()

    refs = args.only or [spec.describe() for spec in catalog_specs()]
    failures = 0
    t0 = time.perf_counter()
    for ref in refs:
        label, g = resolve_group(ref)
        rep = verify_group(g, label)
        if args.json:
            print(rep.to_json())
        else:
            bad = [c.name for c in rep.checks if not c.ok]
            mark = "ok " if rep.ok else "FAIL"
            ms = sum(c.ms for c in rep.checks)
            print(f"{mark} {label:<40} order {g.order:>4}  "
                  f"{len(rep.checks):>3} checks  {ms:7.1f} ms"
                  + (f"  failing: {bad}" if bad else ""))
        if not rep.ok:
            failures += 1
    if not args.json:
        print(f"{len(refs)} groups, {failures} failing, "
              f"{time.perf_counter() - t0:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
