#!/usr/bin/env python3
"""Tabulate Sylow subgroup data across the catalog: for every group and
every prime dividing its order, the subgroup order p^n, the family size,
and the normalizer order of the constructed representative.  The census
doubles as a quick empirical scan of the counting theorems: the last two
columns must always read 0 and 1, and count times |N(P)| must equal |G|,
since the family is one conjugation orbit whose stabilizer is the
normalizer.  The exit status is 1 when any row breaks one of these.

Usage:
    python scripts/sylow_census.py
    python scripts/sylow_census.py --csv > census.csv
"""

import argparse
import sys
from pathlib import Path

# the checkout's package comes first, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fingroups import normalizer, sylow_family, sylow_subgroup  # noqa: E402
from fingroups.numutil import prime_divisors  # noqa: E402
from fingroups.suite import catalog  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    args = ap.parse_args()

    if args.csv:
        print("group,order,p,n,sylow_order,count,normalizer_order,count_mod_order,count_mod_p")
    else:
        print(f"{'group':<40} {'|G|':>5} {'p':>2} {'p^n':>5} {'count':>5} "
              f"{'|N(P)|':>6} {'|G|%cnt':>7} {'cnt%p':>5}")

    bad = 0
    for label, g in catalog():
        full = g.full_set()
        for p in prime_divisors(g.order):
            cert = sylow_subgroup(g, full, p)
            fam = sylow_family(g, full, p, cert)
            nrm = normalizer(g, cert.subgroup, full)
            row = (label, g.order, p, cert.n, cert.subgroup.card,
                   len(fam), nrm.card, g.order % len(fam), len(fam) % p)
            bad += row[7:] != (0, 1) or len(fam) * nrm.card != g.order
            if args.csv:
                print(",".join(str(v) for v in row))
            else:
                print(f"{row[0]:<40} {row[1]:>5} {row[2]:>2} {row[4]:>5} "
                      f"{row[5]:>5} {row[6]:>6} {row[7]:>7} {row[8]:>5}")
    if bad:
        print(f"{bad} row(s) break a Sylow counting theorem", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
