"""Command line interface.

Group references are either catalog grammar

    cyclic:N | dihedral:N | symmetric:N | q8 | product:(REF,REF)

with shorthands zN, dN, sN, or a path to a Cayley-table file.  The file
format: first significant line holds the carrier size n (at most
MAX_GROUP_ORDER), the next n lines hold n indices each (row i, column j is
i*j), with '#' starting a comment and blank lines ignored.  Only a line
feed ends a line, and only ASCII blanks (space, tab, carriage return,
vertical tab, form feed) separate indices.  Every number, in the grammar
or in a file, is ASCII digits only.

Exit codes: 0 when every check passes, 1 when a mathematical cross-check
fails (that is a bug trap, not a user error), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from itertools import accumulate, islice

import numpy as np

from .action import (
    conjugation_action,
    conjugation_action_on_subsets,
    left_translation_action,
    orbit,
    orbit_stabilizer_checks,
)
from .carrier import ElemSet
from .conjnormal import conjugacy_family, quotient_group, quotient_morphism_check
from .cyclic import order
from .errors import GroupTheoryError, InternalInvariant, ParseError, UnsupportedSpec
from .group import MAX_GROUP_ORDER, MAX_PRODUCT_DEPTH, Group, GroupSpec, build, from_cayley_table
from .report import Check, Report
from .subgroup import closure
from .suite import catalog_specs, verify_group
from . import oracle as oracle_mod
from .sylow import (
    cauchy_certificate,
    cauchy_element,
    sylow_count_divides_check,
    sylow_count_mod_p_check,
    sylow_family,
    sylow_subgroup,
)


# ---------------------------------------------------------------------------
# input parsing


# Lines end at "\n" alone and tokens are separated by ASCII blanks alone;
# str.splitlines and \S also break at U+2028, U+0085, U+001C and others.
_TOKEN = re.compile(r"[^ \t\r\v\f]+")

# The one-pass reader's view of a file, once comments are deleted: blank
# lines, then a size line holding one ASCII number; each byte of the rest
# is a digit (1), an ASCII blank (2), a line feed (3) or anything else (0).
_COMMENT = re.compile(r"#[^\n]*")
_HEADER = re.compile(rb"(?:[ \t\r\v\f]*\n)*[ \t\r\v\f]*([0-9]+)[ \t\r\v\f]*\n")
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = 1
_BYTE_CLASS[list(b" \t\r\v\f")] = 2
_BYTE_CLASS[ord("\n")] = 3


def parse_cayley_file(path: str) -> tuple[int, np.ndarray]:
    """Read a Cayley-table file; returns (n, table), table an (n, n) int64
    array.  Raises ParseError with 1-based line and column on the first
    offending token.  The size line is checked against MAX_GROUP_ORDER
    before any row is tokenized.

    The rows are read in one vectorised pass.  Text that pass declines
    goes to the token loop, which reports the first bad token, or returns
    the rows of the rare valid file the pass does not take (say, one with
    leading zeros)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:  # no \r translation
            text = fh.read().removeprefix("\ufeff")  # a leading byte-order mark
    except UnicodeDecodeError as e:
        data = e.object  # the whole file: read() decodes it in one call
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise ParseError(line, col, "file is not UTF-8 text") from None

    table = _parse_table(text)
    if table is None:
        n, rows = _parse_tokens(text)
        table = np.array(rows, dtype=np.int64).reshape(n, n)
    return len(table), table


def _parse_table(text: str) -> np.ndarray | None:
    """The table of a file's text, read in one vectorised pass, or None
    unless the text is a size line n and then exactly n lines of n ASCII
    numbers below n, none with more digits than n - 1, with ASCII blanks
    and comments between them.  Temporaries are updated in place where
    they can be: the pass makes few table-sized allocations."""
    try:  # deleting comments keeps every line feed, so line numbering
        data = _COMMENT.sub("", text).encode("ascii")
    except UnicodeEncodeError:
        return None
    m = _HEADER.match(data)
    if m is None or len(m[1]) > len(str(MAX_GROUP_ORDER)):
        return None
    n = int(m[1])
    if not 1 <= n <= MAX_GROUP_ORDER:
        return None
    buf = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    kind = _BYTE_CLASS.take(buf)
    if not kind.all():
        return None
    # a token runs from a rising to a falling edge of the padded digit mask
    digit = np.zeros(buf.size + 2, dtype=bool)
    np.equal(kind, 1, out=digit[1:-1])
    edge = digit[1:] > digit[:-1]
    if np.count_nonzero(edge) != n * n:  # before any per-token array
        return None
    starts = np.flatnonzero(edge)
    np.less(digit[1:], digit[:-1], out=edge)
    width = np.flatnonzero(edge)
    width -= starts
    digits = len(str(n - 1))
    if width.max() > digits:
        return None
    values = np.zeros(n * n, dtype=np.int64)
    at = starts.copy()
    for k in range(digits):  # Horner's rule, one digit column at a time
        more = width > k
        np.multiply(values, 10, out=values, where=more)
        np.add(values, buf.take(at, mode="clip"), out=values, where=more)
        np.subtract(values, ord("0"), out=values, where=more)
        at += 1
    # tokens per line: how many start before each line feed, differenced
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(kind == 3)),
                       prepend=0, append=starts.size)
    if (per_line[per_line > 0] != n).any() or values.max() >= n:
        return None
    return values.reshape(n, n)


def _parse_tokens(text: str) -> tuple[int, list[list[int]]]:
    """The token loop: (n, rows) of a file's text, or the ParseError of its
    first offending token."""
    def significant_lines():
        for lineno, line in enumerate(text.split("\n"), 1):
            body = line.split("#", 1)[0]
            toks = _TOKEN.findall(body)
            if toks:
                yield lineno, body, toks

    def fail(lineno: int, body: str, k: int, message: str) -> ParseError:
        col = next(islice(_TOKEN.finditer(body), k, None)).start() + 1
        return ParseError(lineno, col, message)

    def want_int(lineno: int, body: str, k: int, tok: str) -> int:
        if tok.isascii() and tok.isdigit():  # ASCII 0-9 only
            try:
                return int(tok)
            except ValueError:  # past Python's digit limit
                pass
        raise fail(lineno, body, k, f"expected an integer, got {tok!r}")

    last_line = text.count("\n") + (not text.endswith("\n"))
    lines = significant_lines()
    header = next(lines, None)
    if header is None:
        raise ParseError(last_line, 1, "no table found")
    header_line, header_body, header_toks = header
    if len(header_toks) != 1:
        raise fail(header_line, header_body, 1,
                   f"size line must hold one integer, got {header_toks[1]!r}")
    n = want_int(header_line, header_body, 0, header_toks[0])
    if n < 1:
        raise fail(header_line, header_body, 0, f"size must be positive, got {n}")
    if n > MAX_GROUP_ORDER:
        raise fail(header_line, header_body, 0,
                   f"size {n} exceeds the maximum of {MAX_GROUP_ORDER}")

    body_lines = list(islice(lines, n + 1))  # one more shows trailing content
    if len(body_lines) < n:
        raise ParseError(last_line, 1, f"expected {n} table rows, found {len(body_lines)}")
    if len(body_lines) > n:
        lineno, body, _ = body_lines[n]
        raise fail(lineno, body, 0, "unexpected content after the table")

    rows: list[list[int]] = []
    for lineno, body, toks in body_lines:
        if len(toks) != n:
            raise fail(lineno, body, min(n, len(toks) - 1),
                       f"row has {len(toks)} entries, expected {n}")
        row = []
        for k, tok in enumerate(toks):
            v = want_int(lineno, body, k, tok)
            if v >= n:
                raise fail(lineno, body, k, f"entry {v} out of range [0, {n})")
            row.append(v)
        rows.append(row)
    return n, rows


_SHORTHAND = {"z": "cyclic", "d": "dihedral", "s": "symmetric"}

def parse_group_ref(ref: str) -> GroupSpec:
    """Parse catalog grammar; raises ValueError when the text is not
    grammar at all (the caller may then try it as a path)."""
    ref = ref.strip()
    if ref == "q8":
        return GroupSpec.q8()
    m = re.fullmatch(r"([zds])([0-9]+)", ref)
    if m:
        return GroupSpec(_SHORTHAND[m.group(1)], n=int(m.group(2)))
    m = re.fullmatch(r"(cyclic|dihedral|symmetric):([0-9]+)", ref)
    if m:
        return GroupSpec(m.group(1), n=int(m.group(2)))
    m = re.fullmatch(r"product:\((.*)\)", ref)
    if m:
        if max(accumulate((ch == "(") - (ch == ")") for ch in ref)) > MAX_PRODUCT_DEPTH:
            raise UnsupportedSpec(f"products nest at most {MAX_PRODUCT_DEPTH} levels deep")
        inner = m.group(1)
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return GroupSpec.product(
                    parse_group_ref(inner[:i]), parse_group_ref(inner[i + 1:])
                )
        raise ValueError(f"product needs two comma-separated refs: {ref!r}")
    raise ValueError(f"not catalog grammar: {ref!r}")


def resolve_group(ref: str) -> tuple[str, Group]:
    """Catalog grammar first, then the filesystem."""
    try:
        spec = parse_group_ref(ref)
    except ValueError:
        spec = None
    if spec is not None:
        return spec.describe(), build(spec)
    if os.path.exists(ref):
        # no local holds the table: a caught rejection keeps this frame alive
        return ref, from_cayley_table(*parse_cayley_file(ref))
    raise GroupTheoryError(
        f"{ref!r} is neither catalog grammar (try 'fingroups catalog') nor a file"
    )


def _parse_points(g: Group, csv: str) -> list[int]:
    try:
        pts = [int(tok) for tok in csv.split(",") if tok.strip() != ""]
    except ValueError:
        raise GroupTheoryError(f"generator list {csv!r} is not comma-separated integers")
    if not pts:
        raise GroupTheoryError("generator list is empty")
    for x in pts:
        g.carrier.check_point(x)
    return pts


# ---------------------------------------------------------------------------
# commands


def _emit(rep: Report, as_json: bool, extra_lines: list[str]) -> int:
    """Print the report (text gets extra_lines after it); 0 iff all checks passed."""
    if as_json:
        print(rep.to_json())
    else:
        print(rep.render_text())
        for line in extra_lines:
            print(line)
    return 0 if rep.ok else 1


def cmd_verify(args) -> int:
    label, g = resolve_group(args.group)
    rep = verify_group(g, label)
    return _emit(rep, args.json, [])


def cmd_sylow(args) -> int:
    label, g = resolve_group(args.group)
    full = g.full_set()
    p = args.p
    rep = Report(group=label, order=g.order)

    t0 = time.perf_counter()
    cert = sylow_subgroup(g, full, p)
    c = Check(f"sylow_order[p={p}]", cert.subgroup.card == p**cert.n,
              cert.subgroup.card, p**cert.n)
    c.ms = (time.perf_counter() - t0) * 1000.0
    rep.checks.append(c)
    rep.certificates.append(cert.to_certificate_dict())

    family = sylow_family(g, full, p, cert)
    for c in sylow_count_divides_check(g, full, p, cert):
        rep.checks.append(c)
    for c in sylow_count_mod_p_check(g, full, p, cert):
        rep.checks.append(c)

    if args.oracle:
        t0 = time.perf_counter()
        brute = oracle_mod.sylow_family_bruteforce(g, full, p)
        agree = [s.indices() for s in family] == [s.indices() for s in brute]
        diff = None
        if not agree:
            ours = {s.bits for s in family}
            theirs = {s.bits for s in brute}
            diff = {
                "only_constructed": [list(ElemSet(g.carrier, b).indices())
                                     for b in sorted(ours - theirs)],
                "only_bruteforce": [list(ElemSet(g.carrier, b).indices())
                                    for b in sorted(theirs - ours)],
            }
        c = Check("oracle_family_agreement", agree, len(family), len(brute), diff)
        c.ms = (time.perf_counter() - t0) * 1000.0
        rep.checks.append(c)

    count = len(family)
    return _emit(rep, args.json, [
        f"  {count} Sylow {p}-subgroup(s); {count} ≡ {count % p} (mod {p}); "
        f"{count} | {g.order}"
    ])


def cmd_cauchy(args) -> int:
    label, g = resolve_group(args.group)
    p = args.p
    rep = Report(group=label, order=g.order)
    trace: list[str] = []
    t0 = time.perf_counter()
    a = cauchy_element(g, g.full_set(), p, trace)
    got = order(g, a)
    c = Check(f"cauchy_order[p={p}]", got == p, got, p, {"element": int(a)})
    c.ms = (time.perf_counter() - t0) * 1000.0
    rep.checks.append(c)
    rep.certificates.append(cauchy_certificate(p, a, trace))
    return _emit(rep, args.json, [f"  element {a} has order {p}"])


def cmd_orbits(args) -> int:
    label, g = resolve_group(args.group)
    acting = closure(g, _parse_points(g, args.acting_gens)) if args.acting_gens \
        else g.full_set()

    if args.action == "conjugation":
        act = conjugation_action(g, acting)
    elif args.action == "translation":
        if not args.gens:
            raise GroupTheoryError("translation orbits need --gens for the coset subgroup")
        sub = closure(g, _parse_points(g, args.gens))
        act = left_translation_action(g, acting, sub, g.full_set())
    else:  # subsets
        if not args.gens:
            raise GroupTheoryError("subset orbits need --gens for the base subgroup")
        base = closure(g, _parse_points(g, args.gens))
        family = conjugacy_family(g, g.full_set(), base)
        act = conjugation_action_on_subsets(g, acting, family)

    rep = Report(group=label, order=g.order)
    seen: set[int] = set()
    orbits: list[list[int]] = []
    t0 = time.perf_counter()
    for a in range(act.points.size):
        if a not in seen:
            orb = orbit(act, a)
            seen.update(orb)
            orbits.append(list(orb.indices()))
    results = [all(c.ok for c in checks) for checks in orbit_stabilizer_checks(act)]
    good = sum(results)
    c = Check("orbit_stabilizer", good == len(results), good, len(results),
              {"orbits": orbits})
    c.ms = (time.perf_counter() - t0) * 1000.0
    rep.checks.append(c)

    lines = []
    for i, orb in enumerate(orbits):
        if act.point_labels is not None:
            names = [repr(act.point_labels[z]) for z in orb]
            lines.append(f"  orbit {i}: points {orb} = {names}")
        else:
            lines.append(f"  orbit {i}: {orb}")
    return _emit(rep, args.json, lines)


def cmd_quotient(args) -> int:
    label, g = resolve_group(args.group)
    h = closure(g, _parse_points(g, args.gens))
    quot = quotient_group(g, h, g.full_set())
    rep = Report(group=label, order=g.order)
    table = quot.group.export_table()
    rep.checks.append(
        Check("quotient_order", quot.group.order * h.card == g.order,
              quot.group.order * h.card, g.order,
              {"table": table, "roots": list(quot.roots)})
    )
    for c in quotient_morphism_check(quot):
        rep.checks.append(c)
    return _emit(rep, args.json, [
        f"  quotient order {quot.group.order}, coset roots {list(quot.roots)}",
        *("  " + " ".join(f"{v:3d}" for v in row) for row in table),
    ])


def cmd_catalog(args) -> int:
    entries = []
    for spec in catalog_specs():
        entries.append({"ref": spec.describe(), "order": build(spec).order})
    if args.json:
        print(json.dumps(entries, sort_keys=True, separators=(",", ": ")))
    else:
        print("group reference grammar: cyclic:N dihedral:N symmetric:N q8 "
              "product:(REF,REF), shorthands zN dN sN, or a Cayley table file")
        for e in entries:
            print(f"  {e['ref']}  (order {e['order']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fingroups",
        description="finite group theorem checks with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("group", help="group reference (see 'fingroups catalog')")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    sp = sub.add_parser("verify", help="run the full theorem suite")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sylow", help="construct a Sylow subgroup and count the family")
    common(sp)
    sp.add_argument("-p", type=int, required=True, help="prime")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check the family against brute-force enumeration")
    sp.set_defaults(func=cmd_sylow)

    sp = sub.add_parser("cauchy", help="find an element of prime order")
    common(sp)
    sp.add_argument("-p", type=int, required=True, help="prime")
    sp.set_defaults(func=cmd_cauchy)

    sp = sub.add_parser("orbits", help="print an action's orbit partition")
    common(sp)
    sp.add_argument("--action", choices=["conjugation", "translation", "subsets"],
                    default="conjugation")
    sp.add_argument("--gens", help="comma-separated generators of the coset or base subgroup")
    sp.add_argument("--acting-gens", dest="acting_gens",
                    help="comma-separated generators of the acting subgroup (default: all)")
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("quotient", help="build and print a quotient group")
    common(sp)
    sp.add_argument("--gens", required=True,
                    help="comma-separated generators of the normal subgroup")
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("catalog", help="list built-in group references")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariant as e:
        print(f"theorem check failed: {e}", file=sys.stderr)
        return 1
    except GroupTheoryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
