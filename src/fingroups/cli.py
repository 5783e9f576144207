"""Command line interface.

Group references are either catalog grammar

    cyclic:N | dihedral:N | symmetric:N | q8 | product:(REF,REF)

with shorthands zN, dN, sN, or a path to a Cayley-table file.  The file
format: first significant line holds the carrier size n (at most
MAX_GROUP_ORDER), the next n lines hold n indices each (row i, column j is
i*j), with '#' starting a comment and blank lines ignored.  Only a line
feed ends a line, and only ASCII blanks (space, tab, carriage return,
vertical tab, form feed) separate indices.  Every number, in the grammar
or in a file, is ASCII digits only; leading zeros are allowed.  One reader,
parse_cayley_file, takes every file and names the line and column of the
first fault.

Exit codes: 0 when every check passes, 1 when a mathematical cross-check
fails (that is a bug trap, not a user error), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import accumulate

import numpy as np

from .action import (
    conjugation_action,
    conjugation_action_on_subsets,
    left_translation_action,
    orbit_stabilizer_counts,
)
from .carrier import ElemSet
from .conjnormal import conjugacy_family, quotient_group, quotient_morphism_check
from .cyclic import order
from .errors import GroupTheoryError, InternalInvariant, ParseError, UnsupportedSpec, quote_input
from .group import MAX_GROUP_ORDER, MAX_PRODUCT_DEPTH, Group, GroupSpec, build, from_cayley_table
from .report import Check, Clock, Report, tally
from .subgroup import closure
from .suite import catalog_specs, verify_group
from . import oracle as oracle_mod
from .sylow import cauchy_certificate, cauchy_element, sylow_battery


# ---------------------------------------------------------------------------
# input parsing


# Comments run from "#" to the end of the line.  Lines end at "\n" alone and
# tokens are runs of anything but ASCII blanks and line feeds: str.splitlines
# and \S also break at U+2028, U+0085, U+001C and others.
_COMMENT = re.compile(rb"#[^\n]*")

# The longest file read, in bytes: a zero-padded order-1024 table is 5.2 MB.
MAX_FILE_BYTES = 8 * 2**20

# The bytes of whole lines the reader tokenises at once; a longer line is a
# block of its own.  A block's temporaries, a few MiB, stay small enough for
# the allocator to hand the same pages to the next read instead of mapping
# fresh ones (at 512 KiB an S6 read faults again); smaller blocks pay
# numpy's per-call overhead once more per block.
READ_BLOCK_BYTES = 256 * 2**10


def _read_body(path: str) -> bytes | ParseError:
    """The bytes of a UTF-8 file of at most MAX_FILE_BYTES, with a leading
    byte-order mark removed and each comment made one blank, so every line
    feed stays and the bytes end in one when the file does.  The
    ParseError, at the line and byte column of the fault, for a longer file
    or one that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        k, message = MAX_FILE_BYTES, f"file exceeds the maximum of {MAX_FILE_BYTES} bytes"
    else:
        try:
            data.isascii() or data.decode("utf-8")  # checked, and the text dropped
            data = data.removeprefix(b"\xef\xbb\xbf")
            return _COMMENT.sub(b" ", data) if b"#" in data else data  # sub is 50x slower than "in"
        except UnicodeDecodeError as e:
            k, message = e.start, "file is not UTF-8 text"
    return ParseError(data.count(b"\n", 0, k) + 1, k - data.rfind(b"\n", 0, k), message)


def _number(tok: str) -> int | None:
    """tok's value if it is ASCII digits 0-9 within int()'s digit limit."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def parse_cayley_file(path: str) -> tuple[int, np.ndarray]:
    """Read a Cayley-table file; returns (n, table), table an (n, n) int64
    array.  Raises ParseError with 1-based line and column on the first
    offending token.  A file past MAX_FILE_BYTES is refused before any
    array is built, and the size line is checked against MAX_GROUP_ORDER
    before anything sized by it is allocated.

    The file is read in blocks of whole lines, READ_BLOCK_BYTES or one
    line at least.  In each block a vectorised pass finds the tokens, the
    lines and each entry's value from its last len(str(n - 1)) digits, so
    leading zeros are read too, and writes the values into the table.
    Only the row count, the first fault and the table carry from one
    block to the next: what scales with the file is the table and its bytes.
    Faults come in the order a token-by-token read would meet them: the
    size line, then the row count, then row by row a wrong entry count
    before the first bad entry.  Only the offending token and its line up
    to it are decoded, to word its message and count its column."""
    found = _read_body(path)
    if not isinstance(found, ParseError):
        found = _parse_table(found)
    if isinstance(found, ParseError):
        # a caught rejection keeps the locals of every frame it passed alive,
        # so each pass returns its fault, to be raised from this frame alone
        raise found
    return found


def _parse_table(buf: bytes) -> tuple[int, np.ndarray] | ParseError:
    """parse_cayley_file's block pass over _read_body's bytes: (n, table),
    or the ParseError of the first fault.  A non-ASCII byte is no blank, so
    it stays inside its token, and no token that holds one reads as a
    number: a byte past "9" fails its digit window or its "0" prefix."""
    whole = np.frombuffer(buf, dtype=np.uint8)
    n = rows = lines_before = lo = 0
    fault = None  # the first miscounted row or bad entry, returned once rows are counted
    while lo < len(buf):
        hi = buf.find(b"\n", lo + READ_BLOCK_BYTES - 1) + 1 or len(buf)
        block = whole[lo:hi]
        # a token runs from a rising to a falling edge of the padded token
        # mask: the separators are " " and "\t\n\v\f\r", bytes 9 to 13
        inside = np.zeros(block.size + 2, dtype=bool)
        np.greater(block, 32, out=inside[1:-1])
        low = np.flatnonzero(block < 32)  # line feeds, other blanks, control bytes
        code = block[low]
        inside[low + 1] = (code < 9) | (code > 13)
        feeds = low[code == 10]
        feeds += lo
        edge = inside[1:] > inside[:-1]
        starts = np.flatnonzero(edge)
        np.less(inside[1:], inside[:-1], out=edge)
        width = np.flatnonzero(edge)
        width -= starts
        starts += lo
        # tokens per line: how many start before each line feed, differenced
        per_line = np.diff(np.searchsorted(starts, feeds), prepend=0, append=starts.size)
        lines = np.flatnonzero(per_line)  # the block's lines that hold tokens

        def fail(k: int, message: str) -> ParseError:
            line = int(np.searchsorted(feeds, starts[k]))
            before = buf[feeds[line - 1] + 1 if line else lo:starts[k]].decode("utf-8")
            return ParseError(lines_before + line + 1, len(before) + 1, message)  # in characters

        def token(k: int) -> str:
            return buf[int(starts[k]):int(starts[k] + width[k])].decode("utf-8")

        if lines.size and not n:
            if per_line[lines[0]] != 1:
                return fail(1, f"size line must hold one integer, got {token(1)!r}")
            n = _number(token(0))
            if n is None:
                return fail(0, f"expected an integer, got {token(0)!r}")
            if n < 1:
                return fail(0, f"size must be positive, got {n}")
            if n > MAX_GROUP_ORDER:
                return fail(0, f"size {n} exceeds the maximum of {MAX_GROUP_ORDER}")
            digits = len(str(n - 1))
            table = np.empty(n * n, dtype=np.int64)
            starts, width, lines = starts[1:], width[1:], lines[1:]  # the entries
        if rows + lines.size > n:
            return fail(int(per_line[lines[:n - rows]].sum()), "unexpected content after the table")

        if fault is None and lines.size:
            # An entry's value is read by Horner's rule from the window of
            # its last d bytes; the size line comes first and is no narrower,
            # so every window lies in the file.  An entry is bad if that
            # value is n or more, if it holds a byte that is no digit, or,
            # when wider than d, if a byte before its last d is not "0" or
            # int() refuses that many digits.
            at = starts + width
            at -= digits
            values = np.zeros(width.size, dtype=np.min_scalar_type(10**digits - 1))
            top = np.zeros(width.size, dtype=np.uint8)  # the largest "digit" read
            for c in range(digits):
                column = whole[c:].take(at)
                column -= ord("0")  # uint8: any byte but a digit is above 9
                column *= width >= digits - c  # zero the bytes before the entry
                values *= 10
                values += column
                np.maximum(top, column, out=top)
            bad = (values >= n) | (top > 9)
            wide = np.flatnonzero(width > digits)
            if wide.size:  # reduce over each [start, end - d), dropping the gaps between
                prefixes = np.stack([starts[wide], at[wide]], axis=1).ravel()
                prefixes -= lo
                bad[wide] |= np.logical_or.reduceat(block != ord("0"), prefixes)[::2]
                limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                if limit:
                    bad[wide] |= width[wide] > limit

            counts = per_line[lines]
            miscounted = np.flatnonzero(counts != n)
            wrong = np.flatnonzero(bad)
            if miscounted.size:
                r = miscounted[0]
                k = int(counts[:r].sum())  # the row's first entry
                if not wrong.size or wrong[0] >= k:  # no bad entry in an earlier row
                    fault = fail(k + min(n, int(counts[r]) - 1),
                                 f"row has {counts[r]} entries, expected {n}")
            if fault is None and wrong.size:
                k = int(wrong[0])
                tok = token(k)
                v = _number(tok)
                fault = fail(k, f"expected an integer, got {tok!r}" if v is None
                             else f"entry {v} out of range [0, {n})")
            if fault is None:
                table[rows * n:(rows + lines.size) * n] = values
        rows += lines.size
        lines_before += feeds.size
        lo = hi

    last_line = lines_before + (not buf.endswith(b"\n"))
    if not n:
        return ParseError(last_line, 1, "no table found")
    if rows < n:
        return ParseError(last_line, 1, f"expected {n} table rows, found {rows}")
    if fault is not None:
        return fault
    return n, table.reshape(n, n)


_SHORTHAND = {"z": "cyclic", "d": "dihedral", "s": "symmetric"}


def parse_group_ref(ref: str) -> GroupSpec:
    """Parse catalog grammar; raises ValueError when the text is not
    grammar at all (the caller may then try it as a path)."""
    ref = ref.strip()
    if ref == "q8":
        return GroupSpec.q8()
    m = re.fullmatch(r"([zds]|cyclic:|dihedral:|symmetric:)([0-9]+)", ref)
    if m:
        kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
        try:
            n = int(digits)
        except ValueError:  # past int()'s digit limit: an order of as many digits
            raise UnsupportedSpec(f"group order of {len(digits)} digits or more exceeds "
                                  f"the maximum of {MAX_GROUP_ORDER}") from None
        return GroupSpec(_SHORTHAND.get(kind, kind[:-1]), n=n)
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
        raise ValueError(f"product needs two comma-separated refs: {quote_input(ref)}")
    raise ValueError(f"not catalog grammar: {quote_input(ref)}")


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
        f"{quote_input(ref)} is neither catalog grammar (try 'fingroups catalog') nor a file"
    )


def _parse_points(g: Group, csv: str) -> list[int]:
    try:
        pts = [int(tok) for tok in csv.split(",") if tok.strip() != ""]
    except ValueError:
        raise GroupTheoryError(f"generator list {quote_input(csv)} is not comma-separated integers")
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
    clock = Clock()
    full = g.full_set()
    p = args.p
    cert, family, order_check, counting = sylow_battery(g, full, p)
    rep = Report(group=label, order=g.order, checks=clock.stamp(order_check, *counting),
                 certificates=[cert.to_certificate_dict()])

    if args.oracle:
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
        rep.checks += clock.stamp(
            Check("oracle_family_agreement", agree, len(family), len(brute), diff))

    count = len(family)
    return _emit(rep, args.json, [
        f"  {count} Sylow {p}-subgroup(s); {count} ≡ {count % p} (mod {p}); "
        f"{count} | {g.order}"
    ])


def cmd_cauchy(args) -> int:
    label, g = resolve_group(args.group)
    clock = Clock()
    p = args.p
    rep = Report(group=label, order=g.order)
    trace: list[str] = []
    a = cauchy_element(g, g.full_set(), p, trace)
    got = order(g, a)
    rep.checks += clock.stamp(Check(f"cauchy_order[p={p}]", got == p, got, p, {"element": int(a)}))
    rep.certificates.append(cauchy_certificate(p, a, trace))
    return _emit(rep, args.json, [f"  element {a} has order {p}"])


def cmd_orbits(args) -> int:
    label, g = resolve_group(args.group)
    clock = Clock()  # the check's time includes building the action
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
    # a point's column holds its orbit: label each orbit by its least point
    least = act.table.min(axis=0)
    by_orbit = np.argsort(least, kind="stable")
    cuts = np.flatnonzero(np.diff(least[by_orbit])) + 1
    orbits = [orb.tolist() for orb in np.split(by_orbit, cuts)]
    c = tally("orbit_stabilizer", orbit_stabilizer_counts(act)[3])
    c.witness = {"orbits": orbits}
    rep.checks += clock.stamp(c)

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
    clock = Clock()  # quotient_order's time includes building the quotient
    h = closure(g, _parse_points(g, args.gens))
    quot = quotient_group(g, h, g.full_set())
    rep = Report(group=label, order=g.order)
    table = quot.group.export_table().tolist()
    rep.checks += clock.stamp(
        Check("quotient_order", quot.group.order * h.card == g.order,
              quot.group.order * h.card, g.order,
              {"table": table, "roots": list(quot.roots)})
    )
    rep.checks += clock.stamp(*quotient_morphism_check(quot))
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
