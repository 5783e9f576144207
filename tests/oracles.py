"""Naive reference implementations used only by the tests.

Everything here works on plain Python data (lists of lists, frozensets)
and takes the slowest obviously-correct route.  None of it shares code
with the package, so a bug would have to be made twice, in two different
styles, to slip through a comparison.  naive_parse_cayley_file is the one
exception in style: it is the library's former token-by-token reader,
kept as the reference its one-pass reader is compared against.
"""

from __future__ import annotations

import re
from itertools import combinations, islice, product
from math import gcd

# the error class and the size bound, not logic, come from the package
from fingroups.errors import ParseError
from fingroups.group import MAX_GROUP_ORDER


def table_rows(g) -> list[list[int]]:
    return [[int(v) for v in row] for row in g.export_table()]


def naive_order(rows: list[list[int]], unit: int, x: int) -> int:
    acc = x
    k = 1
    while acc != unit:
        acc = rows[acc][x]
        k += 1
        if k > len(rows):
            raise AssertionError("order scan ran past the group order")
    return k


def element_orders(rows: list[list[int]], unit: int) -> dict[int, int]:
    return {x: naive_order(rows, unit, x) for x in range(len(rows))}


def naive_first_nonassociative(rows: list[list[int]]) -> tuple[int, int, int] | None:
    """The first (x1, x2, x3) in lexicographic order with
    (x1*x2)*x3 != x1*(x2*x3), by trying every triple; None if there is none."""
    n = len(rows)
    for x1 in range(n):
        r1 = rows[x1]
        for x2 in range(n):
            r12 = rows[r1[x2]]
            r2 = rows[x2]
            for x3 in range(n):
                if r12[x3] != r1[r2[x3]]:
                    return x1, x2, x3
    return None


def naive_first_action_violation(rows, table, acting) -> tuple | None:
    """The first failure of a table, one row per acting element in
    ascending order, to be an action of the acting elements, scanning them
    all in that order: ("bijective", x) for the first row that is no
    permutation of the points, else ("morphism", (x, y, z)) for the first
    triple in lexicographic order with (x*y).z != x.(y.z), else None."""
    acting = sorted(acting)
    row = dict(zip(acting, table))
    n_points = len(table[0])
    for x in acting:
        if sorted(row[x]) != list(range(n_points)):
            return "bijective", x
    for x in acting:
        for y in acting:
            for z in range(n_points):
                if row[rows[x][y]][z] != row[x][row[y][z]]:
                    return "morphism", (x, y, z)
    return None


def naive_unit_and_inverses(rows: list[list[int]]):
    """("unit", unit, inverses) by trying every element: the unit is the
    first e with e*x == x*e == x for every x, and the inverse of x the
    first y with y*x == unit; ("NoIdentity",) when no e qualifies, else
    ("NoInverse", x) for the first x with no such y."""
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            break
    else:
        return ("NoIdentity",)
    inverses = []
    for x in range(n):
        for y in range(n):
            if rows[y][x] == e:
                inverses.append(y)
                break
        else:
            return ("NoInverse", x)
    return ("unit", e, inverses)


_TOKEN = re.compile(r"[^ \t\r\v\f]+")


def naive_parse_cayley_file(path: str) -> tuple[int, list[list[int]]]:
    """The token-by-token Cayley-file reader, kept as it was before the
    library read rows in one vectorised pass: (n, rows), or the ParseError
    of the first offending token."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:  # no \r translation
            text = fh.read().removeprefix("\ufeff")  # a leading byte-order mark
    except UnicodeDecodeError as e:
        data = e.object  # the whole file: read() decodes it in one call
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise ParseError(line, col, "file is not UTF-8 text") from None

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


def naive_dihedral_rows(n: int) -> list[list[int]]:
    """The dihedral group of order 2n by cases: index i < n is the
    rotation r^i, index n+i is the reflection s*r^i, and r*s = s*r^-1."""
    rows = []
    for a in range(2 * n):
        row = []
        for b in range(2 * n):
            i, j = a % n, b % n
            if a < n and b < n:  # r^i r^j
                row.append((i + j) % n)
            elif a < n:  # r^i s r^j = s r^(j-i)
                row.append(n + (j - i) % n)
            elif b < n:  # s r^i r^j
                row.append(n + (i + j) % n)
            else:  # s r^i s r^j = r^(j-i)
                row.append((j - i) % n)
        rows.append(row)
    return rows


_Q8_SYMS = "1ijk"
_Q8_MUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def naive_quaternion_rows() -> list[list[int]]:
    """Q8 by the multiplication rule of 1, i, j, k: index 2*s + b is
    (+/-)(1, i, j, k)[s], with b = 1 for the negative."""
    def decode(a):
        s, b = divmod(a, 2)
        return (-1 if b else 1), _Q8_SYMS[s]

    def encode(sign, sym):
        return 2 * _Q8_SYMS.index(sym) + (1 if sign < 0 else 0)

    rows = []
    for a in range(8):
        sa, xa = decode(a)
        row = []
        for b in range(8):
            sb, xb = decode(b)
            sp, xp = _Q8_MUL[(xa, xb)]
            row.append(encode(sa * sb * sp, xp))
        rows.append(row)
    return rows


def naive_product_rows(rows1: list[list[int]], rows2: list[list[int]]) -> list[list[int]]:
    """The direct product's table, pair (i1, i2) numbered i1 * n2 + i2."""
    n2 = len(rows2)
    pairs = [(i1, i2) for i1 in range(len(rows1)) for i2 in range(n2)]
    return [[rows1[a1][b1] * n2 + rows2[a2][b2] for b1, b2 in pairs] for a1, a2 in pairs]


def naive_is_abelian(rows: list[list[int]]) -> bool:
    n = len(rows)
    return all(rows[a][b] == rows[b][a] for a in range(n) for b in range(n))


def naive_inverse(rows: list[list[int]], unit: int, x: int) -> int:
    for y in range(len(rows)):
        if rows[x][y] == unit and rows[y][x] == unit:
            return y
    raise AssertionError(f"no inverse for {x}")


def is_closed(rows: list[list[int]], members: frozenset[int]) -> bool:
    for a in members:
        row = rows[a]
        for b in members:
            if row[b] not in members:
                return False
    return True


def naive_is_subgroup(rows: list[list[int]], unit: int, members: frozenset[int]) -> bool:
    if unit not in members:
        return False
    if not is_closed(rows, members):
        return False
    return all(naive_inverse(rows, unit, a) in members for a in members)


def naive_closure(rows: list[list[int]], unit: int, gens) -> frozenset[int]:
    got = {unit, *gens}
    while True:
        new = {rows[a][b] for a in got for b in got} - got
        if not new:
            return frozenset(got)
        got |= new


def naive_subgroup_sample(rows: list[list[int]], unit: int) -> list[tuple[int, tuple[int, ...]]]:
    """The closures of every singleton and every unordered pair, plus the
    whole group, deduplicated, as ascending (cardinality, members) keys."""
    n = len(rows)
    found = {naive_closure(rows, unit, [x]) for x in range(n)}
    found |= {naive_closure(rows, unit, pair) for pair in combinations(range(n), 2)}
    found.add(frozenset(range(n)))
    return sorted((len(s), tuple(sorted(s))) for s in found)


def left_cosets(rows: list[list[int]], members: frozenset[int], domain) -> set[frozenset[int]]:
    return {frozenset(rows[x][h] for h in members) for x in domain}


def naive_orbit_stabilizer(rows, table, acting, n_points: int) -> list[tuple[int, frozenset[int], int]]:
    """Per point: the orbit size as the size of its image set, the
    stabilizer as the acting elements that fix it, and the stabilizer's
    index as the number of its left cosets met by the acting elements.
    The table holds one row per acting element, in ascending order."""
    acting = sorted(acting)
    out = []
    for a in range(n_points):
        orbit = {row[a] for row in table}
        stab = frozenset(x for x, row in zip(acting, table) if row[a] == a)
        out.append((len(orbit), stab, len(left_cosets(rows, stab, acting))))
    return out


def right_cosets(rows: list[list[int]], members: frozenset[int], domain) -> set[frozenset[int]]:
    return {frozenset(rows[h][x] for h in members) for x in domain}


def naive_conjugate_set(rows, unit, members: frozenset[int], x: int) -> frozenset[int]:
    # x H x^-1, matching conjugate_set
    xi = naive_inverse(rows, unit, x)
    return frozenset(rows[rows[x][h]][xi] for h in members)


def naive_normalizer(rows, unit, members: frozenset[int], ambient) -> frozenset[int]:
    return frozenset(
        x for x in ambient if naive_conjugate_set(rows, unit, members, x) == members
    )


def naive_is_normal(rows, unit, members: frozenset[int], ambient) -> bool:
    """Whether x^-1 * y * x lands in the members for every x in the
    ambient set and every member y."""
    for x in ambient:
        xi = naive_inverse(rows, unit, x)
        if any(rows[rows[xi][y]][x] not in members for y in members):
            return False
    return True


def all_subgroups_naive(rows: list[list[int]], unit: int) -> set[frozenset[int]]:
    """Breadth-first closure adjunction: close the trivial subgroup, then
    keep adjoining single outside elements until nothing new appears."""
    n = len(rows)
    found = {naive_closure(rows, unit, [])}
    frontier = set(found)
    while frontier:
        nxt = set()
        for h in frontier:
            for x in range(n):
                if x not in h:
                    c = naive_closure(rows, unit, h | {x})
                    if c not in found:
                        found.add(c)
                        nxt.add(c)
        frontier = nxt
    return found


def closed_subsets_of_size(rows: list[list[int]], unit: int, k: int) -> set[frozenset[int]]:
    """Every size-k subgroup, found by scanning all size-k subsets that
    contain the unit.  Exponential, but that is the point: it assumes
    nothing about how subgroups arise."""
    n = len(rows)
    out = set()
    rest = [x for x in range(n) if x != unit]
    for combo in combinations(rest, k - 1):
        members = frozenset((unit, *combo))
        if is_closed(rows, members):
            # closed and finite implies subgroup, but check anyway
            if naive_is_subgroup(rows, unit, members):
                out.add(members)
    return out


def naive_rotation_table(
    rows: list[list[int]], unit: int, members, p: int
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The product-one p-tuples over members, tails in itertools.product
    order with the head solved for, and the table whose row k sends each
    tuple's index to the index of its rotation left by k, found by looking
    every rotated tuple up in a dict."""
    inv = {x: naive_inverse(rows, unit, x) for x in members}
    tuples = []
    for tail in product(members, repeat=p - 1):
        x = unit
        for c in tail:
            x = rows[x][c]
        tuples.append((inv[x], *tail))
    index = {t: i for i, t in enumerate(tuples)}
    return tuples, [[index[t[k:] + t[:k]] for t in tuples] for k in range(p)]


def phi_formula(n: int) -> int:
    """Euler phi via the prime factorization, n * prod(1 - 1/p)."""
    if n <= 0:
        return 0
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def naive_phi_theorem_checks(bound: int, phi) -> list[tuple]:
    """phi_theorem_checks by its original two loops, over the function
    phi, as (name, ok, passing, total, witness) for each of its checks."""
    table = [phi(n) for n in range(bound + 1)]

    mult_total = mult_good = 0
    mult_witness = None
    for m in range(1, bound + 1):
        for n in range(m, bound // m + 1):
            if m * n > bound or gcd(m, n) != 1:
                continue
            mult_total += 1
            if table[m * n] == table[m] * table[n]:
                mult_good += 1
            elif mult_witness is None:
                mult_witness = [m, n]

    pp_total = pp_good = 0
    pp_witness = None
    for p in range(2, bound + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        q = p * p
        k = 0
        while q <= bound:
            pp_total += 1
            if table[q] == q - q // p:
                pp_good += 1
            elif pp_witness is None:
                pp_witness = [p, k + 1]
            q *= p
            k += 1
        # p itself: phi(p) == p - 1
        pp_total += 1
        if table[p] == p - 1:
            pp_good += 1
        elif pp_witness is None:
            pp_witness = [p, 0]

    return [
        ("phi_multiplicative", mult_good == mult_total, mult_good, mult_total, mult_witness),
        ("phi_prime_power", pp_good == pp_total, pp_good, pp_total, pp_witness),
    ]


def naive_identity_laws(rows: list[list[int]], unit: int, inv: list[int]) -> list[tuple]:
    """check_identities' nine laws by loops over the rows and the given
    inverses, as (name, ok, passing, total, witness): each law's instances
    in the row-major order of its grid, the witness the first failing
    instance's index."""
    r = range(len(rows))
    sorted_rows = [sorted(row) for row in rows]
    sorted_cols = [sorted(rows[x][y] for x in r) for y in r]
    laws = {
        "right_unit": {(x,): rows[x][unit] == x for x in r},
        "unit_self_inverse": {(0,): inv[unit] == unit},
        "right_inverse": {(x,): rows[x][inv[x]] == unit for x in r},
        "inverse_involution": {(x,): inv[inv[x]] == x for x in r},
        "inverse_of_product": {(b, a): inv[rows[b][a]] == rows[inv[a]][inv[b]]
                               for b in r for a in r},
        "left_cancellation": {(x, j): sorted_rows[x][j] == j for x in r for j in r},
        "right_cancellation": {(i, y): sorted_cols[y][i] == i for i in r for y in r},
        "solve_right_inverse": {(a, b): rows[rows[b][inv[a]]][a] == b for a in r for b in r},
        "solve_right_multiply": {(a, b): rows[rows[b][a]][inv[a]] == b for a in r for b in r},
    }
    out = []
    for name, grid in laws.items():
        fails = [i for i, ok in grid.items() if not ok]
        out.append((f"identity:{name}", not fails, len(grid) - len(fails), len(grid),
                    list(fails[0]) if fails else None))
    return out


def permutation_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))
