"""Cayley-table files: the one-pass reader against the token loop it
replaced, and the exit-code contract of `verify` on hostile files."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fingroups import GroupSpec, build
from fingroups import cli as cli_mod
from fingroups.cli import main, parse_cayley_file, resolve_group
from fingroups.errors import GroupTheoryError, ParseError
from fingroups.group import spec_order
from fingroups.suite import catalog_specs

BLANKS = " \t\r\v\f"
COMMENTS = ["#", "# note", "#caf\u00e9", "# \u03bb \u2260 \u03bc", "# a b", "# 1 2 3",
            "#\ufeff\u2028"]

# At most one fault is seeded into each rendered file.
TOKEN_FAULTS = ["x", "1a", "0_0", "+0", "\u0660", "\uff10", "0" * 5000, "7" * 5000]
HEADER_FAULTS = ["0", "1025", "2 2", "x", "+2", "\u0662", "0" * 5000]
FAULTS = ["token", "range", "extra_token", "missing_token", "missing_row", "extra_row",
          "line_separator", "split_row", "moved_token", "header"]


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cayley") / "table.cayley"


@st.composite
def cayley_files(draw):
    """(text, clean): a rendered table of order 1-12 with random blanks,
    line ends, blank and comment lines, maybe leading zeros and a
    byte-order mark, and at most one fault.  ``clean`` says the text has
    neither a fault nor a leading zero.  Hypothesis picks the shape; a
    seeded generator fills in entries, blanks and comments."""
    n = draw(st.integers(1, 12))
    zeros = draw(st.booleans())
    fault = draw(st.none() | st.sampled_from(FAULTS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def number(v: int) -> str:
        return "0" * (rng.randrange(3) if zeros else 0) + str(v)

    def blanks(least: int = 0) -> str:
        return "".join(rng.choices(BLANKS, k=rng.randint(least, 3)))

    cells = [[number(rng.randrange(n)) for _ in range(n)] for _ in range(n)]
    header = number(n)
    broken = None  # (row, k, gap): gap, not blanks, follows token k of the row
    if fault == "token":
        cells[i][j] = draw(st.sampled_from(TOKEN_FAULTS))
    elif fault == "range":
        cells[i][j] = str(n + draw(st.integers(0, 2000)))
    elif fault == "extra_token":
        cells[i].insert(j, number(rng.randrange(n)))
    elif fault == "missing_token":
        del cells[i][j]
    elif fault == "missing_row":
        del cells[i]
    elif fault == "extra_row":
        cells.insert(i, [number(rng.randrange(n)) for _ in range(n)])
    elif fault == "line_separator" and n == 1:
        cells[i][0] += "\u2028"
    elif fault in ("line_separator", "split_row") and n > 1:
        broken = (i, min(j, n - 2), "\u2028" if fault == "line_separator" else newline)
    elif fault == "moved_token":  # row i one entry short, the next one long
        cells[(i + 1) % n].insert(0, cells[i].pop())
    elif fault == "header":
        header = draw(st.sampled_from(HEADER_FAULTS))

    def filler() -> list[str]:
        # blank lines, blank runs and whole-line comments between rows
        return [blanks() + rng.choice(["", *COMMENTS]) for _ in range(rng.randrange(3))]

    def line(tokens: list[str], r: int) -> str:
        gaps = [blanks(1) for _ in tokens[1:]]
        if broken is not None and broken[0] == r:
            gaps[broken[1]] = broken[2]
        text = blanks() + "".join(map("".join, zip(tokens, gaps + [""]))) + blanks()
        return text + rng.choice(["", "", *COMMENTS])

    lines = filler() + [line([header], -1)]
    for r, tokens in enumerate(cells):
        lines += filler() + [line(tokens, r)]
    lines += filler()
    text = newline.join(lines) + rng.choice(["", newline])
    return "\ufeff" * bom + text, fault is None and not zeros


def outcome(parse, path):
    try:
        n, rows = parse(str(path))
    except ParseError as e:
        return "error", (e.line, e.col, e.detail)
    return "rows", (n, np.asarray(rows).tolist())


@given(cayley_files())
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_token_loop(table_file, case):
    text, clean = case
    table_file.write_bytes(text.encode())
    got = outcome(parse_cayley_file, table_file)
    assert got == outcome(oracles.naive_parse_cayley_file, table_file)
    if got[0] == "rows":
        n, table = parse_cayley_file(str(table_file))
        assert table.dtype == np.int64 and table.shape == (n, n)
    if clean:  # the one-pass reader takes it without the token loop
        assert cli_mod._parse_table(text.removeprefix("\ufeff")) is not None


def test_a_clean_s6_file_never_reaches_the_token_loop(tmp_path, monkeypatch):
    g = build(GroupSpec.symmetric(6))
    path = tmp_path / "s6.cayley"
    rows = "".join(" ".join(map(str, row)) + "\r\n" for row in g.mul.tolist())
    path.write_text(f"# the symmetric group S6\n720  # order\n{rows}", newline="")

    def token_loop(text):
        raise AssertionError("a clean file reached the token loop")

    monkeypatch.setattr(cli_mod, "_parse_tokens", token_loop)
    n, table = parse_cayley_file(str(path))
    assert n == 720 and table.dtype == np.int64 and np.array_equal(table, g.mul)


def test_a_valid_file_the_fast_path_declines_still_parses(tmp_path):
    # leading zeros make a token wider than n - 1; the token loop reads it
    path = tmp_path / "zeros.cayley"
    path.write_text("2\n00 1\n1 0000\n")
    assert cli_mod._parse_table(path.read_text()) is None
    n, table = parse_cayley_file(str(path))
    assert (n, table.tolist()) == (2, [[0, 1], [1, 0]]) and table.dtype == np.int64


def test_a_full_table_under_an_oversized_size_line_is_refused(tmp_path):
    # 1025 rows of 1025 entries would be a well-formed table but for its size
    path = tmp_path / "big.cayley"
    path.write_text("1025\n" + ("0 " * 1025 + "\n") * 1025)
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(str(path))
    assert (exc.value.line, exc.value.col) == (1, 1)
    assert "exceeds the maximum of 1024" in exc.value.detail


def test_a_rejected_file_keeps_no_table_alive_in_its_traceback(tmp_path):
    # a caller that keeps the error keeps every frame of its traceback
    g = build(GroupSpec.symmetric(4))
    rows = g.mul.tolist()
    rows[5][7] = rows[5][8]  # no longer a Latin square
    path = tmp_path / "bad.cayley"
    path.write_text("24\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    with pytest.raises(GroupTheoryError) as exc:
        resolve_group(str(path))
    tb, held = exc.value.__traceback__.tb_next, []  # the library's frames
    while tb is not None:
        held += [(tb.tb_frame.f_code.co_name, name)
                 for name, v in tb.tb_frame.f_locals.items()
                 if isinstance(v, (np.ndarray, list)) and np.size(v) >= 24 * 24]
        tb = tb.tb_next
    assert held == []


# -- verify on hostile files ---------------------------------------------


def run_verify(path) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, err.getvalue()


def render(g) -> bytes:
    rows = "".join(" ".join(map(str, row)) + "\n" for row in g.mul.tolist())
    return f"# a table\n{g.order}\n{rows}".encode()


SMALL_TABLES = [render(build(s)) for s in catalog_specs() if spec_order(s) <= 12]

table_bytes = st.lists(st.sampled_from(list(b"0123456789 \t\r\n#x\xef\xbb\xbf")),
                       max_size=200).map(bytes)


@given(st.binary(max_size=200) | table_bytes)
@settings(max_examples=150, deadline=None)
def test_verify_exits_0_or_2_on_random_bytes(table_file, data):
    table_file.write_bytes(data)
    code, err = run_verify(table_file)
    assert code in (0, 2) and "Traceback" not in err


@given(st.sampled_from(SMALL_TABLES), st.data())
@settings(max_examples=80, deadline=None)
def test_verify_exits_0_or_2_on_truncated_or_corrupted_tables(table_file, table, data):
    k = data.draw(st.integers(0, len(table) - 1))
    if data.draw(st.booleans()):
        table = table[:k]
    else:
        table = table[:k] + bytes([data.draw(st.integers(0, 255))]) + table[k + 1:]
    table_file.write_bytes(table)
    code, err = run_verify(table_file)
    assert code in (0, 2) and "Traceback" not in err
