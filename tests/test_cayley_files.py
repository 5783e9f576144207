"""Cayley-table files: the block reader against the token loop it
replaced, in blocks of the default size and of a few bytes, and the
exit-code contract of `verify` on hostile files."""

import io
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fingroups import GroupSpec, build
from fingroups import cli as cli_mod
from fingroups.cli import main, parse_cayley_file, resolve_group
from fingroups.errors import GroupTheoryError, ParseError
from fingroups.suite import catalog_specs

BLANKS = " \t\r\v\f"
COMMENTS = ["#", "# note", "#caf\u00e9", "# \u03bb \u2260 \u03bc", "# a b", "# 1 2 3",
            "#\ufeff\u2028"]

# At most one fault is seeded into each rendered file.
TOKEN_FAULTS = ["x", "1a", "0_0", "+0", "\u0660", "\uff10", "0" * 5000, "7" * 5000, ":",
                "0\x1c1"]
HEADER_FAULTS = ["0", "1025", "2 2", "x", "+2", "\u0662", "0" * 5000]
FAULTS = ["token", "range", "extra_token", "missing_token", "missing_row", "extra_row",
          "line_separator", "split_row", "moved_token", "header"]


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cayley") / "table.cayley"


@st.composite
def cayley_files(draw):
    """A rendered table of order 1-12 with random blanks, line ends, blank
    and comment lines, maybe leading zeros and a byte-order mark, and at
    most one fault.  Hypothesis picks the shape; a seeded generator fills
    in entries, blanks and comments."""
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
    return "\ufeff" * bom + text


def outcome(parse, path):
    try:
        n, rows = parse(str(path))
    except ParseError as e:
        return "error", (e.line, e.col, e.detail)
    return "rows", (n, np.asarray(rows).tolist())


@given(cayley_files())
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_token_loop(table_file, text):
    table_file.write_bytes(text.encode())
    got = outcome(parse_cayley_file, table_file)
    assert got == outcome(oracles.naive_parse_cayley_file, table_file)
    if got[0] == "rows":
        n, table = parse_cayley_file(str(table_file))
        assert table.dtype == np.int64 and table.shape == (n, n)


def cyclic_file(n: int, cell: tuple[int, int], entry: str, pad: str = "") -> str:
    """The table of C_n, each entry after pad, with one cell's entry replaced."""
    rows = [[f"{pad}{(r + c) % n}" for c in range(n)] for r in range(n)]
    rows[cell[0]][cell[1]] = entry
    return f"{n}\n" + "".join(" ".join(row) + "\n" for row in rows)


# Hard cases for a reader that finds tokens, rows and values in bulk: each
# is pinned against the token loop, with the outcome kind it must have.
HARD_CASES = {
    # n = 9 has one digit, so every entry with a leading zero is wide
    "padded_table": ("rows", cyclic_file(9, (4, 6), "01", pad="0")),
    "padded_table_with_a_wide_entry_out_of_range": ("error", cyclic_file(9, (4, 6), "10", pad="0")),
    "4300_zeros_are_one_entry": ("rows", "1\n" + "0" * 4300 + "\n"),
    "4301_zeros_pass_the_int_digit_limit": ("error", "1\n" + "0" * 4301 + "\n"),
    "non_ascii_entry_in_a_row_after_a_short_row":
        ("error", "3\n0 1 2\n1 2\n2 \u03bb 1\n"),
    "non_ascii_entry_before_a_bad_one_on_its_line":
        ("error", "3\n0 1 2\n1 \u03bb\u03bc x\n2 0 1\n"),
    "too_few_rows_then_a_comment_without_a_line_feed":
        ("error", "3\n0 1 2\n1 2 0\n# no third row"),
    # ":" is the byte 10 past "0", a value a digit sum could take for an
    # entry of C20; a non-ASCII entry must fail whatever its bytes sum to
    "colon_that_a_digit_sum_would_read_as_10": ("error", cyclic_file(20, (7, 3), "0:")),
    "non_ascii_entry_that_a_digit_sum_would_read_as_15":
        ("error", cyclic_file(20, (7, 3), "\u00e9")),
    "ascii_control_byte_separates_nothing": ("error", cyclic_file(2, (1, 0), "1\x1c0")),
    # the reported entry is the 7th character of its line but its 8th byte
    "miscounted_row_reported_after_a_multi_byte_character":
        ("error", "3\n0 1 2\n1 \u00e9 2 0\n2 0 1\n"),
}


@pytest.mark.parametrize("kind, text", HARD_CASES.values(), ids=HARD_CASES.keys())
def test_hard_cases_match_the_token_loop(table_file, kind, text):
    table_file.write_bytes(text.encode())
    got = outcome(parse_cayley_file, table_file)
    assert got[0] == kind
    assert got == outcome(oracles.naive_parse_cayley_file, table_file)


def outcome_in_blocks(path, block: int):
    """The reader's outcome with blocks of whole lines of `block` bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_mod, "READ_BLOCK_BYTES", block)
        return outcome(parse_cayley_file, path)


@given(cayley_files(), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_parse_in_blocks_of_a_few_bytes_matches_the_token_loop(table_file, text, block):
    # nearly every line is a block of its own, most rows are longer than a
    # block, and every fault but one on the size line lies in a later block
    table_file.write_bytes(text.encode())
    assert outcome_in_blocks(table_file, block) == outcome(oracles.naive_parse_cayley_file,
                                                           table_file)


def late_edit(*edits, newline: str = "\n", end: str = "\n") -> str:
    """The table of C12 with each edit applied to its list of lines (the
    size line first), joined by newline and ended by end: the first block
    of a few bytes holds only ASCII digits, blanks and line feeds."""
    lines = cyclic_file(12, (0, 0), "0").splitlines()
    for edit in edits:
        edit(lines)
    return newline.join(lines) + end


def change_line(i: int, change):
    def edit(lines):
        lines[i] = change(lines[i])
    return edit


def replace_token(i: int, k: int, tok: str):
    def edit(lines):
        toks = lines[i].split(" ")
        toks[k] = tok
        lines[i] = " ".join(toks)
    return edit


def drop_last_entry(line: str) -> str:
    return line.rsplit(" ", 1)[0]


# What a reader in blocks must carry across them, each past the first block.
LATE_CASES = {
    "clean": ("rows", late_edit()),
    "crlf_line_ends": ("rows", late_edit(newline="\r\n", end="\r\n")),
    "no_trailing_line_feed": ("rows", late_edit(end="")),
    "comment_after_a_row": ("rows", late_edit(change_line(9, lambda line: line + "  # \u03bb"))),
    "comment_line_with_a_byte_order_mark": ("rows", late_edit(
        lambda lines: lines.insert(9, "#\ufeff late"))),
    "comment_line_as_the_last_line": ("rows", late_edit(lambda lines: lines.append("# end"),
                                                        end="")),
    "non_ascii_entry": ("error", late_edit(replace_token(9, 3, "\u00e9"))),
    "non_ascii_blank": ("error", late_edit(replace_token(9, 3, "3\u00a04"))),
    "byte_order_mark_before_a_row": ("error", late_edit(
        change_line(9, lambda line: "\ufeff" + line))),
    "entry_out_of_range": ("error", late_edit(replace_token(11, 5, "12"))),
    "wide_entry_out_of_range": ("error", late_edit(replace_token(11, 5, "0013"))),
    "wide_entry_in_range": ("rows", late_edit(replace_token(11, 5, "000004"))),
    "short_row": ("error", late_edit(change_line(10, drop_last_entry))),
    "short_row_after_a_bad_entry": ("error", late_edit(
        replace_token(8, 2, "x"), change_line(10, drop_last_entry))),
    "bad_entry_in_a_short_row": ("error", late_edit(
        change_line(10, drop_last_entry), replace_token(10, 1, "x"))),
    "missing_row_after_a_bad_entry": ("error", late_edit(
        replace_token(4, 2, "99"), lambda lines: lines.pop(12))),
    "extra_row_after_a_short_row": ("error", late_edit(
        change_line(3, drop_last_entry), lambda lines: lines.append("0"))),
    "extra_row_without_a_trailing_line_feed": ("error", late_edit(
        lambda lines: lines.append("0 1"), end="")),
    "missing_row_before_a_last_comment_line": ("error", late_edit(
        lambda lines: lines.pop(12), lambda lines: lines.append("# end"), end="")),
}


@pytest.mark.parametrize("block", [1, 5, 40, 2**18], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("kind, text", LATE_CASES.values(), ids=LATE_CASES.keys())
def test_late_content_in_blocks_matches_the_token_loop(table_file, kind, text, block):
    table_file.write_bytes(text.encode())
    got = outcome_in_blocks(table_file, block)
    assert got[0] == kind
    assert got == outcome(oracles.naive_parse_cayley_file, table_file)


def test_a_clean_s6_file_parses_to_its_table(tmp_path):
    g = build(GroupSpec.symmetric(6))
    path = tmp_path / "s6.cayley"
    rows = "".join(" ".join(map(str, row)) + "\r\n" for row in g.mul.tolist())
    path.write_text(f"# the symmetric group S6\n720  # order\n{rows}", newline="")
    n, table = parse_cayley_file(str(path))
    assert n == 720 and table.dtype == np.int64 and np.array_equal(table, g.mul)


def test_a_parse_holds_the_table_and_one_file_sized_buffer(tmp_path):
    # the reader tokenises the file's bytes as read, so beside the table it
    # holds one file-sized buffer and a block's token arrays
    g = build(GroupSpec.symmetric(6))
    path = tmp_path / "s6.cayley"
    path.write_text("720\n" + "".join(" ".join(map(str, row)) + "\n" for row in g.mul.tolist()))
    parse_cayley_file(str(path))  # warm up numpy's and the reader's one-time allocations
    tracemalloc.start()
    try:
        n, table = parse_cayley_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 720 and np.array_equal(table, g.mul)
    # the margin covers one block's token arrays, about 1 MiB at 256 KiB blocks
    assert peak < table.nbytes + 2 * path.stat().st_size + 2 * 2**20, peak


def test_a_file_with_leading_zeros_parses(tmp_path):
    # leading zeros make a token wider than n - 1 has digits
    path = tmp_path / "zeros.cayley"
    path.write_text("2\n00 1\n1 0000\n")
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
    # a caller that keeps the error keeps every frame of its traceback, so
    # none may hold the table or the file's text, whichever check refused it
    good = build(GroupSpec.symmetric(4)).mul.tolist()

    def text(rows) -> bytes:
        return ("24\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)).encode()

    latin, last, short = ([row[:] for row in good] for _ in range(3))
    latin[5][7] = latin[5][8]  # no longer a Latin square
    last[23][5] = 24  # out of range, on the last row
    short[3].pop()  # a miscounted row
    files = {"latin": text(latin), "range": text(last), "after": text(good) + b"0\n",
             "count": text(short), "bytes": b"1\n0\n" + b" " * cli_mod.MAX_FILE_BYTES}

    def large(v) -> bool:
        if isinstance(v, (bytes, str)):
            return len(v) >= 24 * 24
        return isinstance(v, (np.ndarray, list)) and np.size(v) >= 24 * 24

    held = []
    for name, data in files.items():
        path = tmp_path / f"{name}.cayley"
        path.write_bytes(data)
        with pytest.raises(GroupTheoryError) as exc:
            resolve_group(str(path))
        assert isinstance(exc.value, ParseError) == (name != "latin"), name
        tb = exc.value.__traceback__.tb_next  # the library's frames
        while tb is not None:
            held += [(name, tb.tb_frame.f_code.co_name, local)
                     for local, v in tb.tb_frame.f_locals.items() if large(v)]
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


SMALL_TABLES = [render(g) for g in map(build, catalog_specs()) if g.order <= 12]

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
