import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from fingroups import Carrier, Check, GroupSpec, Report, build, closure, set_of, subgroup_sample
from fingroups import action as action_mod
from fingroups import cli as cli_mod
from fingroups import conjnormal as conjnormal_mod
from fingroups import suite as suite_mod
from fingroups.cli import (
    build_parser,
    main,
    parse_cayley_file,
    parse_group_ref,
    resolve_group,
)
from fingroups.errors import (
    GroupTheoryError,
    InternalInvariant,
    InvalidSubgroup,
    ParseError,
    UnsupportedSpec,
)
from fingroups.report import tally, tally_blocks
from fingroups.suite import catalog_specs, verify_group
from fingroups.sylow import TUPLE_CAP_ENV


# -- Cayley file parsing -------------------------------------------------


def write(tmp_path, text, name="table.cayley"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_trivial_file(tmp_path):
    n, rows = parse_cayley_file(write(tmp_path, "1\n0\n"))
    assert n == 1 and rows.tolist() == [[0]]


def test_parse_z3_file(tmp_path):
    path = write(tmp_path, "3\n0 1 2\n1 2 0\n2 0 1\n")
    n, rows = parse_cayley_file(path)
    label, g = resolve_group(path)
    assert n == 3 and label == path
    assert g.order == 3 and g.unit == 0


def test_parse_allows_comments_and_blanks(tmp_path):
    text = "# a comment\n\n2\n0 1\n# interior comment\n1 0\n\n"
    n, rows = parse_cayley_file(write(tmp_path, text))
    assert n == 2 and rows.tolist() == [[0, 1], [1, 0]]


def test_parse_out_of_range_entry(tmp_path):
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(write(tmp_path, "2\n0 1\n1 2\n"))
    assert (exc.value.line, exc.value.col) == (3, 3)
    assert "range" in exc.value.detail


def test_parse_non_integer(tmp_path):
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(write(tmp_path, "2\n0 x\n1 0\n"))
    assert exc.value.line == 2


def test_parse_wrong_row_length(tmp_path):
    with pytest.raises(ParseError):
        parse_cayley_file(write(tmp_path, "2\n0 1 1\n1 0\n"))


def test_parse_missing_rows(tmp_path):
    with pytest.raises(ParseError):
        parse_cayley_file(write(tmp_path, "3\n0 1 2\n"))


def test_parse_trailing_rows(tmp_path):
    with pytest.raises(ParseError):
        parse_cayley_file(write(tmp_path, "1\n0\n0\n"))


def test_parse_bad_header(tmp_path):
    with pytest.raises(ParseError):
        parse_cayley_file(write(tmp_path, "one\n0\n"))


def test_parse_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.cayley"
    path.write_bytes(b"1\n0 # caf\xe9\n")
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(str(path))
    assert (exc.value.line, exc.value.col) == (2, 8)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "UTF-8" in err


def test_parse_non_utf8_byte_after_a_multi_byte_character(tmp_path):
    # an encoding fault is placed by its byte column: the \xff is the 8th
    # byte of its line, after the two bytes of an e-acute
    path = tmp_path / "after_e_acute.cayley"
    path.write_bytes(b"1\n0 # \xc3\xa9 \xff\n")
    for parse in (parse_cayley_file, oracles.naive_parse_cayley_file):
        with pytest.raises(ParseError) as exc:
            parse(str(path))
        assert (exc.value.line, exc.value.col) == (2, 8), parse
        assert "UTF-8" in exc.value.detail


def test_parse_utf8_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.cayley"
    path.write_bytes(b"\xef\xbb\xbf2\n0 1\n1 0\n")
    n, rows = parse_cayley_file(str(path))
    assert (n, rows.tolist()) == (2, [[0, 1], [1, 0]])
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("entry", ["0_0", "\u0660", "+0", "\uff10"])
def test_parse_accepts_only_ascii_digits(tmp_path, capsys, entry):
    # int() would read each of these as 0
    path = write(tmp_path, f"2\n0 1\n1 {entry}\n")
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(path)
    assert (exc.value.line, exc.value.col) == (3, 3)
    assert "expected an integer" in exc.value.detail
    assert run_cli(capsys, "verify", path)[0] == 2


@pytest.mark.parametrize("text,where", [
    ("9" * 5000 + "\n", (1, 1)),                  # size line
    ("2\n0 1\n1 " + "0" * 5000 + "\n", (3, 3)),  # table entry
])
def test_parse_refuses_numbers_past_the_int_digit_limit(tmp_path, capsys, text, where):
    # int() raises ValueError on a decimal string of more than 4,300 digits
    path = write(tmp_path, text)
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(path)
    assert (exc.value.line, exc.value.col) == where
    assert run_cli(capsys, "verify", path)[0] == 2


def test_parse_breaks_lines_at_newline_only(tmp_path, capsys):
    # str.splitlines would split this row at U+2028 and accept Z2
    path = tmp_path / "ls.cayley"
    path.write_bytes("2\n0 1\u20281 0\n".encode())
    with pytest.raises(ParseError):
        parse_cayley_file(str(path))
    assert run_cli(capsys, "verify", str(path))[0] == 2


@pytest.mark.parametrize("text", [
    "# a\x85b\n2\n0 1\n1 x\n",  # U+0085 in a comment
    "# a\fb\n2\n0 1\n1 x\n",     # form feed in a comment
    "2\f\n0\f1\n\f\n1 x\n",      # form feed as a blank
    "2\n0\r1\n\r\n1 x\n",         # a lone carriage return as a blank
], ids=["nel-in-comment", "ff-in-comment", "ff-as-blank", "cr-as-blank"])
def test_parse_line_numbers_count_newlines_only(tmp_path, text):
    path = tmp_path / "t.cayley"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(str(path))
    assert (exc.value.line, exc.value.col) == (4, 3)


def test_parse_accepts_crlf_files(tmp_path, capsys):
    path = tmp_path / "crlf.cayley"
    path.write_bytes(b"2\r\n0 1\r\n# note\r\n1 0\r\n")
    n, rows = parse_cayley_file(str(path))
    assert (n, rows.tolist()) == (2, [[0, 1], [1, 0]])
    assert run_cli(capsys, "verify", str(path))[0] == 0


def test_parse_refuses_an_oversized_header_before_any_row(tmp_path, capsys):
    path = write(tmp_path, "# big\n  1025\n")
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(path)
    assert (exc.value.line, exc.value.col) == (2, 3)
    assert "exceeds the maximum of 1024" in exc.value.detail
    assert run_cli(capsys, "verify", path)[0] == 2


def test_non_utf8_column_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "bom-latin1.cayley"
    path.write_bytes(b"\xef\xbb\xbf1 \xe9\n0\n")  # the bad byte is the 6th
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(str(path))
    assert (exc.value.line, exc.value.col) == (1, 6)


def test_a_file_past_the_byte_bound_is_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli_mod, "MAX_FILE_BYTES", 16)
    table = "2\n0 1\n1 0\n"  # 10 bytes
    n, rows = parse_cayley_file(write(tmp_path, table + "\n" * 6))
    assert (n, rows.tolist()) == (2, [[0, 1], [1, 0]])
    path = write(tmp_path, table + "\n" * 6 + "# x")
    with pytest.raises(ParseError) as exc:
        parse_cayley_file(path)
    assert (exc.value.line, exc.value.col) == (10, 1)  # the 17th byte
    assert exc.value.detail == "file exceeds the maximum of 16 bytes"
    assert run_cli(capsys, "verify", path)[0] == 2


def test_the_byte_bound_admits_a_zero_padded_table_of_the_maximum_order(tmp_path):
    n = 1024
    t = (np.arange(n)[:, None] + np.arange(n)) % n
    lines = [f"{n:04d}"] + [" ".join(f"{v:04d}" for v in row) for row in t.tolist()]
    path = tmp_path / "c1024.cayley"
    path.write_text("\r\n".join(lines) + "\r\n")
    assert path.stat().st_size <= cli_mod.MAX_FILE_BYTES
    k, rows = parse_cayley_file(str(path))
    assert k == n and np.array_equal(rows, t)


def test_a_sparse_file_past_the_byte_bound_exits_2_under_a_memory_limit(tmp_path):
    """Only MAX_FILE_BYTES + 1 bytes of a file are read, so a 16 GiB file
    (sparse: it takes no disk) is refused, not read whole into memory; the
    address-space limit turns a whole read into a failure."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    path = tmp_path / "sparse.cayley"
    with open(path, "wb") as fh:
        fh.write(b"2\n0 1\n1 0\n")
        fh.truncate(16 * 2**30)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "fingroups.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"exceeds the maximum of {cli_mod.MAX_FILE_BYTES} bytes" in proc.stderr


# -- group references ----------------------------------------------------


def test_grammar_forms():
    assert parse_group_ref("cyclic:6") == GroupSpec.cyclic(6)
    assert parse_group_ref("z6") == GroupSpec.cyclic(6)
    assert parse_group_ref("d4") == GroupSpec.dihedral(4)
    assert parse_group_ref("s5") == GroupSpec.symmetric(5)
    assert parse_group_ref("q8") == GroupSpec.q8()
    assert parse_group_ref("product:(z2,s3)") == GroupSpec.product(
        GroupSpec.cyclic(2), GroupSpec.symmetric(3)
    )


def test_grammar_nests():
    spec = parse_group_ref("product:(z2,product:(z2,z2))")
    assert spec.describe() == "product:(cyclic:2,product:(cyclic:2,cyclic:2))"


def test_grammar_rejects_junk():
    for bad in ("cyclic", "cyclic:", "z", "product:(z2)", "sym:3", ""):
        with pytest.raises(ValueError):
            parse_group_ref(bad)


@pytest.mark.parametrize("ref", ["z\u0663", "cyclic:\u0663", "s\uff13"])
def test_grammar_accepts_only_ascii_digits(capsys, ref):
    with pytest.raises(ValueError):
        parse_group_ref(ref)
    assert run_cli(capsys, "verify", ref)[0] == 2


def nested_product(levels):
    ref = "z1"
    for _ in range(levels):
        ref = f"product:({ref},z1)"
    return ref


def test_product_nesting_is_bounded(capsys):
    code, out, err = run_cli(capsys, "verify", nested_product(32))
    assert code == 0 and err == ""
    for levels in (33, 1200):
        code, out, err = run_cli(capsys, "verify", nested_product(levels))
        assert code == 2 and out == ""
        assert "nest at most 32 levels" in err


def balanced_product(leaves, leaf):
    if leaves == 1:
        return leaf
    half = leaves // 2
    return f"product:({balanced_product(half, leaf)},{balanced_product(leaves - half, leaf)})"


def test_an_order_past_the_int_digit_limit_is_refused(capsys):
    # 1,600 factors of z1000, 11 levels deep: an order of 4,800 digits
    code, out, err = run_cli(capsys, "verify", balanced_product(1600, "z1000"))
    assert code == 2 and out == ""
    assert "group order 2^15945 or more exceeds the maximum of 1024" in err


@pytest.mark.parametrize("ref", [
    "z" + "9" * 4301,
    "product:(z2,dihedral:" + "1" * 4301 + ")",
    "product:(s" + "0" * 5000 + "7" * 4301 + ",q8)",
], ids=["shorthand", "inside-a-product", "after-leading-zeros"])
def test_a_grammar_number_past_the_int_digit_limit_is_too_large(capsys, ref):
    # int() refuses more than 4,300 significant digits; such a parameter
    # is grammar for an order of at least as many digits, not a file name
    with pytest.raises(UnsupportedSpec):
        parse_group_ref(ref)
    code, out, err = run_cli(capsys, "verify", ref)
    assert code == 2 and out == ""
    assert "group order of 4301 digits or more exceeds the maximum of 1024" in err
    assert "1111111111" not in err and "7777777777" not in err and "9999999999" not in err


def test_leading_zeros_do_not_count_toward_the_digit_limit():
    assert parse_group_ref("z" + "0" * 5000 + "5").describe() == "cyclic:5"


def test_resolve_prefers_grammar_then_file(tmp_path):
    label, g = resolve_group("z4")
    assert g.order == 4
    path = write(tmp_path, "3\n0 1 2\n1 2 0\n2 0 1\n")
    label, g = resolve_group(path)
    assert g.order == 3 and label == path
    with pytest.raises(GroupTheoryError):
        resolve_group("no-such-thing")


def test_resolve_does_not_hide_build_errors(monkeypatch):
    def broken(spec):
        raise ValueError("raised inside build")

    monkeypatch.setattr(cli_mod, "build", broken)
    with pytest.raises(ValueError, match="raised inside build"):
        resolve_group("z4")


def test_oversized_grammar_group_exits_2_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "fingroups.cli", "verify", "cyclic:99999999999999999999"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "order 99999999999999999999 exceeds" in proc.stderr
    assert "neither catalog grammar" not in proc.stderr


def test_every_catalog_ref_resolves():
    for spec in catalog_specs():
        label, g = resolve_group(spec.describe())
        assert g.order >= 1


# -- reports -------------------------------------------------------------


def test_report_json_is_sorted_and_stable():
    rep = Report(group="z2", order=2)
    rep.checks.append(Check("alpha", True, 1, 1))
    rep.checks.append(Check("beta", False, 0, 1, witness={"x": 3}))
    d = json.loads(rep.to_json())
    assert list(d) == sorted(d)
    assert d["checks"][1]["status"] == "fail"
    assert not rep.ok


def test_report_timing_stripped():
    rep = Report(group="z2", order=2)
    c = Check("alpha", True, 1, 1)
    c.ms = 12.5
    rep.checks.append(c)
    with_t = rep.to_dict(with_timing=True)
    without = rep.to_dict(with_timing=False)
    assert "ms" in with_t["checks"][0]
    assert "ms" not in without["checks"][0]


def test_render_text_marks_failures():
    rep = Report(group="z2", order=2)
    rep.checks.append(Check("good", True, 1, 1))
    rep.checks.append(Check("bad", False, 0, 1))
    text = rep.render_text()
    assert "pass" in text and "FAIL" in text


def test_tally_counts_and_names_the_first_row_major_failure():
    ok = np.ones((3, 4), dtype=bool)
    ok[2, 0] = ok[1, 3] = False
    assert tally("t", ok, lambda i, j: [i, j]) == Check("t", False, 10, 12, [1, 3])
    assert tally("t", ok.T, lambda i, j: [i, j]) == Check("t", False, 10, 12, [0, 2])
    assert tally("t", ok) == Check("t", False, 10, 12)
    assert tally("t", ok[0], lambda z: z) == Check("t", True, 4, 4)
    assert tally("t", np.ones(0, dtype=bool), lambda z: z) == Check("t", True, 0, 0)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_tally_blocks_in_rows_or_columns_names_the_whole_grids_first_failure(width):
    # in column boxes a later box can hold a failure on an earlier row
    rng = np.random.default_rng(width)
    for _ in range(20):
        ok = rng.random((5, 7)) > 0.1
        want = tally("t", ok, lambda i, j: [i, j])
        rows = [((i, 0), ok[i:i + width]) for i in range(0, 5, width)]
        cols = [((0, j), ok[:, j:j + width]) for j in range(0, 7, width)]
        assert tally_blocks("t", rows, lambda i, j: [i, j]) == want
        assert tally_blocks("t", cols, lambda i, j: [i, j]) == want
        assert tally_blocks("t", cols) == tally("t", ok)


def test_aggregate_names_the_first_failure_of_a_later_block():
    c = Carrier(6)
    first = [set_of(c, [0]), set_of(c, [1])]
    later = [set_of(c, [0, 2]), set_of(c, [0, 3]), set_of(c, [0, 4])]
    # subgroups of 4 and 3 points, laid end to end; the later ones fail at
    # their (1, 2) and (2, 0)
    ok = np.ones((3, 3), dtype=bool)
    ok[1, 2] = ok[2, 0] = False
    got = suite_mod._aggregate("a", first + later, np.append(np.ones(8, dtype=bool), ok),
                               np.array([4, 4, 3, 3, 3]))
    assert got == Check("a", False, 15, 17, {"subgroup": [0, 3], "point": 2})
    # one verdict per subgroup: the witness is the subgroup alone
    got = suite_mod._aggregate("a", first + later, np.array([True, True, True, False, False]))
    assert got == Check("a", False, 3, 5, {"subgroup": [0, 3]})
    assert suite_mod._aggregate("a", [], np.ones(0, dtype=bool)) == Check("a", True, 0, 0)


def test_verify_group_all_pass(q8):
    rep = verify_group(q8, "q8")
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert "latin_square" in names
    assert "table_roundtrip" in names
    assert any(n.startswith("lagrange") for n in names)
    assert any(n.startswith("cauchy_order") for n in names)
    assert {c["kind"] for c in rep.certificates} == {"cauchy", "sylow"}


def test_an_injected_failure_names_the_first_failing_witness(monkeypatch, s4):
    # an index off by one for the trivial stabilizer under a 4-group and
    # for the 4-stabilizers under the whole group; Lagrange and the
    # congruence made to fail for every subgroup of order 4.  The sample's
    # counts come from the batch, the conjugation action's from left_index.
    real_left_index = action_mod.left_index
    monkeypatch.setattr(action_mod, "left_index", lambda g, h, k: real_left_index(g, h, k) + (
        (h.card, k.card) in ((1, 4), (4, 24))))

    real_batch = suite_mod.translation_batch

    def batch_failing_at_order_4(g, hs):
        # only the order-4 subgroups' entries of a batch of any orders
        b = real_batch(g, hs)
        four = np.array([h.card == 4 for h in hs])
        b.index = b.index + four
        b.stab_index = b.stab_index + (np.repeat(four, b.points) & (b.stab_order == 1))
        b.fixed = b.fixed + four
        return b

    monkeypatch.setattr(suite_mod, "translation_batch", batch_failing_at_order_4)
    rep = verify_group(s4, "s4")
    failed = {c.name: (c.lhs, c.rhs, c.witness) for c in rep.checks if not c.ok}
    v4 = {"subgroup": [0, 1, 6, 7]}
    assert failed == {
        "lagrange": (23, 30, v4),
        "orbit_stabilizer:conjugation": (12, 24, {"point": 1}),
        "orbit_stabilizer:translation": (210, 234, {**v4, "point": 1}),
        "mod_p_fixed_points:translation": (16, 23, v4),
    }
    assert "witness={'subgroup': [0, 1, 6, 7], 'point': 1}" in rep.render_text()


def test_a_non_subgroup_in_the_sample_raises_invalid_subgroup(monkeypatch, s4):
    sample = subgroup_sample(s4)
    three = next(x for x in s4.elements() if closure(s4, [x]).card == 3)
    i = next(i for i, h in enumerate(sample) if h.card == 2)
    bad = set_of(s4.carrier, [s4.unit, three])
    monkeypatch.setattr(suite_mod, "subgroup_sample", lambda g: sample[:i] + [bad] + sample[i + 1:])
    with pytest.raises(InvalidSubgroup, match="h must be a subgroup"):
        verify_group(s4, "s4")


def corrupted_s4():
    """S4 with one entry of its cached transposed table overwritten: row
    20, column 15 set to 12 (seed 0 of rng.integers)."""
    g = build(GroupSpec.symmetric(4))
    cols = g.columns().copy()
    cols[20, 15] = 12
    g._columns = cols
    return g


def test_a_corrupted_column_cache_fails_verify(monkeypatch, capsys):
    # only the sample's batch reads the cached columns; the corruption
    # breaks the translation action of a subgroup of order 3
    with pytest.raises(InternalInvariant, match=r"for the subgroup \[0, 15, 20\]"):
        verify_group(corrupted_s4(), "s4")
    monkeypatch.setattr(cli_mod, "build", lambda spec: corrupted_s4())
    code, out, err = run_cli(capsys, "verify", "s4")
    assert code == 1 and out == ""
    assert err.startswith("theorem check failed: ")


# -- the command line ----------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "cyclic:12")
    assert code == 0
    assert "pass" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "q8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"group", "order", "checks", "certificates"}
    assert doc["group"] == "q8" and doc["order"] == 8
    for c in doc["checks"]:
        assert {"name", "status", "lhs", "rhs", "witness", "ms"} <= set(c)
        assert c["status"] == "pass"


def test_verify_rejects_nonassociative_table(tmp_path, capsys):
    path = write(tmp_path, "3\n0 1 2\n1 0 0\n2 0 1\n")
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "(1*1)*2" in err


def test_verify_rejects_no_identity(tmp_path, capsys):
    path = write(tmp_path, "2\n0 0\n1 1\n")
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "identity" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "missing.cayley")
    assert code == 2


def test_sylow_s4_text(capsys):
    code, out, _ = run_cli(capsys, "sylow", "s4", "-p", "2")
    assert code == 0
    assert "3 ≡ 1 (mod 2)" in out
    assert "3 | 24" in out


def test_sylow_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "sylow", "s4", "-p", "3", "--json", "--oracle")
    assert code == 0
    doc = json.loads(out)
    byname = {c["name"]: c for c in doc["checks"]}
    assert byname["oracle_family_agreement"]["status"] == "pass"
    assert byname["oracle_family_agreement"]["lhs"] == 4


def test_cauchy_z6(capsys):
    code, out, _ = run_cli(capsys, "cauchy", "cyclic:6", "-p", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    cert = doc["certificates"][0]
    assert cert["kind"] == "cauchy"
    assert cert["elements"] == [2]


def test_cauchy_invalid_prime(capsys):
    code, _, err = run_cli(capsys, "cauchy", "z6", "-p", "4")
    assert code == 2


@pytest.mark.parametrize("cmd", ["cauchy", "sylow"])
def test_huge_prime_exits_2_at_once(cmd):
    proc = subprocess.run(
        [sys.executable, "-m", "fingroups.cli", cmd, "z6", "-p", str(2**61 - 1)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "does not divide" in proc.stderr


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "1000001",
                                 pytest.param("1" + "0" * 4300, id="past-the-int-digit-limit")])
def test_bad_tuple_cap_is_input_error(capsys, monkeypatch, cap):
    monkeypatch.setenv(TUPLE_CAP_ENV, cap)
    code, out, err = run_cli(capsys, "cauchy", "z6", "-p", "3")
    assert code == 2 and out == ""
    assert f"{TUPLE_CAP_ENV} must be a positive integer" in err
    assert len(err) < 200  # a long value is quoted by its first 40 characters and its length
    if len(cap) > 40:
        assert "'1" + "0" * 39 + "'... (4301 characters)" in err


@pytest.mark.parametrize("argv", [["verify", "x" * 5000],
                                  ["orbits", "z12", "--action", "translation", "--gens", "x" * 5000]],
                         ids=["reference", "generator-list"])
def test_refusals_quote_at_most_40_characters(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "'" + "x" * 40 + "'... (5000 characters)" in err and len(err) < 200


@pytest.mark.parametrize("ref, message", [
    ("product:(" + "z2" * 2495 + ")", "product needs two comma-separated refs: 'product:(z2z2"),
    ("product:(z2," + "x" * 4988 + ")", "not catalog grammar: 'xxxx"),
], ids=["no-comma", "not-grammar-inside"])
def test_grammar_refusals_quote_at_most_40_characters(ref, message):
    with pytest.raises(ValueError, match=re.escape(message)) as e:
        parse_group_ref(ref)
    assert str(e.value).endswith("characters)") and len(str(e.value)) < 200


def test_orbits_conjugation(capsys):
    code, out, _ = run_cli(capsys, "orbits", "s3", "--json")
    assert code == 0
    doc = json.loads(out)
    parts = doc["checks"][0]["witness"]["orbits"]
    assert sorted(map(sorted, parts)) == [[0], [1, 2, 5], [3, 4]]


def test_orbits_check_times_building_the_action(capsys, monkeypatch):
    # a fake clock that moves only while the group is resolved (7 s, before
    # the command's clock starts) and while the action is built (5 s)
    now = [0.0]

    def slow(fn, secs):
        def run(*args):
            now[0] += secs
            return fn(*args)
        return run

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(cli_mod, "resolve_group", slow(cli_mod.resolve_group, 7.0))
    monkeypatch.setattr(cli_mod, "conjugation_action", slow(cli_mod.conjugation_action, 5.0))
    code, out, _ = run_cli(capsys, "orbits", "s3", "--json")
    assert code == 0
    assert [c["ms"] for c in json.loads(out)["checks"]] == [5000.0]


def test_orbits_translation(capsys):
    code, out, _ = run_cli(capsys, "orbits", "z12", "--action", "translation",
                           "--gens", "4", "--acting-gens", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    parts = doc["checks"][0]["witness"]["orbits"]
    assert all(len(p) in (1, 2) for p in parts)


@pytest.mark.parametrize("argv", [
    ["s4"], ["d6"], ["product:(q8,z2)"], ["s4", "--acting-gens", "7,16"],
    ["s4", "--action", "translation", "--gens", "1"],
    ["d6", "--action", "translation", "--gens", "6", "--acting-gens", "1"],
    ["s4", "--action", "subsets", "--gens", "1", "--acting-gens", "3"],
], ids=lambda argv: "-".join(argv))
def test_orbits_match_the_orbit_of_each_point(capsys, argv):
    """The partition the command reads off the table's columns, against
    one orbit() per point not yet covered, in ascending order."""
    acts = []

    def counts(act):
        acts.append(act)
        return action_mod.orbit_stabilizer_counts(act)

    with patch.object(cli_mod, "orbit_stabilizer_counts", counts):
        code, out, _ = run_cli(capsys, "orbits", *argv, "--json")
    assert code == 0
    act, = acts
    want, seen = [], set()
    for a in range(act.points.size):
        if a not in seen:
            orb = action_mod.orbit(act, a)
            seen.update(orb)
            want.append(list(orb.indices()))
    assert json.loads(out)["checks"][0]["witness"]["orbits"] == want


def test_orbits_translation_needs_gens(capsys):
    code, _, err = run_cli(capsys, "orbits", "z12", "--action", "translation")
    assert code == 2


def test_orbits_subsets(capsys):
    code, out, _ = run_cli(capsys, "orbits", "s3", "--action", "subsets",
                           "--gens", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    parts = doc["checks"][0]["witness"]["orbits"]
    assert [len(p) for p in parts] == [3]


def test_quotient_z12(capsys):
    code, out, _ = run_cli(capsys, "quotient", "cyclic:12", "--gens", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    byname = {c["name"]: c for c in doc["checks"]}
    assert byname["quotient_order"]["witness"]["roots"] == [0, 1, 2, 3]


def test_quotient_check_times_building_the_quotient(capsys, monkeypatch):
    # a fake clock that moves only while the group is resolved (7 s, before
    # the command's clock starts), while the quotient is built (5 s) and
    # while each tally of the morphism checks is taken (2 s)
    now = [0.0]

    def slow(fn, secs):
        def run(*args):
            now[0] += secs
            return fn(*args)
        return run

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(cli_mod, "resolve_group", slow(cli_mod.resolve_group, 7.0))
    monkeypatch.setattr(cli_mod, "quotient_group", slow(cli_mod.quotient_group, 5.0))
    monkeypatch.setattr(conjnormal_mod, "tally", slow(conjnormal_mod.tally, 2.0))
    code, out, _ = run_cli(capsys, "quotient", "z12", "--gens", "4", "--json")
    assert code == 0
    assert [(c["name"], c["ms"]) for c in json.loads(out)["checks"]] == [
        ("quotient_order", 5000.0), ("quotient_morphism", 2000.0),
        ("quotient_kernel_to_unit", 0.0), ("quotient_root_in_own_coset", 2000.0)]


def test_quotient_non_normal_is_input_error(capsys):
    code, _, err = run_cli(capsys, "quotient", "s3", "--gens", "1")
    assert code == 2
    assert "normal" in err


def test_catalog_lists_everything(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--json")
    assert code == 0
    entries = json.loads(out)
    refs = {e["ref"] for e in entries}
    assert "symmetric:5" in refs and "q8" in refs
    assert len(entries) == len(catalog_specs())


def test_internal_invariant_maps_to_exit_one(capsys, monkeypatch):
    import fingroups.sylow as sylow_mod

    def boom(*a, **k):
        raise InternalInvariant("forced for the exit-code test")

    monkeypatch.setattr(sylow_mod, "sylow_subgroup", boom)
    code, _, err = run_cli(capsys, "sylow", "z6", "-p", "2")
    assert code == 1
    assert "theorem check failed" in err


def test_sylow_command_builds_the_family_once(capsys, monkeypatch):
    import fingroups.sylow as sylow_mod

    calls = []
    real = sylow_mod.sylow_family

    def family(g, k, p, cert):
        calls.append(p)
        return real(g, k, p, cert)

    monkeypatch.setattr(sylow_mod, "sylow_family", family)
    code, out, _ = run_cli(capsys, "sylow", "s4", "-p", "2", "--oracle")
    assert code == 0 and "3 Sylow 2-subgroup(s)" in out
    assert calls == [2]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("ref", ["product:(s5,z2)", "product:(d6,d6)", "d60", "z120"])
def test_sylow_command_on_the_large_groups(capsys, ref, p):
    """Sylow towers with extension steps; exit 2 only where p does not
    divide the order (D6 x D6 at p = 5)."""
    code, _, _ = run_cli(capsys, "sylow", ref, "-p", str(p))
    assert code == (2 if (ref, p) == ("product:(d6,d6)", 5) else 0)


def test_huge_tuple_cap_exits_2_under_a_memory_limit():
    """A cap above the default is refused before any tuple is made, so a
    family too big for memory (5 x 960^4 tuples here) is never allocated;
    the address-space limit turns such an allocation into a failure."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env[TUPLE_CAP_ENV] = "1000000000000000"
    proc = subprocess.run(
        [sys.executable, "-m", "fingroups.cli", "cauchy", "product:(s5,d4)", "-p", "5"],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{TUPLE_CAP_ENV} must be a positive integer" in proc.stderr


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


# -- main() on random arguments and environment ---------------------------

SMALL_REFS = ["z1", "z2", "z6", "d3", "d4", "s3", "q8", "cyclic:3", "dihedral:1", "symmetric:2"]
grammar = st.recursive(st.sampled_from(SMALL_REFS),
                       lambda inner: st.builds("product:({},{})".format, inner, inner),
                       max_leaves=2)
junk = st.text(alphabet="zdsqcyliprot8(),: 0123456789\u0663", max_size=24)
primes = st.integers(-3, 12).map(str) | st.sampled_from(["x", "", "2.0", "\u0663", "9" * 5000])
tuple_caps = (st.none() | st.sampled_from(["0", "-1", "x", "", " 5", "\u0663", "1e3"])
              | st.integers(1, 10**7).map(str) | st.integers(4290, 4310).map("1".__mul__))


def small_or_refused(ref: str) -> bool:
    """False only for grammar naming a group of order above 64, left out to
    keep the run short; refused grammar and non-grammar stay in."""
    try:
        return build(parse_group_ref(ref)).order <= 64
    except (ValueError, GroupTheoryError):
        return True


@given(st.sampled_from(["cauchy", "sylow"]), grammar | junk, primes, tuple_caps)
@settings(max_examples=150, deadline=None)
def test_main_exits_0_or_2_on_random_refs_primes_and_tuple_caps(cmd, ref, p, cap):
    assume(small_or_refused(ref))
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop(TUPLE_CAP_ENV, None)
        if cap is not None:
            os.environ[TUPLE_CAP_ENV] = cap
        try:
            code = main([cmd, ref, "-p", p])
        except SystemExit as e:  # argparse refuses the arguments
            code = e.code
    assert code in (0, 2) and "Traceback" not in err.getvalue()
