"""CLI reports compared byte for byte with committed golden outputs.

The golden files under tests/golden/ were generated by an earlier release
of the CLI, so these tests hold the reports stable across code changes,
not only between two runs of the same code.  JSON reports carry per-check
``ms`` timings; those fields are cut out of the raw output before the
comparison, and nothing else is touched.
"""

import re
from pathlib import Path

import pytest

from fingroups.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_s4": ["verify", "s4"],
    "sylow_s4_p2_oracle": ["sylow", "s4", "-p", "2", "--oracle"],
    "cauchy_z6_p3": ["cauchy", "z6", "-p", "3"],
    "orbits_s3_conjugation": ["orbits", "s3", "--action", "conjugation"],
    "orbits_z12_translation": ["orbits", "z12", "--action", "translation",
                               "--gens", "4", "--acting-gens", "6"],
    "orbits_s3_subsets": ["orbits", "s3", "--action", "subsets", "--gens", "2"],
    # the six subgroups generated by transpositions, in three orbits under V4
    "orbits_s4_subsets": ["orbits", "s4", "--action", "subsets", "--gens", "1",
                          "--acting-gens", "7,16"],
    "quotient_z12": ["quotient", "cyclic:12", "--gens", "4"],
    "quotient_s4_v4": ["quotient", "s4", "--gens", "7,16"],
    "orbits_d4_translation": ["orbits", "d4", "--action", "translation",
                              "--gens", "4", "--acting-gens", "5"],
}

_MS = re.compile(r'"ms": [-+0-9.eE]+,')


def strip_ms(text: str) -> str:
    return _MS.sub("", text)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, as_json, capsys):
    argv = CASES[case] + (["--json"] if as_json else [])
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    got = strip_ms(out.out) if as_json else out.out
    want = (GOLDEN / f"{case}.{'json' if as_json else 'txt'}").read_text(encoding="utf-8")
    assert got == want
