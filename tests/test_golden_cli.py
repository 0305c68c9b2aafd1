"""Golden CLI corpus: the full JSON output of a fixed list of invocations.

Every invocation runs `cli.main(argv)` in-process with --json; its exit code
and parsed output must equal the entry frozen in golden_cli.json.  After an
intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tcsurf import cli

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

CORPUS = [
    ["build", "--model", "surface", "--g", "2"],
    ["build", "--model", "arnold", "--n", "3"],
    ["build", "--model", "punctured-plane", "--n", "2", "--punctures", "2"],
    ["build", "--model", "totaro", "--g", "1", "--n", "2"],
    ["build", "--model", "b-sigma", "--n", "2"],
    ["build", "--model", "sphere-mod2", "--n", "4"],
    ["build", "--model", "so3-mod2"],
    ["build", "--model", "mod-ideal", "--n", "3"],
    ["zcl", "--model", "totaro", "--g", "1", "--n", "3", "--method", "certificate"],
    ["zcl", "--model", "b-sigma", "--n", "2", "--method", "certificate"],
    ["zcl", "--model", "sphere-mod2", "--n", "4", "--method", "certificate"],
    ["zcl", "--model", "mod-ideal", "--n", "3", "--method", "certificate"],
    ["zcl", "--model", "arnold", "--n", "3", "--method", "certificate"],
    ["zcl", "--model", "totaro", "--g", "1", "--n", "3"],
    ["zcl", "--model", "so3-mod2"],
    ["zcl", "--model", "punctured-plane", "--n", "2", "--punctures", "2"],
    ["tc", "--sweep", "2", "3", "2"],
    ["tc", "--g", "1", "--n", "3", "--method", "exact"],
    ["groebner-check", "--n", "4"],
    ["groebner-check", "--n", "5", "--order", "reversed"],
    ["tc", "--sweep", "2", "3", "3", "--method", "exact"],
    ["tc", "--sweep", "0", "3", "3"],
    ["zcl", "--model", "totaro", "--g", "0", "--n", "2", "--method", "certificate"],
    ["zcl", "--model", "b-sigma", "--g", "3", "--n", "2", "--method", "certificate"],
    ["zcl", "--model", "surface", "--g", "2", "--field", "gf2"],
    ["zcl", "--model", "b-sigma", "--n", "2"],
    ["zcl", "--model", "b-sigma", "--n", "3", "--method", "certificate"],
    ["zcl", "--model", "mod-ideal", "--g", "3", "--n", "3", "--method", "certificate"],
    ["zcl", "--model", "sphere-mod2", "--n", "5", "--method", "certificate"],
    ["zcl", "--model", "arnold", "--n", "4", "--method", "certificate", "--cap", "3"],
    ["zcl", "--model", "b-sigma", "--n", "5", "--method", "certificate"],
    ["zcl", "--model", "sphere-mod2", "--n", "7", "--method", "certificate"],
    ["tc", "--sweep", "3", "4", "0"],
    ["zcl", "--model", "b-sigma", "--n", "4"],
    ["tc", "--sweep", "0", "2", "4"],
    ["zcl", "--model", "arnold", "--n", "3", "--field", "gf2", "--method", "certificate"],
    ["build", "--model", "punctured-plane", "--n", "2", "--punctures", "3"],
    ["zcl", "--model", "so3-mod2", "--method", "certificate", "--cap", "9"],
    ["zcl", "--model", "punctured-plane", "--n", "3", "--punctures", "3",
     "--method", "certificate"],
    ["tc", "--sweep", "2", "4", "4"],
    ["tc", "--g", "2", "--n", "7"],
    ["tc", "--sweep", "0", "4", "3"],
    ["tc", "--g", "3", "--n", "6"],
    ["tc", "--sweep", "2", "8", "0"],
]


def run(argv):
    """(exit code, parsed JSON stdout) of one in-process invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    return {"exit": code, "output": json.loads(out.getvalue())}


def key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_golden_keys(golden):
    assert sorted(golden) == sorted(key(a) for a in CORPUS)


@pytest.mark.parametrize("argv", CORPUS, ids=key)
def test_golden_output(argv, golden):
    assert run(argv) == golden[key(argv)]


if __name__ == "__main__":
    data = {key(a): run(a) for a in CORPUS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
