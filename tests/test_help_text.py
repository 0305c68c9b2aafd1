"""Frozen help and usage texts of the command line.

Each invocation runs `python -m tcsurf ...` in a fresh interpreter with
COLUMNS=80, so argparse wraps at a fixed width; its exit code, stdout and
stderr must equal the entry frozen in golden_help.json.  The texts pin the
options, their order and the usage lines, whenever and however the parser
declares them.  After an intended change, rewrite the file with

    PYTHONPATH=src python tests/test_help_text.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden_help.json"

INVOCATIONS = [
    ["--help"],
    ["build", "--help"],
    ["zcl", "--help"],
    ["groebner-check", "--help"],
    ["tc", "--help"],
    ["zcl", "--model", "other"],
]


def run(argv):
    """Exit code, stdout and stderr of `python -m tcsurf argv` at 80 columns."""
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "tcsurf", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_invocations_match_golden_keys(golden):
    assert sorted(golden) == sorted(key(a) for a in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=key)
def test_help_text(argv, golden):
    assert run(argv) == golden[key(argv)]


if __name__ == "__main__":
    data = {key(a): run(a) for a in INVOCATIONS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
