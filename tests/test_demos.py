"""Every demo prints exactly the output frozen in golden_demos.json.

Each `demos/*.py` runs in a fresh interpreter with the inherited
environment (so `PYTHONPATH=src` reaches it), and its stdout must equal the
frozen text byte for byte.  After an intended output change, rewrite the
file with

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden_demos.json"


def run(name):
    """stdout of one demo; a nonzero exit fails with its stderr."""
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_demo_is_frozen(golden):
    assert sorted(golden) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name, golden):
    assert run(name) == golden[name]


if __name__ == "__main__":
    data = {name: run(name) for name in DEMOS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
