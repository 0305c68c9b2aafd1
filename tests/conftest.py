"""Let the interpreters that tests start import tcsurf from this checkout.

pyproject.toml puts src on the test process's own path; the subprocesses
(`python -m tcsurf`, the demos) read PYTHONPATH instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
