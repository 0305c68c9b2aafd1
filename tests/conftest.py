"""Let the interpreters that tests start import tcsurf from this checkout,
and start every test without a cached surface diagonal.

pyproject.toml puts src on the test process's own path; the subprocesses
(`python -m tcsurf`, the demos) read PYTHONPATH instead.
"""

import os
from pathlib import Path

import pytest

from tcsurf.models import surface_diagonal

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def fresh_surface_diagonals():
    """Each test builds the surface diagonals it reads: surface_diagonal
    keeps one per genus for the whole process, and tests that count what a
    call builds, or that replace the surface ring, need none kept."""
    surface_diagonal.cache_clear()
