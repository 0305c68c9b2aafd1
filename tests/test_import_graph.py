"""Which tcsurf modules each entry point loads.

`import tcsurf` loads no submodule, and each subcommand imports only the
layers it runs.  Each case runs a fresh interpreter under `-X importtime`,
whose stderr names every module the run imported.
"""

import subprocess
import sys

import pytest

import tcsurf
from tcsurf import zcl

MODEL_LAYERS = {"tcsurf.models", "tcsurf.presentation", "tcsurf.linalg",
                "tcsurf.zcl", "tcsurf.tcreport"}


def imported(*args):
    """Every module `python -X importtime args...` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def loaded(*args):
    """The tcsurf modules `python -X importtime args...` imports."""
    return {n for n in imported(*args) if n == "tcsurf" or n.startswith("tcsurf.")}


def test_help_loads_only_the_front_end():
    assert loaded("-m", "tcsurf", "--help") <= {
        "tcsurf", "tcsurf.__main__", "tcsurf.cli", "tcsurf.errors",
        "tcsurf.fields"}


def test_groebner_check_loads_no_model_layer():
    mods = loaded("-m", "tcsurf", "groebner-check", "--n", "2", "--json")
    assert "tcsurf.groebner" in mods
    assert not mods & MODEL_LAYERS


def test_a_toric_row_loads_no_model_layer():
    mods = loaded("-m", "tcsurf", "tc", "--g", "1", "--n", "3", "--m", "1",
                  "--json")
    assert {"tcsurf.tcreport", "tcsurf.toric"} <= mods
    assert not mods & {"tcsurf.models", "tcsurf.presentation",
                       "tcsurf.linalg", "tcsurf.zcl", "tcsurf.exterior"}


def test_toric_imports_only_errors_and_fields():
    assert loaded("-c", "import tcsurf.toric") == {
        "tcsurf", "tcsurf.toric", "tcsurf.errors", "tcsurf.fields"}


@pytest.mark.parametrize("argv", [
    ["build", "--model", "arnold", "--n", "3"],
    ["zcl", "--model", "totaro", "--g", "1", "--n", "2"],
    ["groebner-check", "--n", "2"],
], ids=lambda argv: argv[0])
def test_only_tc_loads_the_toric_module(argv):
    assert "tcsurf.toric" not in loaded("-m", "tcsurf", *argv, "--json")


def test_package_import_is_lazy():
    assert loaded("-c", "import tcsurf") == {"tcsurf"}
    assert tcsurf.zcl_exact is zcl.zcl_exact
    with pytest.raises(AttributeError, match="no_such_name"):
        tcsurf.no_such_name


@pytest.mark.parametrize("argv", [
    ["build", "--model", "arnold", "--n", "3"],
    ["zcl", "--model", "totaro", "--g", "1", "--n", "2"],
    ["tc", "--g", "1", "--n", "2"],
    ["groebner-check", "--n", "2"],
], ids=lambda argv: argv[0])
def test_jobs_load_no_introspection(argv):
    # dataclasses pulls in inspect (and with it ast and dis) and execs
    # generated code for every decorated class
    assert not imported("-m", "tcsurf", *argv, "--json") & {"dataclasses", "inspect"}
