import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from tcsurf import cli, models, presentation, zcl
from tcsurf.errors import ModelInconsistencyError
from tcsurf.models import arnold_algebra, totaro_algebra
from tcsurf.presentation import quotient
from tcsurf.tcreport import all_tight, sweep, tc_report
from tcsurf.zcl import bar_product_certificate, case_certificate

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "tcsurf", *args],
                          capture_output=True, text=True, timeout=300)
    return proc


def test_build_table_output():
    proc = run_cli("build", "--model", "totaro", "--g", "1", "--n", "2")
    assert proc.returncode == 0
    assert "hilbert series: [1, 4, 5, 2]" in proc.stdout


def test_build_json_and_presentation_round_trip(tmp_path):
    path = tmp_path / "sigma2.json"
    proc = run_cli("build", "--model", "surface", "--g", "2",
                   "--dump-presentation", str(path), "--json")
    assert proc.returncode == 0
    info = json.loads(proc.stdout)
    assert info["hilbert"] == [1, 4, 1]
    assert path.exists()

    again = run_cli("build", "--presentation", str(path), "--json")
    assert again.returncode == 0
    assert json.loads(again.stdout)["hilbert"] == [1, 4, 1]


@pytest.mark.parametrize("relations,top,message", [
    ([], 1, "degree 2 is nonzero, above the declared top_degree 1"),
    ([[{"coeff": "1", "monomial": "ab"}]], 2, "malformed presentation"),
], ids=["nonzero-above-top", "string-monomial"])
def test_build_refuses_a_presentation_it_would_misread(
        relations, top, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "field": "Q", "relations": relations, "top_degree": top,
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}]}))
    assert cli.main(["build", "--presentation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_a_presentation_with_a_wrong_top_is_refused_before_it_is_dumped(tmp_path):
    path, out = tmp_path / "p.json", tmp_path / "out.json"
    path.write_text(json.dumps({
        "field": "Q", "relations": [], "top_degree": 1,
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}]}))
    proc = run_cli("build", "--presentation", str(path),
                   "--dump-presentation", str(out))
    assert proc.returncode == 2
    assert proc.stderr == ("error: presentation: degree 2 is nonzero, above "
                           "the declared top_degree 1\n")
    assert not out.exists()


def test_zcl_exact_json():
    proc = run_cli("zcl", "--model", "so3-mod2", "--json")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["quantity"] == "zcl"
    assert rep["value"] == 3
    assert rep["exact"] is True


def test_zcl_certificate_json():
    proc = run_cli("zcl", "--model", "totaro", "--g", "1", "--n", "2",
                   "--method", "certificate", "--json")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["value"] == 4
    assert rep["exact"] is False
    assert len(rep["factors"]) == 4
    assert rep["witness"] == ["b1*b2", "a1*a2"]


def test_zcl_certificate_climb_with_cap():
    proc = run_cli("zcl", "--model", "arnold", "--n", "3",
                   "--method", "certificate", "--cap", "2", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2  # capped below the true 3


@pytest.mark.parametrize("argv,certify", [
    (("--model", "totaro", "--g", "1", "--n", "2"),
     lambda: case_certificate("torus", totaro_algebra(1, 2))),
    (("--model", "arnold", "--n", "3"),
     lambda: bar_product_certificate(quotient(arnold_algebra(3)), 3)),
], ids=["family", "climb"])
def test_zcl_certificate_json_is_the_certificate_to_json(argv, certify, capsys):
    assert cli.main(["zcl", *argv, "--method", "certificate", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == certify().to_json()


def test_an_error_inside_the_search_exits_2(monkeypatch, capsys):
    real = presentation.TensorSquareAlgebra.multiply
    calls = []

    def inconsistent_at_the_fifth(T, *args):
        calls.append(args)
        if len(calls) == 5:
            raise ModelInconsistencyError("model check failed")
        return real(T, *args)

    monkeypatch.setattr(presentation.TensorSquareAlgebra, "multiply",
                        inconsistent_at_the_fifth)
    assert cli.main(["zcl", "--model", "arnold", "--n", "3",
                     "--method", "certificate"]) == 2
    assert len(calls) == 5
    assert "error: model check failed" in capsys.readouterr().err


def test_tc_sweep_prints_a_short_lower_bound_as_a_gap(monkeypatch, capsys):
    # arnold(n - 1) has too few bars for the plane row of n points; the
    # plane rows read their model under --method exact
    monkeypatch.setitem(models.MODELS, "arnold", models.ModelSpec(
        lambda n, field: quotient(arnold_algebra(max(n - 1, 1), field)),
        models.MODELS["arnold"].defaults))
    assert cli.main(["tc", "--sweep", "0", "3", "1", "--method", "exact"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == ("g=0 n=3 m=1  lower=2 upper=4 theorem=4  "
                         "product=7  gap")
    assert [l.split()[-1] for l in lines] == [
        "tight", "tight", "tight", "gap", "tight", "gap"]
    assert not all_tight(sweep(0, 3, 1, method="exact"))
    assert all_tight(sweep(0, 3, 1))  # the certificates read no model


def test_the_sphere_rows_run_no_search(monkeypatch, capsys):
    # the sphere rows with n <= 2 read ubar^2 on Q[u]/(u^2); their model's
    # search is left to zcl
    monkeypatch.setattr(zcl, "SEARCH_BUDGET", 0)
    assert cli.main(["tc", "--sweep", "0", "3", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[-1] for l in lines] == ["tight", "tight", "tight"]
    assert cli.main(["zcl", "--model", "totaro", "--g", "0", "--n", "2",
                     "--method", "certificate"]) == 2
    assert capsys.readouterr().err == (
        "error: totaro(g=0,n=2): the bar-product search reached length 0 "
        "and needs more than 0 tensor products, over the budget\n")
    assert cli.main(["zcl", "--model", "arnold", "--n", "3",
                     "--method", "certificate"]) == 2
    assert "arnold(n=3): the bar-product search" in capsys.readouterr().err


def test_groebner_check_json():
    proc = run_cli("groebner-check", "--model", "torus-ideal", "--n", "2",
                   "--json")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["is_groebner"] is True
    assert rep["hilbert"] == [1, 4, 5, 2]
    assert rep["order"] == "x2 < y2 < x1 < y1"


def test_groebner_check_reversed_order():
    proc = run_cli("groebner-check", "--n", "3", "--order", "reversed")
    assert proc.returncode == 0
    assert "is_groebner: True" in proc.stdout


def test_groebner_check_n1_honours_the_order():
    proc = run_cli("groebner-check", "--n", "1", "--order", "reversed")
    assert proc.returncode == 0
    assert "order y1 < x1" in proc.stdout


def test_tc_single_row_json():
    proc = run_cli("tc", "--g", "2", "--n", "2", "--json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows[0]["status"] == "tight"
    assert rows[0]["lower"] == rows[0]["upper"] == 7


def test_tc_sweep_exit_code_and_table():
    proc = run_cli("tc", "--sweep", "1", "2", "0")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 4
    assert all("tight" in l for l in lines)


def test_tc_sweep_prints_over_budget_rows_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 100)
    assert cli.main(["tc", "--sweep", "2", "4", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert lines[-1].startswith("g=2 n=4 m=0  lower=? upper=11 theorem=11")
    assert lines[-1].endswith("over-budget")
    assert cli.main(["tc", "--g", "2", "--n", "4"]) == 2
    assert "error: b-sigma(g=2,n=4): degree 3" in capsys.readouterr().err


def test_tc_sweep_prints_a_refused_model_as_unverified(capsys):
    # b-sigma refuses genus 12: its handles run out of letter pairs
    assert cli.main(["tc", "--sweep", "12", "1", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert lines[-1] == ("g=12 n=1 m=0  lower=? upper=5 theorem=5  "
                         "product=5  unverified")
    assert cli.main(["tc", "--g", "12", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: genus 12 exceeds the letter-pair naming scheme" in err


def test_tc_sweep_with_unverified_rows_still_exits_zero():
    # no model of a punctured surface of positive genus is wired for exact
    proc = run_cli("tc", "--sweep", "1", "1", "1", "--method", "exact")
    assert proc.returncode == 0
    assert "unverified" in proc.stdout


def test_tc_requires_n():
    proc = run_cli("tc")
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_unknown_model_token_is_a_usage_error():
    proc = run_cli("build", "--model", "mystery")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [("build",), ("build", "--g", "2")],
                         ids=" ".join)
def test_build_without_model_or_presentation_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: build needs --model or --presentation\n"


def test_console_script_entry_point():
    # Run the entry point declared in pyproject.toml the way pip's generated
    # wrapper does, so the contract is checked without an installed script.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["tcsurf"]
    ep = EntryPoint(name="tcsurf", value=value, group="console_scripts")
    wrapper = (f"import sys\n"
               f"from {ep.module} import {ep.attr} as main\n"
               f"sys.argv[0] = {ep.name!r}\n"
               f"sys.exit(main())\n")
    proc = subprocess.run([sys.executable, "-c", wrapper,
                           "tc", "--g", "0", "--n", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "tight" in proc.stdout, proc.stderr


@pytest.mark.skipif(shutil.which("tcsurf") is None,
                    reason="tcsurf console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["tcsurf", "tc", "--g", "0", "--n", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "tight" in proc.stdout, proc.stderr


GF3_DEPENDENT = {
    "field": "GF3",
    "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 2}],
    "relations": [
        [{"coeff": "1", "monomial": ["x"]}, {"coeff": "2", "monomial": ["y"]}],
        [{"coeff": "2", "monomial": ["x"]}, {"coeff": "1", "monomial": ["y"]}],
    ],
    "top_degree": 2,
}

BAD_PRESENTATIONS = {
    "missing-file": None,
    "invalid-json": "{not json",
    "missing-key": json.dumps({"field": "Q", "generators": [{"name": "x"}]}),
    "gf3": json.dumps(GF3_DEPENDENT),
    "zero-denominator": json.dumps({
        "field": "Q", "generators": [{"name": "x", "degree": 1}],
        "relations": [[{"coeff": "1/0", "monomial": ["x"]}]]}),
    "float-coefficient": json.dumps({
        "field": "Q", "generators": [{"name": "x", "degree": 1}],
        "relations": [[{"coeff": 0.1, "monomial": ["x"]}]]}),
    "scalar-relation": json.dumps({
        "field": "Q", "generators": [{"name": "x", "degree": 1}],
        "relations": [[{"coeff": "1", "monomial": []}]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_bad_presentation_file_is_a_usage_error(case, tmp_path):
    path = tmp_path / "pres.json"
    if BAD_PRESENTATIONS[case] is not None:
        path.write_text(BAD_PRESENTATIONS[case])
    proc = run_cli("build", "--presentation", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("build", "--model", "totaro", "--g", "1", "--n", "0"),
    ("build", "--model", "mod-ideal", "--n", "0"),
    ("build", "--model", "mod-ideal", "--g", "0", "--n", "2"),
    ("zcl", "--model", "b-sigma", "--g", "0", "--n", "2",
     "--method", "certificate"),
], ids=" ".join)
def test_explicit_zero_is_not_rewritten(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_negative_punctures_is_a_model_error():
    proc = run_cli("build", "--model", "punctured-plane", "--n", "2",
                   "--punctures", "-1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_groebner_check_refuses_an_unknown_ideal_family():
    proc = run_cli("groebner-check", "--model", "other", "--n", "2")
    assert proc.returncode == 2
    assert "invalid choice: 'other'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tc_and_zcl_build_the_model_once_through_the_table(monkeypatch):
    # the torus family runs on the weight blocks of the model's presentation;
    # the tc row reads the model under --method exact, and its certificate
    # builds none
    real, built = models.totaro_presentation, []

    def counted(g, n):
        built.append((g, n))
        return real(g, n)

    monkeypatch.setattr(models, "totaro_presentation", counted)
    assert tc_report(1, 3).status == "tight"
    assert built == []
    assert tc_report(1, 3, method="exact").status == "tight"
    assert built == [(1, 3)]
    built.clear()
    assert cli.main(["zcl", "--model", "totaro", "--g", "1", "--n", "3",
                     "--method", "certificate"]) == 0
    assert built == [(1, 3)]


def test_build_mod_ideal():
    proc = run_cli("build", "--model", "mod-ideal", "--n", "2", "--json")
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["label"] == "mod-ideal(g=2,n=2)"
    assert info["exhaustive"] is True  # every build is complete


@pytest.mark.parametrize("argv,message", [
    (("zcl", "--model", "totaro", "--g", "1", "--n", "2",
      "--method", "certificate", "--cap", "1"), "--cap"),
    (("zcl", "--model", "b-sigma", "--n", "2",
      "--method", "certificate", "--cap", "9"), "--cap"),
    (("zcl", "--model", "sphere-mod2", "--n", "3",
      "--method", "certificate", "--cap", "3"), "--cap"),
    (("zcl", "--model", "mod-ideal", "--n", "2",
      "--method", "certificate", "--cap", "4"), "--cap"),
    (("build", "--model", "totaro", "--g", "1", "--n", "2", "--field", "gf2"),
     "field"),
    (("build", "--model", "surface", "--g", "1", "--punctures", "5"),
     "punctures"),
    (("build", "--model", "mod-ideal", "--n", "2", "--field", "q"), "field"),
    (("build", "--model", "mod-ideal", "--n", "2", "--punctures", "1"),
     "punctures"),
    (("zcl", "--model", "totaro", "--g", "1", "--n", "2",
      "--method", "certificate", "--field", "gf2"), "field"),
    (("build", "--model", "arnold", "--n", "3", "--g", "7"),
     "arnold does not take"),
    (("zcl", "--model", "sphere-mod2", "--g", "5", "--n", "3",
      "--method", "certificate"), "sphere-mod2 does not take"),
    (("build", "--model", "so3-mod2", "--n", "9"), "so3-mod2 does not take"),
    (("zcl", "--model", "mod-ideal", "--n", "2", "--punctures", "2",
      "--method", "certificate"), "mod-ideal does not take"),
    (("tc", "--sweep", "0", "1", "0", "--g", "5", "--n", "7"), "--sweep"),
    (("tc", "--sweep", "0", "1", "0", "--m", "1"), "--sweep"),
    (("zcl", "--model", "totaro", "--g", "1", "--n", "2", "--cap", "0"),
     "cap must be at least 1"),
    (("zcl", "--model", "arnold", "--n", "3", "--method", "certificate",
      "--cap", "-1"), "cap must be at least 1"),
    (("zcl", "--model", "so3-mod2", "--method", "certificate", "--cap", "0"),
     "cap must be at least 1"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_option_the_model_cannot_honour_is_a_usage_error(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_presentation_file_takes_no_model_options(tmp_path):
    path = tmp_path / "sigma2.json"
    assert run_cli("build", "--model", "surface", "--g", "2",
                   "--dump-presentation", str(path)).returncode == 0
    for extra in (("--model", "totaro", "--g", "4", "--n", "3"),
                  ("--model", "surface"), ("--field", "gf2")):
        proc = run_cli("build", "--presentation", str(path), *extra)
        assert proc.returncode == 2, extra
        assert proc.stderr.startswith("error: --presentation takes no")


def test_zcl_certificate_honours_genus_and_table_defaults():
    proc = run_cli("zcl", "--model", "mod-ideal", "--g", "3", "--n", "2",
                   "--method", "certificate", "--json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert (rep["algebra"], rep["value"]) == ("mod-ideal(g=3,n=2)", 4)

    proc = run_cli("zcl", "--model", "sphere-mod2", "--method", "certificate",
                   "--json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert (rep["algebra"], rep["value"]) == ("sphere-mod2(n=3)", 3)
