"""Self-test of the benchmark harness.

    python -m pytest bench -q

Runs the smallest job of each workload through the harness, untraced and
traced, and checks the printed metrics against BENCHMARK.json; plants wrong
answers and failing jobs and checks that they count as failures.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import (WORKLOADS, Job, check, tc_closed,  # noqa: E402
                       torus_ideal_hilbert)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALLEST = {
    "tc-table": ("tc", "--sweep", "2", "4", "0"),
    "zcl-exact": ("zcl", "--model", "totaro", "--g", "2", "--n", "2"),
    "groebner": ("groebner-check", "--model", "torus-ideal", "--n", "8"),
}

# Layers each smallest job must exercise (count > 0) or bypass (count == 0).
USED = {
    "tc-table": ["cli.main_s", "tcreport.tc_report_calls", "tcreport.rows_tight",
                 "models.build_calls",
                 "presentation.quotient_calls", "presentation.tensor_pairs",
                 "linalg.q.finalize_calls", "linalg.gf2.finalize_calls",
                 "linalg.gf2.echelonize_calls",
                 "exterior.monomials_of_degree_calls", "exterior.mul_mon_calls",
                 "zcl.certificate_calls", "zcl.certified_length"],
    "zcl-exact": ["presentation.tensor_multiply_calls",
                  "presentation.reduce_free_calls", "linalg.q.insert_calls",
                  "linalg.q.rank_total", "zcl.zcl_exact_calls"],
    "groebner": ["groebner.buchberger_check_s", "groebner.reduce_element_calls",
                 "groebner.s_polynomial_calls", "groebner.spairs",
                 "exterior.monomials_of_degree_calls"],
}
BYPASSED = {
    "tc-table": ["groebner.spairs", "zcl.zcl_exact_calls"],
    "zcl-exact": ["groebner.spairs", "groebner.reduce_element_calls",
                  "tcreport.tc_report_calls", "zcl.certificate_calls"],
    "groebner": ["linalg.q.insert_calls", "linalg.gf2.insert_calls",
                 "linalg.q.echelonize_calls", "presentation.quotient_calls",
                 "presentation.tensor_multiply_calls", "zcl.zcl_exact_calls",
                 "tcreport.tc_report_calls", "models.build_calls"],
}


def _job(workload, argv):
    return next(j for j in WORKLOADS[workload]["jobs"] if j.argv == argv)


def _bench(monkeypatch, workload, jobs, trace):
    monkeypatch.setitem(WORKLOADS, workload, {"why": "", "jobs": jobs})
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace)])
    assert rc == 0
    return out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in run.LAYER_METRICS] + \
        [("tracing_overhead_s", "s", "lower")]


def test_frozen_answers_match_closed_forms():
    from tcsurf.groebner import gb_hilbert, torus_ideal_check
    from tcsurf.tcreport import tc_theorem
    for g in range(4):
        for n in range(1, 8):
            for m in range(5):
                assert tc_closed(g, n, m) == tc_theorem(g, n, m), (g, n, m)
    for n in range(2, 7):
        assert torus_ideal_hilbert(n) == gb_hilbert(torus_ideal_check(n))
    for w in WORKLOADS.values():
        for job in w["jobs"]:
            assert job.expected == job.closed, job.label


@pytest.mark.parametrize("workload", list(SMALLEST))
def test_smallest_job_prints_every_metric(monkeypatch, workload):
    jobs = [_job(workload, SMALLEST[workload])]
    text, res = _bench(monkeypatch, workload, jobs, trace=0)
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    assert "fail_ratio 0" in text
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert m["name"] in text

    text, res = _bench(monkeypatch, workload, jobs, trace=1)
    assert res["correct"] and res["attempted"] == 2
    metrics = res["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    for name in USED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name


def test_wrong_answers_count_as_failures(monkeypatch):
    good = _job("zcl-exact", SMALLEST["zcl-exact"])
    wrong = Job(good.argv, good.kind, {"value": 7, "exact": True}, good.closed)
    crashing = Job(("zcl", "--model", "totaro", "--n", "not-a-number"),
                   good.kind, good.expected, good.closed)
    _, res = _bench(monkeypatch, "zcl-exact", [good, wrong, crashing], trace=0)
    assert res["attempted"] == 3 and res["failed"] == 2
    assert not res["correct"]
    assert res["metrics"]["ok_ratio"]["value"] == pytest.approx(1 / 3)


def test_check_never_raises():
    job = _job("tc-table", ("tc", "--sweep", "2", "4", "0"))
    assert check(job, "") is not None
    assert check(job, '{"no": "rows"}') is not None
    assert check(job, "[1, 2]") is not None
    cert = WORKLOADS["tc-table"]["jobs"][2]
    zero = {"quantity": "zcl", "value": 10, "exact": False, "coefficient": "0"}
    assert "zero witness" in check(cert, json.dumps(zero))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "groebner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
