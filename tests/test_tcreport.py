import pytest

from tcsurf import presentation
from tcsurf.errors import AlgebraError, ResourceBudgetError
from tcsurf.tcreport import (TcFact, TcReport, all_tight, product_space_tc,
                             sweep, tc_report, tc_theorem, upper_bound)


GOLDEN_CLOSED = {
    # closed surfaces (m = 0)
    (0, 1, 0): 3, (0, 2, 0): 3, (0, 3, 0): 4, (0, 4, 0): 6, (0, 5, 0): 8,
    (1, 1, 0): 3, (1, 2, 0): 5, (1, 3, 0): 7, (1, 4, 0): 9,
    (2, 1, 0): 5, (2, 2, 0): 7, (2, 3, 0): 9,
    (3, 2, 0): 7,
    # punctured sphere
    (0, 1, 1): 1, (0, 2, 1): 2, (0, 3, 1): 4,
    (0, 1, 2): 2, (0, 2, 2): 4,
    (0, 1, 3): 3, (0, 2, 3): 5,
    (0, 2, 7): 5, (0, 3, 9): 7,
    # punctured positive genus
    (1, 2, 5): 5, (2, 3, 1): 7, (4, 1, 2): 3,
}


def test_theorem_table_golden():
    for (g, n, m), want in GOLDEN_CLOSED.items():
        assert tc_theorem(g, n, m) == want, (g, n, m)


def test_theorem_rejects_bad_input():
    for bad in ((-1, 1, 0), (0, 0, 0), (1, 1, -2),
                (0, 2.5, 0), (True, 2, 0), (1, 2, 0.0)):
        with pytest.raises(AlgebraError):
            tc_theorem(*bad)
        with pytest.raises(AlgebraError):
            upper_bound(*bad)


def test_every_closed_form_meets_its_upper_bound_chain():
    for g in range(5):
        for n in range(1, 9):
            for m in range(7):
                val, facts = upper_bound(g, n, m)
                assert val == tc_theorem(g, n, m), (g, n, m)
                assert {f.kind for f in facts} <= {"cited", "dimension",
                                                   "product"}, (g, n, m)


def test_product_space_column():
    assert product_space_tc(0, 3) == 7
    assert product_space_tc(1, 3) == 7
    assert product_space_tc(2, 3) == 13
    assert product_space_tc(5, 1) == 5
    with pytest.raises(AlgebraError):
        product_space_tc(0, 0)
    with pytest.raises(AlgebraError, match="expected an integer"):
        product_space_tc(1, 2.5)


def test_upper_bound_chains():
    val, facts = upper_bound(1, 2, 0)
    assert val == 5
    kinds = [f.kind for f in facts]
    assert "cited" in kinds and "product" in kinds
    assert facts[0].value == 3  # tc of the torus seeds the chain

    val, facts = upper_bound(0, 4, 0)
    assert val == 6
    assert [f.value for f in facts] == [4, 3, 6]

    val, facts = upper_bound(2, 2, 0)
    assert val == 7
    assert all(f.kind == "dimension" for f in facts)

    assert upper_bound(0, 1, 1)[0] == 1
    assert upper_bound(0, 3, 1)[0] == 4
    assert upper_bound(0, 3, 2)[0] == 6
    assert upper_bound(1, 3, 4)[0] == 7
    assert upper_bound(0, 2, 9)[0] == 5
    assert upper_bound(1, 1, 0)[0] == 3


def test_report_examples_are_tight():
    r = tc_report(1, 2, 0)
    assert (r.lower, r.upper, r.theorem, r.status) == (5, 5, 5, "tight")
    assert r.method == "certificate"
    r = tc_report(0, 4, 0)
    assert (r.lower, r.upper, r.status) == (6, 6, "tight")
    r = tc_report(2, 2, 0)
    assert (r.lower, r.upper, r.status) == (7, 7, "tight")


def test_report_with_exact_method():
    r = tc_report(1, 2, 0, method="exact")
    assert r.status == "tight" and r.method == "exact"
    assert any("power iteration" in f.description for f in r.facts)


def test_report_unverified_inputs():
    # no model of a punctured surface of positive genus is wired for exact
    r = tc_report(1, 1, 1, method="exact")
    assert r.status == "unverified"
    assert r.lower is None and r.theorem == 3
    r = tc_report(2, 3, 5, method="exact")
    assert r.status == "unverified"


def test_toric_and_product_rows_name_their_certificates():
    r = tc_report(1, 3, 2)
    assert (r.lower, r.status) == (7, "tight")
    assert r.facts[0].description == (
        "nonzero 6-fold zero-divisor product restricted to the tori "
        "T_beta x T_alpha of the first handle: -1 t1*t2*t3 (x) t1*t2*t3")
    r = tc_report(0, 2, 0)
    assert (r.lower, r.status) == (3, "tight")
    assert r.facts[0].description == (
        "nonzero 2-fold zero-divisor product on H*(S^2) = Q[u]/(u^2), "
        "pulled back to F(S^2, 2) along the projection to point 1 "
        "(coefficient -2)")
    r = tc_report(0, 5, 0)
    assert (r.lower, r.status) == (8, "tight")
    assert [(f.kind, f.value) for f in r.facts[:4]] == [
        ("derived", 3), ("derived", 4), ("product", 7), ("derived", 8)]
    assert r.facts[0].description.startswith("SO(3): nonzero 3-fold")
    assert r.facts[2].description == (
        "product inequality over F(S^2, 5) = PGL(2,C) x F(C minus {0,1}, 2), "
        "PGL(2,C) ~ SO(3): zcl >= 3 + 4")


def test_report_fact_kinds_are_wellformed():
    r = tc_report(0, 3, 0)
    assert r.facts
    assert {f.kind for f in r.facts} <= {"cited", "dimension", "product",
                                         "derived"}


def test_report_json_row_shape():
    row = tc_report(1, 1, 0).to_json()
    for key in ("g", "n", "m", "lower", "upper", "theorem", "status"):
        assert key in row
    assert isinstance(row["facts"], list)


def test_sweep_rectangle_and_tightness():
    rows = sweep(1, 2, 1)
    assert len(rows) == 2 * 2 * 2
    assert all_tight(rows)  # the torus m=1 rows read the handle tori
    computed = [r for r in rows if r.status != "unverified"]
    assert computed and all(r.status == "tight" for r in computed)


def test_sweep_marks_a_row_over_the_budget(monkeypatch):
    # b-sigma(g=2,n=4) is the one model of this rectangle with a weight
    # block of more than 100 columns plus relation products
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 100)
    rows = sweep(2, 4, 0)
    over = [r for r in rows if r.status == "over-budget"]
    assert [(r.g, r.n, r.m) for r in over] == [(2, 4, 0)]
    row = over[0]
    assert row.lower is None and row.upper == row.theorem == 11
    assert row.facts[0].description.startswith(
        "b-sigma(g=2,n=4): degree 3 weight [-1, 0] needs up to 88 columns")
    assert row.to_json()["status"] == "over-budget"
    assert all(r.status == "tight" for r in rows if r is not row)
    assert all_tight(rows)
    with pytest.raises(ResourceBudgetError, match="degree 3"):
        tc_report(2, 4, 0)


def test_sweep_marks_a_refused_model_unverified():
    rows = sweep(12, 1, 0)
    assert len(rows) == 13
    assert all(r.status == "tight" for r in rows[:-1])
    row = rows[-1]
    assert (row.g, row.status, row.lower, row.theorem) == (12, "unverified",
                                                          None, 5)
    assert row.facts[0].description == (
        "genus 12 exceeds the letter-pair naming scheme; "
        "closed-form value shown unverified")
    assert all_tight(rows)


def test_sweep_validates_bounds():
    with pytest.raises(AlgebraError):
        sweep(0, 0, 0)
    with pytest.raises(AlgebraError, match="expected an integer"):
        sweep(1.5, 2, 0)


def test_all_tight_flags_a_gap():
    rows = [TcReport(0, 1, 0, 2, 3, 3, "gap", "certificate", [], 3)]
    assert not all_tight(rows)


def test_fact_json():
    f = TcFact("tc of the torus = 3", 3, "cited")
    assert f.to_json() == {"description": "tc of the torus = 3", "value": 3,
                           "kind": "cited"}
