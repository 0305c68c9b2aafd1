"""Acceptance gate.

One test per shipped criterion, each printing a single PASS/FAIL line
(visible under pytest -s, or in the failure report otherwise).  Every
comparison is exact integer equality; there are no tolerances to relax.
"""

import time

from tcsurf.fields import QQ
from tcsurf.groebner import gb_hilbert, torus_ideal_check
from tcsurf.models import (arnold_algebra, genus2_B_algebra,
                           mod_ideal_quotient, punctured_plane_algebra,
                           so3_mod2_algebra,
                           sphere_mod2_model, surface_cohomology,
                           surface_diagonal, totaro_algebra)
from tcsurf.presentation import hilbert_series, quotient, tensor_square
from tcsurf.tcreport import sweep
from tcsurf.zcl import case_certificate, e2_probe, zcl_exact

from .oracles import eqA_dimension, punctured_hilbert, rising_product


def _line(num, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {word}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_theorem_table_sweep():
    t0 = time.time()
    rows = sweep(3, 4, 0) + sweep(0, 5, 0)
    elapsed = time.time() - t0
    seen = {(r.g, r.n): r for r in rows}
    required = ([(0, n) for n in (1, 2, 3, 4, 5)]
                + [(1, n) for n in (1, 2, 3)]
                + [(2, n) for n in (1, 2)]
                + [(3, n) for n in (1, 2, 3, 4)])
    missing = [k for k in required if k not in seen]
    not_tight = [k for k in required if k in seen and seen[k].status != "tight"]
    wrong = [k for k in required if k in seen
             and not (seen[k].lower == seen[k].upper == seen[k].theorem)]
    ok = not missing and not not_tight and not wrong and elapsed < 600
    _line(1, ok,
          f"{len(required)} required rows tight, sweep took {elapsed:.1f}s "
          f"(missing={missing}, not_tight={not_tight}, wrong={wrong})")


def test_criterion_2_zcl_exactness():
    got = {
        "so3": zcl_exact(so3_mod2_algebra()).value,
        "torus_n2": zcl_exact(totaro_algebra(1, 2)).value,
        "torus_n3": zcl_exact(totaro_algebra(1, 3)).value,
        "b_sigma_n2": zcl_exact(genus2_B_algebra(2)).value,
    }
    want = {"so3": 3, "torus_n2": 4, "torus_n3": 6, "b_sigma_n2": 6}
    ok = got == want and got["b_sigma_n2"] >= 2 * 2 + 2
    _line(2, ok, f"zcl values {got} (wanted {want}, last one >= 6)")


def test_criterion_3_certificate_suite():
    results = []
    for n in range(1, 6):
        c = case_certificate("torus", totaro_algebra(1, n))
        results.append(("torus", n, c.certified_length == 2 * n
                        and c.coefficient != 0))
    for n in range(1, 4):
        c = case_certificate("genus2", genus2_B_algebra(n))
        results.append(("genus2", n, c.certified_length == 2 * n + 2
                        and c.coefficient != 0))
    for n in range(3, 7):
        c = case_certificate("sphere", sphere_mod2_model(n))
        results.append(("sphere", n, c.certified_length == 2 * n - 3
                        and c.coefficient != 0))
    for n in range(1, 5):
        c = case_certificate("punctured-mod-ideal",
                             mod_ideal_quotient(n))
        results.append(("mod-ideal", n, c.certified_length == 2 * n
                        and c.coefficient != 0))

    H = quotient(surface_cohomology(2))
    T = tensor_square(H)
    seed = T.bar(H.gen("a"))
    for s in ("b", "c", "d"):
        seed = T.multiply(seed, T.bar(H.gen(s)))
    w = H.gen("c") * H.gen("d")
    seed_ok = seed == T.tensor(w, w).scale(QQ.coerce(2))
    results.append(("genus2-seed", 1, seed_ok))

    bad = [(fam, n) for fam, n, ok in results if not ok]
    _line(3, not bad, f"{len(results)} certificates verified (failures: {bad})")


def test_criterion_4_model_cross_checks():
    bad = []
    for n in range(1, 6):
        h = totaro_algebra(1, n).hilbert()
        if h != [eqA_dimension(n, d) for d in range(len(h))]:
            bad.append(("eqA", n))
    for n in range(1, 6):
        if quotient(arnold_algebra(n)).hilbert() != rising_product(
                range(1, n)):
            bad.append(("arnold", n))
    for k in (2, 3, 4):
        for n in range(1, 5):
            if quotient(punctured_plane_algebra(n, k)).hilbert() != \
                    punctured_hilbert(n, k):
                bad.append(("punctured", n, k))
    for g in range(4):
        delta, H = surface_diagonal(g)
        T = tensor_square(H)
        for name, deg in zip(H.free.names, H.free.degrees):
            if deg == 1 and not T.multiply(T.bar(H.gen(name)), delta).is_zero():
                bad.append(("diagonal", g, name))
    _line(4, not bad, f"hilbert oracles n<=5/4 (punctures 2..4) and "
          f"diagonal annihilation g<=3 (failures: {bad})")


def test_criterion_5_groebner():
    bad = []
    for n in range(2, 7):
        rep = torus_ideal_check(n)
        if not rep.is_groebner:
            bad.append(("gb", n))
        elif gb_hilbert(rep) != hilbert_series(totaro_algebra(1, n)):
            bad.append(("hilbert", n))
    _line(5, not bad, f"torus relations verified for n in 2..6 with "
          f"bit-exact series (failures: {bad})")


def test_criterion_6_monotonicity_lemma():
    sub_ok = zcl_exact(quotient(surface_cohomology(1))).value <= \
        zcl_exact(totaro_algebra(1, 2)).value
    zB = zcl_exact(genus2_B_algebra(2)).value
    zA = zcl_exact(totaro_algebra(2, 2)).value
    epi_ok = zB <= zA and zB == 6 and zA == 6
    z_left = zcl_exact(so3_mod2_algebra()).value
    z_right = zcl_exact(quotient(punctured_plane_algebra(1, 2))).value
    z_tensor = zcl_exact(sphere_mod2_model(4)).value
    tensor_ok = z_tensor >= z_left + z_right
    ok = sub_ok and epi_ok and tensor_ok
    _line(6, ok, f"subalgebra {sub_ok}, epimorphism {epi_ok} (6 >= 6), "
          f"tensor {z_tensor} >= {z_left} + {z_right}")


def test_criterion_7_e2_probe():
    rows = []
    ok = True
    for n in (2, 3, 4):
        rep = e2_probe(n)
        rows.append((n, rep.dim_source, rep.rank, rep.kernel_dim))
        if rep.kernel_dim != rep.dim_source - rep.rank:
            ok = False
    _line(7, ok, f"internal consistency of (n, dim, rank, kernel) rows "
          f"{rows} (values recorded as derived output)")
