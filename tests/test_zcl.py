import random
import re
from fractions import Fraction

import pytest

from tcsurf import presentation, zcl
from tcsurf.errors import (AlgebraError, CertificateError, HomogeneityError,
                           ResourceBudgetError, UnsupportedModelError)
from tcsurf.exterior import Element, FreeAlgebra
from tcsurf.fields import GF2, QQ
from tcsurf.models import (arnold_algebra, genus2_B_algebra,
                           genus2_B_presentation, mod_ideal_presentation,
                           punctured_plane_algebra, resolve_model,
                           so3_mod2_algebra, sphere_mod2_model,
                           surface_cohomology, totaro_algebra,
                           totaro_presentation)
from tcsurf.presentation import (AlgebraPresentation, QuotientAlgebra,
                                 TensorSquareAlgebra, quotient, tensor_square)
from tcsurf.tcreport import tc_report
from tcsurf.zcl import (bar_generators, bar_product_certificate,
                        case_certificate, certificate_product, cup_length,
                        e2_probe, mod_ideal_quotient, zcl_exact)

from .oracles import (full_quotient_certificate, kernel_of_mu,
                      restart_climb_certificate, unordered_power_iteration)
from .test_properties import with_span_dims


def torus_ring():
    return quotient(surface_cohomology(1))


# ---------------------------------------------------------------- exact zcl

def test_zcl_exact_frozen_values():
    assert zcl_exact(torus_ring()).value == 2
    assert zcl_exact(so3_mod2_algebra()).value == 3
    assert zcl_exact(totaro_algebra(0, 1)).value == 2
    assert zcl_exact(totaro_algebra(0, 2)).value == 2
    assert zcl_exact(totaro_algebra(1, 2)).value == 4


def test_zcl_exact_reports_exactness_and_method():
    rep = zcl_exact(totaro_algebra(1, 2))
    assert rep.exact and rep.quantity == "zcl"
    assert rep.method == "power-iteration"
    capped = zcl_exact(totaro_algebra(1, 2), cap=2)
    assert capped.value == 2 and not capped.exact


def test_cap_below_one_is_refused():
    for cap in (0, -1):
        with pytest.raises(AlgebraError, match="cap must be at least 1"):
            zcl_exact(totaro_algebra(1, 2), cap=cap)
        with pytest.raises(AlgebraError, match="cap must be at least 1"):
            cup_length(torus_ring(), cap=cap)


def test_cap_that_is_not_an_int_is_refused():
    for cap in (2.5, True, "2"):
        with pytest.raises(AlgebraError, match="expected an integer"):
            zcl_exact(totaro_algebra(1, 2), cap=cap)
        with pytest.raises(AlgebraError, match="expected an integer"):
            cup_length(torus_ring(), cap=cap)


def _cached_fractions(A):
    """The Fraction coefficients of every product in A's product table."""
    return [c for row in A._mul_cache.values() for prod in row.values()
            for c in prod.values() if isinstance(c, Fraction)]


def test_integral_coefficients_stay_ints_through_zcl_exact():
    for A, value in ((totaro_algebra(1, 4), 8), (genus2_B_algebra(3), 8)):
        assert zcl_exact(A).value == value
        assert sum(len(row) for row in A._mul_cache.values()) > 100
        assert not _cached_fractions(A)
        assert not any(isinstance(c, Fraction)
                       for b in bar_generators(A) for c in b.terms.values())
    # a Fraction planted in one cached product is found
    row = next(row for row in A._mul_cache.values()
               if any(row.values()))
    prod = next(prod for prod in row.values() if prod)
    prod[next(iter(prod))] = Fraction(1, 2)
    assert _cached_fractions(A) == [Fraction(1, 2)]
    cert = case_certificate("torus", totaro_algebra(1, 3))
    assert cert.to_json()["coefficient"] == "-1"
    assert QQ.fmt(2) == QQ.fmt(Fraction(2)) == "2"
    assert QQ.fmt(-1) == QQ.fmt(Fraction(-1)) == "-1"


def test_power_iteration_multiplies_only_ordered_products(monkeypatch):
    """Each kept product is multiplied only by the bars at or below its
    first factor, and strictly below it when that bar squares to zero.
    zcl_exact forms 263 tensor products for totaro(g=1,n=4), 255 in the
    iteration and one square per bar for its 8 bars, and 1,949 for
    b-sigma(n=3), 1,937 and 12 squares.  Keeping the bar's own tag took
    510 and 3,294 iteration products, and multiplying every basis element
    by every generator took 2,040 and 16,284."""
    formed = []
    multiply = TensorSquareAlgebra.multiply

    def counted_multiply(self, *args, **kwargs):
        formed.append(1)
        return multiply(self, *args, **kwargs)

    monkeypatch.setattr(TensorSquareAlgebra, "multiply", counted_multiply)
    for A, value, bars, products in ((totaro_algebra(1, 4), 8, 8, 263),
                                     (genus2_B_algebra(3), 8, 12, 1949)):
        assert len(bar_generators(A)) == bars
        formed.clear()
        assert zcl_exact(A).value == value
        assert len(formed) == products


def test_power_iteration_spans_number_only_the_terms_they_meet(monkeypatch):
    """Each span gives a column only to the terms it meets, so no list of
    every pair is built: totaro(g=1,n=4) has 6,400 pairs, and its widest
    span numbers 1,144 columns."""
    built = []

    class Recording(zcl._GradedSpan):
        def __init__(self, space):
            super().__init__(space)
            built.append(self)

    monkeypatch.setattr(zcl, "_GradedSpan", Recording)
    A = totaro_algebra(1, 4)
    T = tensor_square(A)
    assert zcl_exact(A).value == 8
    assert "basis" not in vars(T) and "index" not in vars(T)
    for span in built:
        for d, (index, terms) in span.cols.items():
            assert len(index) == len(terms) <= T.dims[d]
    widest = max(sum(len(terms) for _, terms in span.cols.values())
                 for span in built)
    assert widest < sum(T.dims) // 4


def test_span_refuses_an_inhomogeneous_element():
    A = torus_ring()
    T = tensor_square(A)
    a = A.generator_elements()[0]
    with pytest.raises(HomogeneityError):
        zcl._GradedSpan(T).insert(T.bar(a) + T.tensor(a, a))


def test_zcl_variants_agree():
    """zcl_exact against the unordered iteration over a kernel basis of mu
    (values) and over the bars (values and per-step span dimensions).  On
    the sphere S^2 over Q and on sphere_mod2_model(4) some bars have nonzero
    squares: skipping j = i for every bar would give 1 and 3, not 2 and 5."""
    for A in (torus_ring(), so3_mod2_algebra(), totaro_algebra(1, 2),
              quotient(arnold_algebra(3)),
              quotient(punctured_plane_algebra(2, 1)),
              quotient(surface_cohomology(0)), sphere_mod2_model(4)):
        char = A.field.char
        kernel = [z for zs in kernel_of_mu(A).values() for z in zs]
        a = zcl_exact(A)
        value, exact, _ = unordered_power_iteration(kernel, kernel, char)
        assert a.value == value, A.label
        assert a.exact and exact
        bars = bar_generators(A)
        assert with_span_dims(lambda: zcl_exact(A)) == \
            unordered_power_iteration(bars, bars, char), A.label


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_zcl_exact_of_the_mod_ideal_model_is_2n(g, n):
    report = zcl_exact(mod_ideal_quotient(n, g))
    assert (report.value, report.exact) == (2 * n, True)


def test_zero_divisor_dimensions_of_the_torus():
    A = torus_ring()
    dims = {d: len(zs) for d, zs in kernel_of_mu(A).items()}
    assert dims == {0: 0, 1: 2, 2: 5, 3: 4, 4: 1}


def test_kernel_elements_are_killed_by_mu_and_form_an_ideal():
    rng = random.Random(99)
    A = totaro_algebra(1, 2)
    T = tensor_square(A)
    flat = [z for zs in kernel_of_mu(A).values() for z in zs]
    for z in flat:
        assert T.mu(z).is_zero()
    # multiply a few kernel elements by random tensors: still in the kernel
    pool = []
    for d1 in range(3):
        for mon in A.basis_monomials(d1):
            pool.append(T.tensor(Element(A, {mon: QQ.one}), A.one()))
            pool.append(T.tensor(A.one(), Element(A, {mon: QQ.one})))
    for _ in range(30):
        z = rng.choice(flat)
        t = rng.choice(pool)
        assert T.mu(T.multiply(z, t)).is_zero()
        assert T.mu(T.multiply(t, z)).is_zero()


def test_zcl_at_least_cup_length():
    for A, cl_want in ((torus_ring(), 2), (so3_mod2_algebra(), 3),
                       (totaro_algebra(1, 2), 3), (totaro_algebra(0, 2), 1)):
        c = cup_length(A)
        z = zcl_exact(A)
        assert c.value == cl_want
        assert z.value >= c.value


# ------------------------------------------------------------- certificates

def test_torus_certificates_through_n5():
    coeffs = {1: 1, 2: -1, 3: -1, 4: 1, 5: 1}
    for n in range(1, 6):
        A = totaro_algebra(1, n)
        cert = case_certificate("torus", A)
        assert cert.certified_length == 2 * n
        assert cert.coefficient == QQ.coerce(coeffs[n])
        names = tuple(A.free.mon_str(m) for m in cert.witness)
        assert names == ("*".join(f"b{i}" for i in range(1, n + 1)),
                         "*".join(f"a{i}" for i in range(1, n + 1)))


def test_certificate_never_exceeds_exact():
    A = totaro_algebra(1, 2)
    cert = case_certificate("torus", A)
    assert cert.certified_length <= zcl_exact(A).value


def test_genus2_certificates_through_n3():
    coeffs = {1: 2, 2: 2, 3: -2}
    for n in range(1, 4):
        cert = case_certificate("genus2", genus2_B_algebra(n))
        assert cert.certified_length == 2 * n + 2
        assert cert.coefficient == QQ.coerce(coeffs[n])


def test_genus2_seed_identity_bit_exact():
    H = quotient(surface_cohomology(2))
    T = tensor_square(H)
    seed = T.bar(H.gen("a"))
    for s in ("b", "c", "d"):
        seed = T.multiply(seed, T.bar(H.gen(s)))
    w = H.gen("c") * H.gen("d")  # normal form of the orientation class
    assert seed == T.tensor(w, w).scale(QQ.coerce(2))


def test_genus3_certificate_generalizes():
    cert = case_certificate("genus2", genus2_B_algebra(2, genus=3))
    assert cert.certified_length == 6
    assert cert.coefficient == QQ.coerce(2)


def test_genus3_certificate_reaches_n4():
    B = genus2_B_algebra(4, genus=3)
    assert B.hilbert() == [1, 24, 190, 592, 624, 20]
    cert = case_certificate("genus2", B)
    assert cert.certified_length == 10
    assert cert.coefficient == QQ.coerce(-2)


def test_sphere_certificates_through_n5():
    for n in range(3, 6):
        cert = case_certificate("sphere", sphere_mod2_model(n))
        assert cert.certified_length == 2 * n - 3
        assert cert.coefficient == 1  # GF(2)


def test_sphere_certificate_matches_exact_value():
    for n in (3, 4, 5):
        assert zcl_exact(sphere_mod2_model(n)).value == 2 * n - 3


def test_mod_ideal_certificates_all_k():
    coeffs = {1: 1, 2: -1, 3: -1, 4: 1}
    for n in range(1, 5):
        cert = case_certificate("punctured-mod-ideal", mod_ideal_quotient(n))
        assert cert.certified_length == 2 * n
        assert cert.coefficient == QQ.coerce(coeffs[n])


def test_mod_ideal_monomial_membership_example():
    # x1 y2 y3 must survive the quotient by (x1 y1, x_i y1 + x1 y_i)
    Aq = mod_ideal_quotient(3)
    a = [Aq.gen(f"a{i}") for i in (1, 2, 3)]
    b = [Aq.gen(f"b{i}") for i in (1, 2, 3)]
    x1 = a[0]
    y2 = b[1] - b[0]
    y3 = b[2] - b[0]
    assert not (x1 * y2 * y3).is_zero()
    assert (x1 * (b[0])).is_zero()  # x1 y1 is in the ideal


def test_certificate_rejects_non_zero_divisor():
    A = torus_ring()
    T = tensor_square(A)
    good = T.bar(A.gen("a"))
    bad = T.tensor(A.gen("a"), A.one())  # mu(bad) = a != 0
    with pytest.raises(CertificateError):
        certificate_product(T, [good, bad], (next(iter((A.gen("b") * A.gen("a")).terms)),) * 2)


def test_certificate_rejects_vanished_witness():
    A = torus_ring()
    T = tensor_square(A)
    ab = A.gen("a") * A.gen("b")
    mon = next(iter(ab.terms))
    bar_a = T.bar(A.gen("a"))
    with pytest.raises(CertificateError) as err:
        # abar*abar = 0 over Q, so the (ab, ab) coefficient is zero
        certificate_product(T, [bar_a, bar_a], (mon, mon))
    assert hasattr(err.value, "support")


def torus_monomial(A, *names):
    prod = A.one()
    for s in names:
        prod = prod * A.gen(s)
    return next(iter(prod.terms))


def test_certificate_returns_the_first_nonzero_candidate():
    A = torus_ring()
    T = tensor_square(A)
    a, b = torus_monomial(A, "a"), torus_monomial(A, "b")
    factors = [T.bar(A.gen("a")), T.bar(A.gen("b"))]
    # abar*bbar = ab(x)1 - a(x)b + b(x)a + 1(x)ab
    cert = certificate_product(T, factors, (a, a), (a, b))
    assert cert.witness == (a, b)
    assert cert.coefficient == QQ.coerce(-1)
    assert cert.certified_length == 2


def test_certificate_with_every_candidate_zero_reports_support():
    A = torus_ring()
    T = tensor_square(A)
    a, b = torus_monomial(A, "a"), torus_monomial(A, "b")
    factors = [T.bar(A.gen("a")), T.bar(A.gen("b"))]
    with pytest.raises(CertificateError) as err:
        certificate_product(T, factors, (a, a), (b, b))
    assert err.value.support == [("a", "b"), ("b", "a")]


def test_certificate_with_no_candidate_takes_the_least_basis_tensor():
    A = torus_ring()
    T = tensor_square(A)
    ab = torus_monomial(A, "a", "b")
    bar_a, bar_b = T.bar(A.gen("a")), T.bar(A.gen("b"))
    # abar*bbar = ab(x)1 - a(x)b + b(x)a + 1(x)ab, whose least term is 1(x)ab
    cert = certificate_product(T, [bar_a, bar_b])
    assert (cert.witness, cert.coefficient) == (((), ab), 1)
    with pytest.raises(CertificateError, match="2-fold product vanishes"):
        certificate_product(T, [bar_a, bar_a])


def test_certificate_refuses_candidates_of_mixed_bidegree():
    A = torus_ring()
    T = tensor_square(A)
    a, ab = torus_monomial(A, "a"), torus_monomial(A, "a", "b")
    factors = [T.bar(A.gen("a")), T.bar(A.gen("b"))]
    with pytest.raises(AlgebraError, match="bidegree") as err:
        certificate_product(T, factors, (a, a), (ab, ab))
    assert not isinstance(err.value, CertificateError)


def test_bar_product_certificate_lengths():
    for n, want in ((1, 0), (2, 1), (3, 3), (4, 5)):
        cert = bar_product_certificate(quotient(arnold_algebra(n)), want)
        assert cert.certified_length == want
    for n, k, want in ((1, 1, 1), (2, 1, 3), (3, 1, 5), (2, 2, 4),
                       (1, 3, 2), (2, 3, 4), (3, 3, 6),
                       (1, 4, 2), (2, 4, 4), (3, 4, 6)):
        cert = bar_product_certificate(
            quotient(punctured_plane_algebra(n, k)), want)
        assert cert.certified_length == want


@pytest.mark.parametrize("certify", [
    lambda: case_certificate("torus", totaro_presentation(1, 2)),
    lambda: case_certificate("genus2", genus2_B_presentation(2)),
    lambda: case_certificate("sphere", sphere_mod2_model(4)),
    lambda: case_certificate("punctured-mod-ideal", mod_ideal_presentation(3)),
    lambda: bar_product_certificate(quotient(arnold_algebra(4)), 5),
], ids=["torus", "genus2", "sphere", "punctured-mod-ideal", "bar-product"])
def test_certificates_never_build_the_pair_basis(certify, monkeypatch):
    # the block families square only the surface ring, for its diagonal
    made = []
    init = TensorSquareAlgebra.__init__

    def recording(self, A):
        made.append(self)
        init(self, A)

    monkeypatch.setattr(TensorSquareAlgebra, "__init__", recording)
    cert = certify()
    assert made
    for T in made:
        assert "basis" not in vars(T) and "index" not in vars(T)
    if cert.algebra.startswith(("totaro", "b-sigma", "mod-ideal")):
        assert all(T.A.label.startswith("surface(") for T in made)


BLOCK_GRID = (
    [("torus", 1, n) for n in range(1, 6)]
    + [("genus2", 2, n) for n in range(1, 6)]
    + [("genus2", 3, n) for n in range(1, 5)]
    + [("punctured-mod-ideal", 2, n) for n in range(1, 6)]
    + [("punctured-mod-ideal", 3, n) for n in range(1, 4)])
BLOCK_BUILDERS = {
    "torus": (lambda g, n: totaro_presentation(g, n),
              lambda g, n: totaro_algebra(g, n)),
    "genus2": (lambda g, n: genus2_B_presentation(n, g),
               lambda g, n: genus2_B_algebra(n, g)),
    "punctured-mod-ideal": (lambda g, n: mod_ideal_presentation(n, g),
                            lambda g, n: mod_ideal_quotient(n, g)),
}


@pytest.mark.parametrize("case,g,n", BLOCK_GRID,
                         ids=[f"{c}-g{g}-n{n}" for c, g, n in BLOCK_GRID])
def test_block_families_match_the_full_quotient_oracle(case, g, n):
    present, build = BLOCK_BUILDERS[case]
    cert = case_certificate(case, present(g, n))
    want = full_quotient_certificate(case, build(g, n))
    assert (cert.witness, cert.coefficient) == (want.witness, want.coefficient)
    assert cert.to_json() == want.to_json()
    assert cert.certified_length == want.certified_length


def test_block_families_build_no_quotient_but_the_surface_ring(monkeypatch):
    """The g >= 1 rows of `tc --sweep 2 4 0` and the mod-ideal n=5
    certificate run on weight blocks: the one quotient they build is the
    surface ring, for its diagonal class."""
    built = []
    init = QuotientAlgebra.__init__

    def recording(self, pres):
        built.append(pres.label)
        init(self, pres)

    monkeypatch.setattr(QuotientAlgebra, "__init__", recording)
    for g in (1, 2):
        for n in range(1, 5):
            assert tc_report(g, n).status == "tight"
    cert = zcl.zcl_bound("mod-ideal", {"n": 5}, "certificate")
    assert cert.certified_length == 10
    assert built and all(label.startswith("surface(g=") for label in built)


@pytest.mark.parametrize("g,n", [(2, 7), (3, 6)])
def test_closed_surface_rows_past_the_full_quotient_are_tight(g, n):
    # the full quotient of b-sigma exceeds the budget at both
    report = tc_report(g, n)
    assert report.status == "tight"
    assert report.lower == 2 * n + 3


def test_a_closed_surface_row_far_past_the_frontier_is_refused_by_budget():
    with pytest.raises(ResourceBudgetError, match=r"b-sigma\(g=2,n=40\): degree"):
        tc_report(2, 40)
    assert tc_report(2, 8).status == "tight"
    # the bound reads the survivors of lower blocks, each checked first
    with pytest.raises(ResourceBudgetError, match=re.escape(
            "b-sigma(g=2,n=9): degree 8 weight [-2, 0] needs up to 625968 "
            "columns and 385560 relation products")):
        tc_report(2, 9)


def test_the_split_product_counts_its_tensors_against_the_budget(monkeypatch):
    pres = totaro_presentation(1, 3)
    assert case_certificate("torus", pres).coefficient == -1
    # every block is built now, so only the product can exceed the budget
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 0)
    with pytest.raises(ResourceBudgetError, match="the bar product holds 1 "
                       "basis tensors after 1 factors"):
        case_certificate("torus", pres)


@pytest.mark.parametrize("case,build", [
    ("torus", lambda: quotient(arnold_algebra(3))),
    ("genus2", lambda: totaro_algebra(1, 2)),
    ("sphere", so3_mod2_algebra),
    ("sphere", lambda: totaro_algebra(1, 2)),
    ("punctured-mod-ideal", lambda: quotient(surface_cohomology(1))),
], ids=["torus-on-arnold", "genus2-on-torus", "sphere-on-so3",
        "sphere-on-torus", "mod-ideal-on-surface"])
def test_family_refuses_a_model_it_cannot_run_on(case, build):
    A = build()
    with pytest.raises(AlgebraError, match=re.escape(A.label)):
        case_certificate(case, A)


@pytest.mark.parametrize("length", [2.5, True], ids=repr)
def test_bar_product_length_that_is_not_an_int_is_refused(length):
    with pytest.raises(AlgebraError, match="expected an integer"):
        bar_product_certificate(quotient(arnold_algebra(3)), length)


def test_bar_product_certificate_stops_at_the_truth():
    cert = bar_product_certificate(torus_ring(), 3)  # zcl of the torus is 2
    assert cert.certified_length == 2


SEARCH_GRID = (
    [("arnold", {"n": n, "field": f}) for n in range(1, 6) for f in (QQ, GF2)]
    + [("punctured-plane", {"n": n, "punctures": k})
       for n in range(1, 6) for k in range(1, 7 - n)]
    + [("surface", {"g": g}) for g in range(4)]
    + [("totaro", {"g": g, "n": n}) for g in (0, 2) for n in range(1, 4)]
    + [("so3-mod2", {})])


@pytest.mark.parametrize("token,given", SEARCH_GRID,
                         ids=[f"{t}-{sorted(g.items())}" for t, g in SEARCH_GRID])
def test_search_matches_the_restart_climb(token, given):
    A = resolve_model(token, **given)
    for cap in (None, 1, 2, 3, 5, 9):
        assert bar_product_certificate(A, cap).to_json() == \
            restart_climb_certificate(A, cap).to_json(), cap


def test_the_search_counts_its_products_against_the_budget(monkeypatch):
    A = quotient(punctured_plane_algebra(2, 2))
    assert bar_product_certificate(A).certified_length == 4
    monkeypatch.setattr(zcl, "SEARCH_BUDGET", 0)
    with pytest.raises(ResourceBudgetError, match=re.escape(
            "punctured-plane(n=2,k=2): the bar-product search reached length "
            "0 and needs more than 0 tensor products, over the budget")):
        bar_product_certificate(A)
    # the search forms 8 products: 4 to reach length 4, 4 to find none longer
    monkeypatch.setattr(zcl, "SEARCH_BUDGET", 3)
    with pytest.raises(ResourceBudgetError, match="reached length 2 and "
                       "needs more than 3 tensor products"):
        bar_product_certificate(A)
    monkeypatch.setattr(zcl, "SEARCH_BUDGET", 7)
    with pytest.raises(ResourceBudgetError, match="reached length 4"):
        bar_product_certificate(A)
    monkeypatch.setattr(zcl, "SEARCH_BUDGET", 8)
    assert bar_product_certificate(A).certified_length == 4


@pytest.mark.parametrize("model,given,case", [
    ("totaro", {"g": 1, "n": 2}, "torus"), ("b-sigma", {"n": 2}, "genus2"),
    ("sphere-mod2", {"n": 3}, "sphere"), ("mod-ideal", {"n": 2},
                                          "punctured-mod-ideal")])
def test_zcl_bound_refuses_a_cap_on_a_fixed_length_family(model, given, case):
    with pytest.raises(AlgebraError, match=re.escape(
            f"--cap does not apply to the {case} certificate, whose length "
            "is fixed")):
        zcl.zcl_bound(model, given, "certificate", 3)


@pytest.mark.parametrize("model,method", [
    ("b-sigma", "exact"), ("b-sigma", "certificate"),
    ("arnold", "certificate")])
def test_zcl_bound_checks_the_cap_before_it_builds(monkeypatch, model, method):
    def refused(**options):
        raise AssertionError("built")

    monkeypatch.setattr(zcl.MODELS[model], "build", refused)
    monkeypatch.setattr(zcl.MODELS[model], "present", refused)
    for cap in (0, -1):
        with pytest.raises(AlgebraError,
                           match=f"^cap must be at least 1, got {cap}$"):
            zcl.zcl_bound(model, {"n": 5}, method, cap)


def test_sphere_family_with_a_vanished_prefix_is_a_certificate_error():
    A = sphere_mod2_model(4)
    pres, a = A.presentation, A.free.gen("a")
    B = quotient(AlgebraPresentation(pres.free, pres.relations + [a * a],
                                     top_degree=pres.top_degree))
    B.points = 4
    with pytest.raises(CertificateError, match="extends abar"):
        case_certificate("sphere", B)


@pytest.mark.parametrize("n", range(3, 8))
def test_sphere_family_multiplies_abar_cubed_by_the_puncture_loops(
        n, monkeypatch):
    """The product is formed once, one tensor product per factor, and the
    witness is read off that expansion."""
    A = sphere_mod2_model(n)
    T = tensor_square(A)
    names = ["a"] * 3 + [f"e{i}_{q}" for i in range(1, n - 2) for q in (0, 1)]
    formed = []
    multiply = TensorSquareAlgebra.multiply

    def counted_multiply(self, *args, **kwargs):
        formed.append(1)
        return multiply(self, *args, **kwargs)

    monkeypatch.setattr(TensorSquareAlgebra, "multiply", counted_multiply)
    cert = case_certificate("sphere", A)
    assert len(formed) == 2 * n - 3
    assert cert.factors == [T.bar(A.gen(s)) for s in names]
    assert cert.certified_length == 2 * n - 3


def test_sphere_family_refuses_a_model_missing_a_loop():
    free = FreeAlgebra(GF2, [("a", 1), ("e1_0", 1)])
    a, e = free.gen("a"), free.gen("e1_0")
    B = quotient(AlgebraPresentation(free, [a * a * a * a, e * e], top_degree=4,
                                     label="sphere-without-e1_1"))
    B.points = 4
    with pytest.raises(AlgebraError,
                       match=r"sphere-without-e1_1: .*missing \['e1_1'\]"):
        case_certificate("sphere", B)


@pytest.mark.parametrize("model,method,bad", [
    ("totaro", "Exact", "Exact"), ("totaro", "bogus", "bogus"),
    ("no-such-model", "exact", "no-such-model"),
    ("no-such-model", "certificate", "no-such-model")])
def test_zcl_bound_refuses_an_unknown_model_or_method(model, method, bad):
    with pytest.raises(AlgebraError, match=bad):
        zcl.zcl_bound(model, {"g": 1, "n": 1}, method)


def test_zcl_bound_reads_its_options_as_model_options_does():
    with pytest.raises(UnsupportedModelError,
                       match="so3-mod2 does not take a genus"):
        zcl.zcl_bound("so3-mod2", {"g": 1})
    # n is not given and takes the totaro default, 1
    report = zcl.zcl_bound("totaro", {"g": 1})
    assert report.to_json() == zcl_exact(totaro_algebra(1, 1)).to_json()
    assert (report.value, report.exact) == (2, True)


def test_bar_generators_drop_zero_bars():
    A = torus_ring()
    bars = bar_generators(A)
    assert len(bars) == 2


# --------------------------------------------------- monotonicity instances

def test_lemma_subalgebra_instance():
    # slot-one H*(T) embeds in the n=2 torus model
    assert zcl_exact(torus_ring()).value <= zcl_exact(totaro_algebra(1, 2)).value


def test_lemma_epimorphism_instance():
    # the pair-ideal quotient B is an image of the genus-2 model at n=2
    zB = zcl_exact(genus2_B_algebra(2)).value
    zA = zcl_exact(totaro_algebra(2, 2)).value
    assert zB == 6
    assert zA == 6
    assert zA >= zB


def test_lemma_tensor_instance():
    # sphere model = so3 factor (x) planar factor; zcl is superadditive
    z_left = zcl_exact(so3_mod2_algebra()).value
    z_right = zcl_exact(quotient(punctured_plane_algebra(1, 2))).value
    z_total = zcl_exact(sphere_mod2_model(4)).value
    assert (z_left, z_right, z_total) == (3, 2, 5)
    assert z_total >= z_left + z_right


# ------------------------------------------------------- order independence

def test_zcl_is_declaration_order_independent():
    pres = totaro_algebra(1, 2).presentation
    data = pres.to_json()
    data["generators"] = list(reversed(data["generators"]))
    flipped = quotient(AlgebraPresentation.from_json(data))
    assert sorted(flipped.hilbert()) == sorted(totaro_algebra(1, 2).hilbert())
    assert zcl_exact(flipped).value == 4


# ----------------------------------------------------------------- E2 probe

def test_e2_probe_frozen_and_consistent():
    frozen = {2: (2, 2, 0), 3: (12, 10, 2), 4: (36, 28, 8)}
    for n, (dim, rank, ker) in frozen.items():
        rep = e2_probe(n)
        assert (rep.dim_source, rep.rank, rep.kernel_dim) == (dim, rank, ker)
        assert rep.kernel_dim == rep.dim_source - rep.rank
        assert e2_probe(n).kernel_dim == ker


def test_mod_ideal_quotient_rejects_degenerate_sizes():
    with pytest.raises(AlgebraError):
        mod_ideal_quotient(0)
    with pytest.raises(AlgebraError):
        mod_ideal_quotient(2, genus=0)


def test_mod_ideal_certificate_honours_the_genus():
    for n, length in ((2, 4), (3, 6)):
        cert = case_certificate("punctured-mod-ideal",
                                mod_ideal_quotient(n, genus=3))
        assert cert.algebra == f"mod-ideal(g=3,n={n})"
        assert cert.certified_length == length
        assert cert.coefficient != 0


def test_zcl_reexports_the_mod_ideal_builder():
    from tcsurf import models
    assert mod_ideal_quotient is models.mod_ideal_quotient
