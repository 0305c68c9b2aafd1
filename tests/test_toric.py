"""Toric and product certificates: the ring maps kill the models' relations,
the restricted products are +-1, and the products match the model
families and the quotient route they replace."""

import pytest

from tcsurf import zcl
from tcsurf.errors import CertificateError
from tcsurf.fields import GF2, QQ
from tcsurf.models import (genus2_B_presentation, punctured_plane_algebra,
                           sphere_mod2_model, totaro_presentation)
from tcsurf.tcreport import ProductCertificate, _family, sweep, tc_theorem
from tcsurf.toric import (ToricCertificate, bar_value, circle, handle_tori,
                          puncture_loops, restrict)

from .oracles import quotient_route_lower_bound


def lower_certificate(g, n, m):
    """The certificate a tc row reads its lower bound from."""
    return _family(g, n, m)[3]()


def unkilled(image, pres, field):
    """The relations of pres whose restriction by image is not zero."""
    names = pres.free.names
    return [r for r in pres.relations
            if restrict(image, names, r.terms, field)]


DIAGONAL_MODELS = (
    [(f"totaro(1,{n})", n, lambda n=n: totaro_presentation(1, n))
     for n in range(1, 6)]
    + [(f"b-sigma({g},{n})", n, lambda g=g, n=n: genus2_B_presentation(n, g))
       for g, top in ((2, 5), (3, 4)) for n in range(1, top + 1)])


@pytest.mark.parametrize("field", [QQ, GF2], ids=repr)
@pytest.mark.parametrize("label,n,present", DIAGONAL_MODELS,
                         ids=[label for label, _, _ in DIAGONAL_MODELS])
def test_handle_tori_kill_the_diagonal_models(label, n, present, field):
    cert, pres = handle_tori(n, field), present()
    for image in (cert.left, cert.right):
        assert not unkilled(image, pres, field)


@pytest.mark.parametrize("field", [QQ, GF2], ids=repr)
@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6)
                                 for k in range(2, 5)])
def test_puncture_loops_kill_the_punctured_planes(n, k, field):
    cert = puncture_loops(n, field)
    pres = punctured_plane_algebra(n, k, field)
    for image in (cert.left, cert.right):
        assert not unkilled(image, pres, field)


@pytest.mark.parametrize("field", [QQ, GF2], ids=repr)
def test_the_circle_and_the_sphere_factor_kill_their_models(field):
    cert = circle(field)
    assert not unkilled(cert.left, punctured_plane_algebra(1, 1, field), field)
    for n in range(4, 7):
        loops = puncture_loops(n - 3, GF2)
        pres = sphere_mod2_model(n).presentation
        for image in (loops.left, loops.right):
            assert not unkilled(image, pres, GF2)


def test_a_wrong_image_fails_the_kill_test():
    pres = totaro_presentation(1, 3)
    alpha = dict(handle_tori(3).right)
    alpha["b1"] = {1: 1}  # r_alpha(b_1) = t_1: beta is not dual to alpha
    assert unkilled(alpha, pres, QQ)
    loop = dict(puncture_loops(3).right)
    loop["e12"] = {}  # point 2 no longer winds around point 1
    assert unkilled(loop, punctured_plane_algebra(3, 2), QQ)


def test_restriction_is_a_ring_map_on_monomials():
    # t1 t2 = -t2 t1, t1 t1 = 0, and a generator outside the map goes to 0
    image = {"x": {1: 1}, "y": {2: 3}}
    names = ("x", "y", "z")
    assert restrict(image, names, {(0, 1): 1}, QQ) == {0b11: 3}
    assert restrict(image, names, {(1, 0): 1}, QQ) == {0b11: -3}
    assert restrict(image, names, {(0, 0): 1}, QQ) == {}
    assert restrict(image, names, {(0, 2): 1, (): 5}, QQ) == {0: 5}


def test_bar_value_follows_the_koszul_rule():
    # bar(x) bar(y) with r(x) = t1, r(y) = t2 on both sides:
    # (t1 (x) 1 - 1 (x) t1)(t2 (x) 1 - 1 (x) t2)
    #   = t1t2 (x) 1 - t1 (x) t2 + t2 (x) t1 + 1 (x) t1t2
    image = {"x": {1: 1}, "y": {2: 1}}
    assert bar_value(image, image, ["x", "y"], QQ) == {
        (0b11, 0): 1, (0b01, 0b10): -1, (0b10, 0b01): 1, (0, 0b11): 1}
    assert bar_value(image, image, ["x", "x"], QQ) == {}  # bar(x) is odd


OPEN_GRID = [(g, n, m) for g in range(4) for n in range(1, 7)
             for m in range(1, 5) if g or m >= 3]


@pytest.mark.parametrize("g,n,m", OPEN_GRID)
def test_the_toric_value_is_plus_or_minus_one(g, n, m):
    cert = lower_certificate(g, n, m)
    assert isinstance(cert, ToricCertificate)
    full = (1 << n) - 1
    assert list(cert.value) == [(full, full)]
    assert cert.value[full, full] in (1, -1)
    assert cert.certified_length == 2 * n == tc_theorem(g, n, m) - 1


def test_a_vanishing_restriction_is_refused():
    beta = {"b1": {1: 1}}
    with pytest.raises(CertificateError, match="restrict to zero"):
        ToricCertificate("T_beta x T_beta", beta, beta, ["a1", "b1"])


@pytest.mark.parametrize("n", range(3, 7))
def test_the_sphere_product_has_the_sphere_familys_length(n):
    cert = lower_certificate(0, n, 0)
    assert isinstance(cert, ProductCertificate)
    family = zcl.case_certificate("sphere", sphere_mod2_model(n))
    assert cert.certified_length == family.certified_length == 2 * n - 3
    (so3_space, so3), *loops = cert.factors
    assert so3_space == "SO(3)" and so3.certified_length == 3
    assert so3.algebra == "Z2[a]/(a^4)" and so3.free.field is GF2
    assert all(c.field is GF2 for _, c in loops)


def test_the_table_runs_no_exact_iteration(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("zcl_exact called")

    monkeypatch.setattr(zcl, "zcl_exact", refused)
    rows = sweep(2, 4, 0) + sweep(0, 4, 3)
    assert all(r.status == "tight" for r in rows)


@pytest.mark.parametrize("n,m,factors", [
    (1, 1, []), (2, 1, [1]), (5, 1, [1, 6]), (1, 2, [1]), (4, 2, [1, 6])])
def test_the_planar_products_sum_their_factors(n, m, factors):
    cert = lower_certificate(0, n, m)
    assert [c.certified_length for _, c in cert.factors] == factors
    assert cert.certified_length == sum(factors) == tc_theorem(0, n, m) - 1


QUOTIENT_GRID = ([(0, n, m) for n in range(1, 5) for m in range(5)
                  if (n, m) not in ((1, 0), (2, 0))]
                 + [(1, n, 0) for n in range(1, 5)])


@pytest.mark.parametrize("g,n,m", QUOTIENT_GRID)
def test_certificates_match_the_quotient_route(g, n, m):
    assert lower_certificate(g, n, m).certified_length == \
        quotient_route_lower_bound(g, n, m)
