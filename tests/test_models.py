import pytest

from tcsurf.errors import (AlgebraError, ModelInconsistencyError,
                           UnsupportedModelError)
from tcsurf import models
from tcsurf.exterior import FreeAlgebra
from tcsurf.fields import GF2, QQ
from tcsurf.models import (MODELS, arnold_algebra, genus2_B_algebra,
                           mod_ideal_quotient, model_options,
                           punctured_plane_algebra,
                           reduced_generators, resolve_model, so3_mod2_algebra,
                           sphere_mod2_model, surface_cohomology,
                           surface_diagonal, totaro_algebra, xJyK_pairs)
from tcsurf.presentation import AlgebraPresentation, quotient, tensor_square
from tcsurf.zcl import case_certificate

from .oracles import (eqA_basis_count, eqA_dimension, poly_mul,
                      punctured_hilbert)


def test_surface_hilbert_series():
    for g in range(4):
        assert quotient(surface_cohomology(g)).hilbert() == [1, 2 * g, 1]


def test_surface_char2_variant():
    A = quotient(surface_cohomology(1, GF2))
    assert A.hilbert() == [1, 2, 1]


def test_arnold_matches_rising_product():
    for n in range(1, 6):
        want = [[1]] + [poly_mul([1], [1, k]) for k in range(1, n)]
        acc = [1]
        for k in range(1, n):
            acc = poly_mul(acc, [1, k])
        assert quotient(arnold_algebra(n)).hilbert() == acc


def test_punctured_plane_matches_product_formula():
    for field in (QQ, GF2):
        for k in range(5):
            for n in range(0 if k else 1, 5):
                got = quotient(punctured_plane_algebra(n, k, field)).hilbert()
                want = punctured_hilbert(n, k)
                # k = 0: the oracle's factor (1 + 0 t) leaves one trailing zero
                assert got == (want[:-1] if k == 0 else want), (field, n, k)


def test_punctured_plane_one_puncture_is_arnold_shifted():
    for n in range(1, 4):
        got = quotient(punctured_plane_algebra(n, 1)).hilbert()
        assert got == quotient(arnold_algebra(n + 1)).hilbert()


def test_punctured_plane_rejects_out_of_range_counts():
    for points, punctures in ((2, -1), (0, 0)):
        with pytest.raises(AlgebraError):
            punctured_plane_algebra(points, punctures)


@pytest.mark.parametrize("build", [
    arnold_algebra,
    lambda v: punctured_plane_algebra(v, 2),
    lambda v: punctured_plane_algebra(2, v),
    surface_cohomology,
    lambda v: totaro_algebra(1, v),
    lambda v: totaro_algebra(v, 2),
    genus2_B_algebra,
    sphere_mod2_model,
    mod_ideal_quotient,
], ids=["arnold", "punctured-points", "punctures", "surface", "totaro-n",
        "totaro-g", "b-sigma", "sphere-mod2", "mod-ideal"])
@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=repr)
def test_builders_refuse_non_integer_counts(build, value):
    with pytest.raises(AlgebraError):
        build(value)


def test_totaro_torus_matches_closed_form():
    for n in range(1, 6):
        h = totaro_algebra(1, n).hilbert()
        want = []
        d = 0
        while True:
            v = eqA_dimension(n, d)
            if v == 0:
                break
            want.append(v)
            d += 1
        assert h == want, n


def test_eqA_enumeration_agrees_with_closed_form():
    for n in range(2, 7):
        enum = eqA_basis_count(n)
        form = [eqA_dimension(n, d) for d in range(len(enum))]
        assert enum == form


def test_xJyK_pair_count():
    # (s+1) C(n-1, s) pairs of total size s
    from math import comb
    for n in range(2, 7):
        pairs = xJyK_pairs(n)
        by_size = {}
        for J, K in pairs:
            by_size[len(J) + len(K)] = by_size.get(len(J) + len(K), 0) + 1
        for s, c in by_size.items():
            assert c == (s + 1) * comb(n - 1, s)


def test_dependent_xJyK_monomials_name_their_degree(monkeypatch):
    """A repeated x_J y_K pair makes its degree dependent, and the model
    check refuses the quotient there."""
    pairs = xJyK_pairs
    monkeypatch.setattr(models, "xJyK_pairs",
                        lambda n: pairs(n) + [((2,), (3,))])
    with pytest.raises(ModelInconsistencyError,
                       match=r"dependent in degree 2 \(rank 3 of 4\)"):
        genus2_B_algebra(3)


def test_diagonal_annihilation_up_to_genus_three():
    for g in range(4):
        delta, H = surface_diagonal(g)
        T = tensor_square(H)
        for name in H.free.names:
            assert T.multiply(T.bar(H.gen(name)), delta).is_zero(), (g, name)


def test_surface_diagonal_is_built_once_per_genus(monkeypatch):
    built, real = [], models.quotient

    def counted(pres, *args):
        built.append(pres.label)
        return real(pres, *args)

    monkeypatch.setattr(models, "quotient", counted)
    first = surface_diagonal(2)
    assert built == ["surface(g=2)"]
    assert surface_diagonal(2) is first
    models.genus2_B_presentation(2, 2)
    models.totaro_presentation(2, 3)
    assert built == ["surface(g=2)"]
    surface_diagonal(1)
    assert built == ["surface(g=2)", "surface(g=1)"]


def test_surface_diagonal_refuses_a_class_some_bar_does_not_kill(monkeypatch):
    """A degree-1 class c that pairs to zero with everything breaks Poincare
    duality, so the written-out torus diagonal no longer spans the classes
    every bar kills: bar(c) Delta = c (x) ab - ab (x) c."""
    free = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1)])
    a, b, c = (free.gen(s) for s in "abc")
    ring = AlgebraPresentation(free, [a * c, b * c], top_degree=2,
                               label="torus-with-c")
    monkeypatch.setattr(models, "surface_cohomology", lambda g: ring)
    with pytest.raises(ModelInconsistencyError,
                       match=r"torus-with-c: .* not annihilated by bar\(c\)"):
        surface_diagonal(1)


def test_genus2_diagonal_normal_form():
    """The diagonal of the genus-g surface for g = 0 ... 3, written out in
    normal form: the degree-2 basis monomial is the last handle's product,
    to which every other handle's product reduces."""
    delta, H = surface_diagonal(0)
    T, one, w = tensor_square(H), H.one(), H.gen("w")
    assert delta == T.tensor(one, w) + T.tensor(w, one)

    delta, H = surface_diagonal(1)
    T, one = tensor_square(H), H.one()
    a, b = (H.gen(s) for s in "ab")
    w = a * b
    assert delta == (T.tensor(one, w) + T.tensor(w, one)
                     - T.tensor(a, b) + T.tensor(b, a))

    delta, H = surface_diagonal(2)
    T, one = tensor_square(H), H.one()
    a, b, c, d = (H.gen(s) for s in "abcd")
    w = c * d  # ab reduces to cd
    assert (a * b) == w
    assert delta == (T.tensor(one, w) + T.tensor(w, one)
                     - T.tensor(a, b) + T.tensor(b, a)
                     - T.tensor(c, d) + T.tensor(d, c))

    delta, H = surface_diagonal(3)
    T, one = tensor_square(H), H.one()
    a, b, c, d, e, f = (H.gen(s) for s in "abcdef")
    w = e * f  # ab and cd reduce to ef
    assert (a * b) == w and (c * d) == w
    assert delta == (T.tensor(one, w) + T.tensor(w, one)
                     - T.tensor(a, b) + T.tensor(b, a)
                     - T.tensor(c, d) + T.tensor(d, c)
                     - T.tensor(e, f) + T.tensor(f, e))


def test_totaro_torus_relation_span_postcondition():
    # constructor would raise if the degree-2 ideal were not the xy span
    totaro_algebra(1, 3)


def test_totaro_sphere_small():
    assert totaro_algebra(0, 1).hilbert() == [1, 0, 1]
    assert totaro_algebra(0, 2).hilbert() == [1, 0, 1, 0, 0]


def test_reduced_generators_refuse_an_algebra_that_is_not_a_diagonal_model():
    with pytest.raises(AlgebraError, match="diagonal-ideal model"):
        reduced_generators(quotient(arnold_algebra(3)))


def test_reduced_generator_identities_on_the_torus_model():
    A = totaro_algebra(1, 3)
    red = reduced_generators(A)
    for j in range(1, 3):
        assert (red.xs[j] * red.ys[j]).is_zero()
        for i in range(1, j):
            assert (red.xs[j] * red.ys[i] + red.xs[i] * red.ys[j]).is_zero()


def test_b_sigma_hilbert_frozen():
    assert genus2_B_algebra(1).hilbert() == [1, 4, 1]
    assert genus2_B_algebra(2).hilbert() == [1, 8, 13, 2]
    assert genus2_B_algebra(3).hilbert() == [1, 12, 36, 28, 3]


def test_b_sigma_needs_genus_two():
    with pytest.raises(AlgebraError):
        genus2_B_algebra(2, genus=1)


def test_sphere_model_is_a_twisted_tensor_product():
    for n in range(3, 6):
        got = sphere_mod2_model(n).hilbert()
        want = poly_mul([1, 1, 1, 1], punctured_hilbert(n - 3, 2))
        assert got == want, n


def test_sphere_model_needs_three_points():
    with pytest.raises(UnsupportedModelError):
        sphere_mod2_model(2)


def test_so3_model():
    A = so3_mod2_algebra()
    assert A.hilbert() == [1, 1, 1, 1, 0]
    a = A.gen("a")
    assert not (a * a * a).is_zero()
    assert (a * a * a * a).is_zero()


def test_surface_genus_beyond_letter_pairs_rejected():
    with pytest.raises(UnsupportedModelError):
        surface_cohomology(14)


def test_resolvers_cover_all_tokens():
    assert resolve_model("totaro", g=1, n=2).hilbert() == [1, 4, 5, 2]
    assert resolve_model("b-sigma", n=2).hilbert() == [1, 8, 13, 2]
    assert resolve_model("sphere-mod2", n=3).hilbert() == [1, 1, 1, 1]
    assert resolve_model("so3-mod2").hilbert() == [1, 1, 1, 1, 0]
    assert resolve_model("surface", g=2).hilbert() == [1, 4, 1]
    assert resolve_model("arnold", n=3).hilbert() == [1, 3, 2]
    assert resolve_model("punctured-plane", n=2, punctures=1).hilbert() == [1, 3, 2]
    pres = resolve_model("surface", g=1).presentation
    assert pres.free.names == ("a", "b")
    with pytest.raises(UnsupportedModelError):
        resolve_model("mystery").presentation


def test_model_label_metadata():
    A = totaro_algebra(1, 2)
    assert A.genus == 1
    assert A.points == 2
    assert (1, 2) in A.diagonals


def test_resolve_keeps_an_explicit_zero():
    with pytest.raises(AlgebraError):
        resolve_model("totaro", g=1, n=0)
    with pytest.raises(AlgebraError):
        resolve_model("b-sigma", n=0).presentation


def test_resolve_refuses_options_the_model_cannot_honour():
    assert resolve_model("arnold", n=3, field=GF2).field == GF2
    assert resolve_model("surface", g=1, field=GF2).hilbert() == [1, 2, 1]
    with pytest.raises(UnsupportedModelError):
        resolve_model("totaro", g=1, n=2, field=GF2)
    with pytest.raises(UnsupportedModelError):
        resolve_model("sphere-mod2", n=3, field=GF2)
    with pytest.raises(UnsupportedModelError):
        resolve_model("surface", g=1, punctures=5).presentation
    with pytest.raises(UnsupportedModelError):
        resolve_model("arnold", n=3, punctures=1).presentation


OPTION_VALUES = {"g": 1, "n": 1, "punctures": 1, "field": QQ}


@pytest.mark.parametrize("token", sorted(MODELS))
def test_every_model_builds_with_its_defaults(token):
    spec = MODELS[token]
    assert set(spec.defaults) <= set(OPTION_VALUES)
    assert model_options(token) == spec.defaults
    A = resolve_model(token)
    assert A.hilbert()[0] == 1
    case = spec.case(spec.defaults)
    if case is not None:
        assert case_certificate(case, A).certified_length > 0


@pytest.mark.parametrize("token,option", [
    (t, o) for t in sorted(MODELS) for o in sorted(OPTION_VALUES)
    if o not in MODELS[t].defaults])
def test_every_option_outside_the_defaults_is_refused(token, option):
    given = {option: OPTION_VALUES[option]}
    with pytest.raises(UnsupportedModelError, match=f"{token} does not take"):
        model_options(token, **given)
    with pytest.raises(UnsupportedModelError):
        resolve_model(token, **given)


def test_model_options_fill_only_absent_values():
    assert model_options("totaro", g=0, n=None) == {"g": 0, "n": 1}
    assert model_options("punctured-plane", punctures=1, field=None) == {
        "n": 1, "punctures": 1, "field": GF2}
    with pytest.raises(UnsupportedModelError):
        model_options("mystery")
