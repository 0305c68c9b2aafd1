import random
from unittest import mock

import pytest

from tcsurf.errors import (AlgebraError, HomogeneityError, MismatchError,
                           ModelInconsistencyError, ResourceBudgetError,
                           TruncationError, UnsupportedModelError)
from tcsurf.exterior import Element, FreeAlgebra
from tcsurf.fields import GF2, QQ
from tcsurf import linalg, presentation
from tcsurf.models import (MODELS, arnold_algebra, genus2_B_algebra,
                           genus2_B_presentation, model_options,
                           punctured_plane_algebra, so3_mod2_algebra,
                           sphere_mod2_model, surface_cohomology,
                           surface_diagonal, totaro_algebra,
                           totaro_presentation)
from tcsurf.presentation import (AlgebraPresentation, block_reduce, convolve,
                                 hilbert_series, quotient, split_relations,
                                 tensor_square, weight_add, weight_block,
                                 weight_blocks)
from tcsurf.zcl import case_certificate, mod_ideal_quotient, zcl_exact

from .oracles import (all_products_mismatches, full_elimination_mismatches,
                      poly_mul, tensor_pairs)


def torus_presentation():
    return surface_cohomology(1)


def test_quotient_dimensions_frozen():
    assert quotient(surface_cohomology(1)).hilbert() == [1, 2, 1]
    assert quotient(surface_cohomology(2)).hilbert() == [1, 4, 1]
    assert quotient(arnold_algebra(3)).hilbert() == [1, 3, 2]
    assert totaro_algebra(1, 2).hilbert() == [1, 4, 5, 2]


def test_inhomogeneous_relation_rejected():
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1)])
    with pytest.raises(HomogeneityError):
        AlgebraPresentation(F, [F.gen("a") + F.gen("a") * F.gen("b")])


def test_nonzero_scalar_relation_rejected():
    F = FreeAlgebra(QQ, [("a", 1)])
    with pytest.raises(AlgebraError, match="nonzero scalar"):
        AlgebraPresentation(F, [F.one()])
    assert AlgebraPresentation(F, [F.zero()]).relations == []


def test_natural_bound_all_odd():
    pres = torus_presentation()
    assert pres.natural_bound() == 2


def test_budget_guard():
    big = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(40)])
    pres = AlgebraPresentation(big, [])
    with pytest.raises(ResourceBudgetError):
        quotient(pres)  # C(40, 20) monomials in degree 20


def test_budget_refuses_a_degree_before_enumerating_it(monkeypatch):
    F = FreeAlgebra(QQ, [(name, 1) for name in "abcd"])
    a, b, c, d = (F.gen(name) for name in "abcd")
    pres = AlgebraPresentation(F, [a * b - c * d])
    asked = []
    enumerate_monomials = F.monomials_of_degree
    monkeypatch.setattr(F, "monomials_of_degree", lambda deg, *args:
                        asked.append(deg) or enumerate_monomials(deg, *args))
    # degree 3: 4 generators times 6 survivors of degree 2 bound the
    # columns, the relation times 4 survivors of degree 1 the products
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 27)
    with pytest.raises(ResourceBudgetError,
                       match="degree 3 needs up to 24 columns and 4 relation"):
        quotient(pres)
    assert max(asked) == 2
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 28)
    assert quotient(pres).hilbert() == [1, 4, 5]


def test_truncated_quotient_raises_beyond_built_range():
    A = quotient(torus_presentation(), max_degree=1)
    assert not A.exhaustive
    assert A.dim(1) == 2
    with pytest.raises(TruncationError):
        A.dim(2)
    a, b = A.gen("a"), A.gen("b")
    with pytest.raises(TruncationError):
        a * b


def test_json_round_trip_preserves_structure(tmp_path):
    for pres in (surface_cohomology(2), arnold_algebra(3),
                 punctured_plane_algebra(2, 2)):
        path = tmp_path / "pres.json"
        pres.dump(path)
        back = AlgebraPresentation.load(path)
        assert back.free.names == pres.free.names
        assert back.free.degrees == pres.free.degrees
        assert len(back.relations) == len(pres.relations)
        assert quotient(back).hilbert() == quotient(pres).hilbert()


def test_json_round_trip_is_sign_sensitive():
    pres = surface_cohomology(2)
    back = AlgebraPresentation.from_json(pres.to_json())

    def named_terms(r):
        F = r.algebra
        return {tuple(F.names[g] for g in m): c for m, c in r.terms.items()}

    for r1, r2 in zip(pres.relations, back.relations):
        assert named_terms(r1) == named_terms(r2)


def test_convolve_matches_oracle():
    a, b = [1, 4, 5, 2], [1, 2, 1]
    assert convolve(a, b) == poly_mul(a, b)


def test_tensor_square_dimensions():
    A = totaro_algebra(1, 2)
    T = tensor_square(A)
    h = A.hilbert()
    want = convolve(h, h)
    assert want == [1, 8, 26, 44, 41, 20, 4]
    got = [len(tensor_pairs(A, d)) for d in range(T.top + 1)]
    assert got == want


@pytest.mark.parametrize("build, dims, zcl", [
    (lambda: quotient(surface_cohomology(2)), [1, 8, 18, 8, 1], 4),
    (lambda: quotient(arnold_algebra(3, GF2)), [1, 6, 13, 12, 4], 3),
    (lambda: mod_ideal_quotient(3), [1, 24, 234, 1176, 3177, 4320, 2304],
     None),
], ids=["surface-q", "arnold-gf2", "mod-ideal-truncated"])
def test_tensor_square_pairs_are_built_on_first_read(build, dims, zcl):
    A = build()
    T = tensor_square(A)
    assert T.dims == dims
    assert "basis" not in vars(T) and "index" not in vars(T)
    for d in range(T.top + 1):
        pairs = tensor_pairs(A, d)
        assert len(pairs) == T.dims[d]
        assert all(T.pair_degree(p) == d for p in pairs)
    if zcl is not None:
        assert zcl_exact(A).value == zcl


def test_mu_is_an_algebra_map():
    rng = random.Random(42)
    A = totaro_algebra(1, 2)
    T = tensor_square(A)

    def rand_tensor():
        out = None
        for _ in range(3):
            d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
            b1 = A.basis_monomials(d1)
            b2 = A.basis_monomials(d2)
            t = T.tensor(
                Element(A, {b1[rng.randrange(len(b1))]: QQ.coerce(rng.randint(-2, 2))}),
                Element(A, {b2[rng.randrange(len(b2))]: QQ.coerce(rng.randint(-2, 2))}))
            out = t if out is None else out + t
        return out

    for _ in range(20):
        s, t = rand_tensor(), rand_tensor()
        assert T.mu(T.multiply(s, t)) == T.mu(s) * T.mu(t)


@pytest.mark.parametrize("build", [
    lambda: quotient(surface_cohomology(1)), so3_mod2_algebra,
    lambda: quotient(surface_cohomology(0)), lambda: sphere_mod2_model(4)],
    ids=["torus-Q", "so3-GF2", "sphere-Q", "sphere-mod2-GF2"])
def test_bar_times_a_tensor_follows_the_leg_formula(build):
    """bar(a) * t == sum c [(a u)(x)v - (-1)^{|a||u|} u(x)(a v)] over the
    terms c u(x)v of t, for every generator a and drawn homogeneous t of
    every degree, with the legs multiplied by A's own product.  The torus
    has odd generators and tensors whose legs differ in parity, so a
    dropped sign, or a sign taken on the wrong leg, changes its products."""
    rng = random.Random(5)
    A = build()
    T = tensor_square(A)
    field = A.field
    scalars = [1] if field is GF2 else [-2, -1, 1, 3]

    def leg_formula(a, t):
        acc = T.zero()
        for (u, v), c in t.terms.items():
            U, V = Element(A, {u: field.one}), Element(A, {v: field.one})
            sign = -1 if a.degree() % 2 and U.degree() % 2 else 1
            acc = (acc + T.tensor(a * U, V).scale(c)
                   - T.tensor(U, a * V).scale(field.coerce(sign * c)))
        return acc

    for a in A.generator_elements():
        bar = T.bar(a)
        assert bar * T.one() == bar == leg_formula(a, T.one())
        for d in range(T.top + 1):
            pairs = tensor_pairs(A, d)
            for _ in range(6 if pairs else 0):
                drawn = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
                t = Element(T, {p: rng.choice(scalars) for p in drawn})
                assert bar * t == leg_formula(a, t), (a, t)


def test_bar_classes_are_zero_divisors():
    A = totaro_algebra(1, 2)
    T = tensor_square(A)
    for name in A.free.names:
        assert T.mu(T.bar(A.gen(name))).is_zero()


# Each call hands A = totaro_algebra(1, 2) or its square an element of
# B = quotient(surface_cohomology(1)) or of B's square.
FOREIGN_CALLS = {
    "reduce_free": lambda A, B: A.reduce_free(B.free.gen("b")),
    "multiply": lambda A, B: A.multiply(B.gen("a"), B.gen("b")),
    "tensor": lambda A, B: tensor_square(A).tensor(A.gen("a1"), B.gen("a")),
    "bar": lambda A, B: tensor_square(A).bar(B.gen("a")),
    "tensor-multiply": lambda A, B: tensor_square(A).multiply(
        tensor_square(A).bar(A.gen("a1")), tensor_square(B).bar(B.gen("a"))),
    "mu": lambda A, B: tensor_square(A).mu(tensor_square(B).bar(B.gen("a"))),
}


@pytest.mark.parametrize("call", FOREIGN_CALLS.values(), ids=FOREIGN_CALLS.keys())
def test_an_element_of_another_algebra_is_refused(call):
    with pytest.raises(MismatchError):
        call(totaro_algebra(1, 2), quotient(surface_cohomology(1)))


def test_reduce_free_takes_free_and_own_elements():
    A = totaro_algebra(1, 2)
    x = A.gen("a1") * A.gen("b2")
    assert A.reduce_free(A.element_in_free(x)) == x
    assert A.reduce_free(x) == x


def test_torus_diagonal_class():
    delta, A = surface_diagonal(1)
    T = tensor_square(A)
    a, b = A.gen("a"), A.gen("b")
    ab = a * b
    want = (T.tensor(A.one(), ab) - T.tensor(a, b) + T.tensor(b, a)
            + T.tensor(ab, A.one()))
    assert delta == want
    for name in A.free.names:
        assert T.multiply(T.bar(A.gen(name)), delta).is_zero()


def test_hilbert_series_pads_to_declared_top():
    # so3 mod-2 model declares top degree 4 but dies in degree 3
    from tcsurf.models import so3_mod2_algebra
    assert hilbert_series(so3_mod2_algebra()) == [1, 1, 1, 1, 0]


@pytest.mark.parametrize("generators,relations,top,first", [
    ([("x", 1), ("y", 1)], [], 1, 2),     # exterior algebra on x, y
    ([("w", 2)], [("w", "w", "w")], 2, 4),  # Q[w]/(w^3)
], ids=["exterior-top-1", "w-cubed-top-2"])
def test_hilbert_series_refuses_a_nonzero_degree_above_the_top(
        generators, relations, top, first):
    F = FreeAlgebra(QQ, generators)
    rels = []
    for names in relations:
        r = F.one()
        for name in names:
            r = F.multiply(r, F.gen(name))
        rels.append(r)
    A = quotient(AlgebraPresentation(F, rels, top_degree=top))
    with pytest.raises(ModelInconsistencyError,
                       match=f"degree {first} is nonzero, above the declared "
                             f"top_degree {top}"):
        A.hilbert()


def test_zero_relation_dropped():
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1)])
    pres = AlgebraPresentation(F, [F.zero()])
    assert pres.relations == []
    assert quotient(pres).hilbert() == [1, 2, 1]


def test_odd_prime_field_quotient_is_refused():
    # over GF(3) the relations x + 2y and 2x + y are dependent, so degree 2
    # has dimension 1; eliminating over Q would give 0.  Only Q and GF2 are
    # read at all, so every other field is refused before any elimination.
    for name in ("GF3", "GF4", "GF7"):
        with pytest.raises(UnsupportedModelError, match=name):
            AlgebraPresentation.from_json({
                "field": name,
                "generators": [{"name": "x", "degree": 2},
                               {"name": "y", "degree": 2}],
                "relations": [
                    [{"coeff": "1", "monomial": ["x"]},
                     {"coeff": "2", "monomial": ["y"]}],
                    [{"coeff": "2", "monomial": ["x"]},
                     {"coeff": "1", "monomial": ["y"]}],
                ],
                "top_degree": 2,
            })


@pytest.mark.parametrize("data", [
    {"generators": [{"name": "x", "degree": 1}]},
    {"field": "Q", "generators": [{"name": "x"}]},
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "relations": [[{"coeff": "1", "monomial": ["z"]}]]},
    {"field": "Q", "generators": [{"name": "x", "degree": "one"}]},
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "relations": [[{"coeff": "1/0", "monomial": ["x"]}]]},
    ["Q"],
    # JSON numbers that are not exact integers, and booleans, are refused
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "relations": [[{"coeff": 0.1, "monomial": ["x"]}]]},
    {"field": "GF2", "generators": [{"name": "x", "degree": 1}],
     "relations": [[{"coeff": 0.5, "monomial": ["x"]}]], "top_degree": 1},
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "relations": [[{"coeff": True, "monomial": ["x"]}]]},
    {"field": "Q", "generators": [{"name": "x", "degree": 1.7}]},
    {"field": "Q", "generators": [{"name": "x", "degree": "1"}]},
    {"field": "Q", "generators": [{"name": "x", "degree": True}]},
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "top_degree": True},
    {"field": "Q", "generators": [{"name": "x", "degree": 1}],
     "top_degree": 1.0},
    # a monomial is a list of generator names, never a string of letters
    {"field": "Q", "generators": [{"name": "a", "degree": 1},
                                  {"name": "b", "degree": 1}],
     "relations": [[{"coeff": "1", "monomial": "ab"}]], "top_degree": 2},
])
def test_malformed_presentation_json(data):
    with pytest.raises(AlgebraError, match="malformed presentation"):
        AlgebraPresentation.from_json(data)


def test_bounded_multiply_is_the_truncated_product():
    A = totaro_algebra(1, 2)
    T = tensor_square(A)
    deg = A.free.monomial_degree
    a1, b1, a2 = (T.bar(A.gen(s)) for s in ("a1", "b1", "a2"))
    left = a1 * b1
    full = left * a2
    for bound in [(0, 3), (1, 1), (2, 1), (1, 2), (3, 3)]:
        want = {(u, v): c for (u, v), c in full.terms.items()
                if deg(u) <= bound[0] and deg(v) <= bound[1]}
        assert T.multiply(left, a2, bound).terms == want


def test_boolean_top_degree_is_refused():
    free = FreeAlgebra(QQ, [("x", 2)])
    for bad in (True, False, 1.0, -1):
        with pytest.raises(AlgebraError, match="top_degree"):
            AlgebraPresentation(free, [], top_degree=bad)


def _gf2_power_killed(k, top_degree):
    """One GF(2) generator a of degree 1 with a^k = 0."""
    F = FreeAlgebra(GF2, [("a", 1)])
    return AlgebraPresentation(F, [F.element({(0,) * k: 1})],
                               top_degree=top_degree)


def _gf2_a2_is_b():
    """GF(2) on a of degree 1 and b of degree 2 with a^2 = b and a^8 = 0."""
    F = FreeAlgebra(GF2, [("a", 1), ("b", 2)])
    a, b = F.gen("a"), F.gen("b")
    return AlgebraPresentation(F, [a * a + b, F.element({(0,) * 8: 1})],
                               top_degree=9)


QUOTIENTS = {
    "surface2-Q": lambda: quotient(surface_cohomology(2, QQ)),
    "surface3-Q": lambda: quotient(surface_cohomology(3, QQ)),
    "surface2-GF2": lambda: quotient(surface_cohomology(2, GF2)),
    "surface3-GF2": lambda: quotient(surface_cohomology(3, GF2)),
    "b-sigma2": lambda: genus2_B_algebra(2),
    "b-sigma3": lambda: genus2_B_algebra(3),
    "mod-ideal3": lambda: mod_ideal_quotient(3),
    "punctured-plane3-2": lambda: quotient(punctured_plane_algebra(3, 2)),
    "sphere5": lambda: sphere_mod2_model(5),
    "so3": so3_mod2_algebra,
    "arnold4-GF2": lambda: quotient(arnold_algebra(4, GF2)),
    # exponents reach 8, a power of two, at the edge of a packed field
    "a8-GF2": lambda: quotient(_gf2_power_killed(8, top_degree=9)),
    "sphere-Q": lambda: quotient(surface_cohomology(0, QQ)),
    # a^2 and b fill packed fields whose widths differ by a power of two
    "a2-is-b-GF2": lambda: quotient(_gf2_a2_is_b()),
}


@pytest.mark.parametrize("build", QUOTIENTS.values(), ids=QUOTIENTS.keys())
def test_quotient_matches_full_elimination(build):
    assert full_elimination_mismatches(build()) == []


@pytest.mark.parametrize("build", [QUOTIENTS["surface2-Q"],
                                   QUOTIENTS["punctured-plane3-2"]],
                         ids=["surface2-Q", "punctured-plane3-2"])
def test_killing_a_multi_term_relation_breaks_the_comparison(build, monkeypatch):
    split = presentation.split_relations

    def mutated(relations):
        killed, rest = split(relations)
        (_, r), rest = rest[0], rest[1:]
        return killed | {min(r.terms)}, rest

    monkeypatch.setattr(presentation, "split_relations", mutated)
    assert full_elimination_mismatches(build())


# every --model token of the golden CLI corpus, with the options it runs
# there, less sphere-mod2 n=7 and b-sigma n=5, whose oracle takes seconds
CORPUS_MODELS = [
    ("surface", {"g": 2}), ("surface", {"g": 2, "field": GF2}),
    ("arnold", {"n": 3}), ("arnold", {"n": 4}), ("arnold", {"n": 3, "field": GF2}),
    ("punctured-plane", {"n": 2, "punctures": 2}),
    ("punctured-plane", {"n": 2, "punctures": 3}),
    ("totaro", {"g": 1, "n": 2}), ("totaro", {"g": 1, "n": 3}),
    ("totaro", {"g": 0, "n": 2}),
    ("b-sigma", {"n": 2}), ("b-sigma", {"g": 3, "n": 2}), ("b-sigma", {"n": 3}),
    ("b-sigma", {"n": 4}),
    ("sphere-mod2", {"n": 4}), ("sphere-mod2", {"n": 5}), ("so3-mod2", {}),
    ("mod-ideal", {"n": 3}), ("mod-ideal", {"g": 3, "n": 3}),
]


@pytest.mark.parametrize("token, given", CORPUS_MODELS,
                         ids=[f"{t}-{'-'.join(map(str, g.values()))}"
                              for t, g in CORPUS_MODELS])
def test_corpus_models_match_the_all_products_echelon(token, given):
    options = model_options(token, **given)
    A = MODELS[token].build(**options)
    # the mod-ideal model is built only through degree n
    cap = options["n"] if token == "mod-ideal" else None
    assert all_products_mismatches(A, cap) == []


def test_relations_past_the_lead_byte_match_the_all_products_echelon():
    # a lead table entry is one byte, so relation indices from 255 on are
    # never recorded; the last two relations come after 300 multiples of
    # the first
    free = FreeAlgebra(QQ, [(f"x{i}", 1) for i in range(6)])
    x = [free.gen(name) for name in free.names]
    first = x[0] * x[1] + x[2] * x[3]
    rels = [first.scale(k + 1) for k in range(300)]
    rels += [x[1] * x[2] - x[4] * x[5], x[0] * x[5] + x[3] * x[4]]
    A = quotient(AlgebraPresentation(free, rels))
    assert all_products_mismatches(A) == []


@pytest.mark.parametrize("build, cls, most, rank", [
    (lambda: mod_ideal_quotient(5, 2), linalg.RationalSubspace, 9_800, 5_103),
    (lambda: quotient(arnold_algebra(6)), linalg.RationalSubspace, 22_000, 9_229),
    (lambda: quotient(punctured_plane_algebra(4, 2)), linalg.Gf2Subspace,
     4_300, 1_983),
], ids=["mod-ideal-5", "arnold-6", "punctured-plane-4-2"])
def test_f5_criterion_skips_relation_products(build, cls, most, rank):
    # without the skip the three builds make 11,504, 32,921 and 5,373
    # inserts for the same ranks
    calls = 0
    insert = cls.insert

    def counting(self, vec):
        nonlocal calls
        calls += 1
        return insert(self, vec)

    with mock.patch.object(cls, "insert", counting):
        A = build()
    assert calls <= most
    assert sum(sub.rank for sub in A.ideal) == rank


# ------------------------------------------------------------ weight blocks

WEIGHTED = {
    "totaro-g0-n3": lambda: totaro_algebra(0, 3),
    "totaro-g1-n4": lambda: totaro_algebra(1, 4),
    "totaro-g2-n2": lambda: totaro_algebra(2, 2),
    "totaro-g3-n2": lambda: totaro_algebra(3, 2),
    "b-sigma-g2-n3": lambda: genus2_B_algebra(3),
    "b-sigma-g3-n2": lambda: genus2_B_algebra(2, genus=3),
    "mod-ideal-g2-n3": lambda: mod_ideal_quotient(3),
    "mod-ideal-g3-n2": lambda: mod_ideal_quotient(2, genus=3),
    "surface-g2-gf2": lambda: quotient(surface_cohomology(2, GF2)),
}


@pytest.mark.parametrize("build", WEIGHTED.values(), ids=WEIGHTED.keys())
def test_weight_blocks_split_the_quotient(build):
    """In every built degree, the blocks over the weights of that degree's
    free monomials hold the quotient's survivors, basis monomials and
    ideal rank of each weight, so their dimensions sum to the Hilbert
    series."""
    A = build()
    pres, free = A.presentation, A.free
    for d in range(A.built_top + 1):
        weights = {pres.weight(m) for m in free.monomials_of_degree(d)}
        blocks = weight_blocks(pres, [(d, w) for w in sorted(weights)])
        assert sum(len(b.basis) for b in blocks) == A.dims[d], (A.label, d)
        assert sum(b.ideal.rank for b in blocks) == A.ideal[d].rank
        for b in blocks:
            assert b.mons == [m for m in A.mons[d] if pres.weight(m) == b.weight]
            assert b.basis == [m for m in A.basis[d] if pres.weight(m) == b.weight]


@pytest.mark.parametrize("build", WEIGHTED.values(), ids=WEIGHTED.keys())
def test_block_normal_forms_are_the_quotients(build):
    rng = random.Random(29)
    A = build()
    pres, free = A.presentation, A.free
    for d in range(1, A.built_top + 1):
        by_weight = {}
        for m in free.monomials_of_degree(d):
            by_weight.setdefault(pres.weight(m), []).append(m)
        for mons in by_weight.values():
            for _ in range(3):
                picked = rng.sample(mons, min(len(mons), rng.randint(1, 6)))
                e = free.element({m: rng.choice([-3, -1, 1, 2]) for m in picked})
                assert block_reduce(pres, e).terms == A.reduce_free(e).terms


def test_a_relation_that_is_not_weight_homogeneous_is_refused():
    pres = totaro_algebra(1, 2).presentation
    weights = list(pres.weights)
    assert AlgebraPresentation(pres.free, pres.relations, weights=weights).weights
    weights[pres.free.by_name["b2"]] = (1,)  # b2 should weigh -e_1
    with pytest.raises(HomogeneityError, match="not weight-homogeneous"):
        AlgebraPresentation(pres.free, pres.relations, weights=weights)


@pytest.mark.parametrize("weights", [[(1,)] * 3, [(1,), (1, 0), (0,), (0,)],
                                     [(1.0,), (0,), (0,), (0,)]])
def test_malformed_weights_are_refused(weights):
    F = FreeAlgebra(QQ, [(name, 1) for name in "abcd"])
    with pytest.raises(AlgebraError, match="one tuple of ints"):
        AlgebraPresentation(F, [], weights=weights)


def test_weight_blocks_need_weights():
    pres = quotient(arnold_algebra(3)).presentation
    with pytest.raises(AlgebraError, match="need generator weights"):
        weight_block(pres, 1, ())
    with pytest.raises(AlgebraError, match="need generator weights"):
        pres.weight((0, 1))
    with pytest.raises(AlgebraError, match="need generator weights"):
        block_reduce(pres, pres.free.gen(pres.free.names[0]))
    with pytest.raises(AlgebraError, match="a weight has 1 coordinates"):
        weight_block(totaro_algebra(1, 2).presentation, 1, (1, 0))


@pytest.mark.parametrize("degree, weight", [(2.5, (0, 0)), (2, (0, 0.5)),
                                            (True, (0, 0)), ("2", (0, 0)),
                                            (2, 0), (2, None)])
def test_block_keys_need_int_degrees_and_weights(degree, weight):
    pres = totaro_presentation(2, 3)
    with pytest.raises(AlgebraError, match="need int coordinates"):
        weight_block(pres, degree, weight)
    with pytest.raises(AlgebraError, match="need int coordinates"):
        weight_blocks(pres, [(2, (0, 0)), (degree, weight)])
    assert pres._blocks.blocks == {}


@pytest.mark.parametrize("key", [(2,), (2, (0, 0), 1), 2, None])
def test_block_keys_are_degree_weight_pairs(key):
    pres = totaro_presentation(2, 3)
    with pytest.raises(AlgebraError, match=r"a \(degree, weight\) pair"):
        weight_blocks(pres, [(2, (0, 0)), key])
    assert pres._blocks.blocks == {}


def test_f5_criterion_skips_block_products():
    """The blocks make fewer rows than their relation products that keep a
    surviving term, the rows an elimination without the skip inserts.  The
    inserts counted include the model checks' own eliminations."""
    calls = 0
    insert = linalg.RationalSubspace.insert

    def counting(self, vec):
        nonlocal calls
        calls += 1
        return insert(self, vec)

    with mock.patch.object(linalg.RationalSubspace, "insert", counting):
        pres = genus2_B_presentation(5)
        case_certificate("genus2", pres)
    free, (_, rels) = pres.free, split_relations(pres.relations)
    products = 0
    for (d, w), blk in list(pres._blocks.blocks.items()):
        for e, r in rels:
            u = pres.weight(next(iter(r.terms)))
            for m in weight_block(pres, d - e, weight_add(w, u, -1)).mons:
                prod = free.multiply(free.element({m: 1}), r)
                products += any(t in blk.index for t in prod.terms)
    # 1,005 products; 1,054 inserts without the skip inside blocks, 949 with
    assert calls < products


def test_block_budget_refuses_before_enumerating(monkeypatch):
    pres = totaro_presentation(1, 3)
    # (3, e_1): the 3 a's times the 9 survivors of (2, 0) and the 3 b's
    # times the 3 of (2, 2e_1) bound the columns; each of the 3 diagonals
    # times the 3 survivors a_k of (1, e_1) the products
    listed = []
    listing = pres.free.monomials_of_degree
    monkeypatch.setattr(pres.free, "monomials_of_degree", lambda d, *args:
                        listed.append((d, args[1])) or listing(d, *args))
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 44)
    with pytest.raises(ResourceBudgetError,
                       match=r"degree 3 weight \[1\] needs up to 36 columns "
                             "and 9 relation products"):
        weight_block(pres, 3, (1,))
    assert (3, (1,)) not in listed
    monkeypatch.setattr(presentation, "DEFAULT_BUDGET", 45)
    assert len(weight_block(pres, 3, (1,)).basis) == 4
    assert (3, (1,)) in listed


def test_dropping_a_diagonal_changes_a_block():
    pres = totaro_algebra(1, 2).presentation
    kept = [r for r in pres.relations if r != pres.diagonals[(1, 2)]]
    dropped = AlgebraPresentation(pres.free, kept, weights=pres.weights)
    assert len(weight_block(pres, 2, (0,)).basis) == 3
    assert len(weight_block(dropped, 2, (0,)).basis) == 4
