"""Differential property tests on small random homogeneous presentations.

Quotient dimensions are checked against the rank of the Macaulay matrix
computed by the independent oracles, quotient bases and normal forms
against the oracles' elimination over every free monomial, and the
quotient's ideal echelons (which skip the relation products the F5
criterion proves redundant) against the oracles' echelon of every relation
product; zcl_exact is checked against the oracles' power iteration with a
full kernel basis of mu, and zcl_exact and cup_length against their
unordered power iteration; tensor-square dimensions, computed without
listing pairs, are checked against the leg convolution and the oracles'
pair counts; the tensor-square product of pure tensors is checked against
the Koszul rule on products taken in A.  Examples are derandomized so the
suite is repeatable.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from unittest import mock

from hypothesis import given, settings, strategies as st

from tcsurf import zcl
from tcsurf.exterior import Element, FreeAlgebra
from tcsurf.fields import GF2, QQ
from tcsurf.presentation import AlgebraPresentation, quotient, tensor_square
from tcsurf.zcl import bar_generators, cup_length, zcl_exact

from .oracles import (all_products_mismatches, full_elimination_mismatches,
                      gf2_rank, kernel_of_mu, koszul_merge, poly_mul,
                      rational_rank, tensor_pairs, unordered_power_iteration)

FIELDS = {"Q": QQ, "GF2": GF2}
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def presentations(draw, field, degrees, squares=False):
    """Two to four generators and up to three homogeneous relations.

    A relation is either a product of two sparse linear forms (its Koszul
    signs make products with the forms cancel) or a sparse sum of up to
    three monomials of degree 2 or 3; either way the ideal has non-generic
    rank, where a wrong sign or a lost product changes the dimensions.
    With squares=True every odd generator squares to zero (over Q it does
    so anyway) and every even one cubes to zero, so the quotient is finite
    and its tensor square can be built; the bar of an even generator keeps
    a nonzero cube.  Without, the quotient is cut above degree 3 + w by
    with_top_degree.
    """
    degs = draw(st.lists(degrees, min_size=2, max_size=4))
    free = FreeAlgebra(field, [(f"x{i}", d) for i, d in enumerate(degs)])
    coeff = st.sampled_from([1, -1, 2])
    rels = []
    if squares:
        rels = [free.element({(g,) * (2 if d % 2 else 3): 1})
                for g, d in enumerate(degs) if field.char == 2 or d % 2 == 0]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            e = draw(st.sampled_from(degs))
            gens = [g for g, d in enumerate(degs) if d == e]
            forms = [draw(st.dictionaries(st.sampled_from(gens), coeff,
                                          min_size=min(2, len(gens)), max_size=2))
                     for _ in range(2)]
            rels.append(free.element(oracle_mul(degs, field.char, *forms)))
        else:
            mons = free.monomials_of_degree(draw(st.integers(2, 3)))
            if mons:
                rels.append(free.element(draw(st.dictionaries(
                    st.sampled_from(mons), coeff, min_size=1, max_size=3))))
    if squares:
        top = sum(d if d % 2 else 2 * d for d in degs)
        return AlgebraPresentation(free, rels, top_degree=top)
    return with_top_degree(free, rels, 3)


@st.composite
def sparse_presentations(draw, field):
    """Two to five generators of degree 1 or 2 and up to five relations of
    degree 1 to 4, each one to four monomials of its degree.  A one-term
    relation kills its monomial; over Q the coefficients include non-units
    and fractions."""
    degs = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=2, max_size=5))
    free = FreeAlgebra(field, [(f"x{i}", d) for i, d in enumerate(degs)])
    coeff = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
                            if field.char != 2 else [1])
    rels = []
    for _ in range(draw(st.integers(0, 5))):
        mons = free.monomials_of_degree(draw(st.integers(1, 4)))
        if mons:
            rels.append(free.element(draw(st.dictionaries(
                st.sampled_from(mons), coeff, min_size=1, max_size=4))))
    return with_top_degree(free, rels, draw(st.integers(2, 5)))


def with_top_degree(free, rels, top):
    """The presentation of rels cut above degree t = top + w, w the largest
    generator degree: every monomial of degree above t whose last generator
    leaves degree at most t is killed, so these kill every degree above t,
    and the quotient has top_degree t.  It agrees with the quotient of rels
    through degree t, which covers every degree a quotient of rels with
    top_degree top would build before it stops."""
    t = top + max(free.degrees)
    cut = [free.element({m: 1}) for d in range(t + 1, t + max(free.degrees) + 1)
           for m in free.monomials_of_degree(d)
           if free.monomial_degree(m[:-1]) <= t]
    return AlgebraPresentation(free, rels + cut, top_degree=t)


def oracle_mul(degs, char, f1, f2):
    """Product of two linear forms {generator: coeff}, as a term dict."""
    out = {}
    for g1, c1 in f1.items():
        for g2, c2 in f2.items():
            hit = koszul_merge(degs, (g1,), (g2,), char)
            if hit is not None:
                out[hit[1]] = out.get(hit[1], 0) + hit[0] * c1 * c2
    return out


def oracle_monomials(degs, d, char):
    """Sorted generator tuples of total degree d, by brute force."""
    out = []
    for k in range(d + 1):
        for mon in combinations_with_replacement(range(len(degs)), k):
            if sum(degs[g] for g in mon) != d:
                continue
            if char != 2 and any(a == b and degs[a] % 2
                                 for a, b in zip(mon, mon[1:])):
                continue
            out.append(mon)
    return out


def oracle_dim(pres, d):
    """dim of the quotient in degree d: free monomials minus Macaulay rank."""
    degs = pres.free.degrees
    char = pres.field.char
    cols = {m: i for i, m in enumerate(oracle_monomials(degs, d, char))}
    rows = []
    for r in pres.relations:
        e = r.degree()
        if e > d:
            continue
        for m in oracle_monomials(degs, d - e, char):
            row = {}
            for rmon, c in r.terms.items():
                hit = koszul_merge(degs, m, rmon, char)
                if hit is not None:
                    col = cols[hit[1]]
                    row[col] = row.get(col, 0) + hit[0] * c
            rows.append(row)
    rank = gf2_rank(rows, len(cols)) if char == 2 else rational_rank(rows, len(cols))
    return len(cols) - rank


def check_dims(pres):
    A = quotient(pres)
    assert A.dims == [oracle_dim(pres, d) for d in range(len(A.dims))]


@SETTINGS
@given(presentations(QQ, st.sampled_from([1, 1, 2])))
def test_quotient_dims_match_macaulay_rank_over_q(pres):
    check_dims(pres)


@SETTINGS
@given(presentations(GF2, st.sampled_from([1, 1, 2])))
def test_quotient_dims_match_macaulay_rank_over_gf2(pres):
    check_dims(pres)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: presentations(FIELDS[name], st.sampled_from([1, 1, 2]))))
def test_bases_and_normal_forms_match_full_elimination(pres):
    assert full_elimination_mismatches(quotient(pres)) == []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: sparse_presentations(FIELDS[name])))
def test_quotient_matches_the_all_products_echelon(pres):
    assert all_products_mismatches(quotient(pres)) == []


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: presentations(FIELDS[name], st.just(1), squares=True)))
def test_zcl_generators_matches_kernel_basis(pres):
    A = quotient(pres)
    by_generators = zcl_exact(A)
    kernel = [z for zs in kernel_of_mu(A).values() for z in zs]
    value, exact, _ = unordered_power_iteration(kernel, kernel, A.field.char)
    assert (by_generators.value, by_generators.exact) == (value, exact)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: presentations(FIELDS[name], st.sampled_from([1, 1, 2]),
                               squares=True)),
    st.sampled_from([None, None, 1, 2, 3]))
def test_power_iteration_matches_the_unordered_oracle(pres, cap):
    A = quotient(pres)
    char = A.field.char
    bars = bar_generators(A)
    assert with_span_dims(lambda: zcl_exact(A, cap=cap)) == \
        unordered_power_iteration(bars, bars, char, cap)
    gens = [g for g in A.generator_elements() if not g.is_zero()]
    assert with_span_dims(lambda: cup_length(A, cap=cap)) == \
        unordered_power_iteration(gens, gens, char, cap)


def with_span_dims(run):
    """(value, exact, dims) of the report run() returns, where dims is the
    dimension of the span each power-iteration step built: equal to the
    oracle's, since the products kept are products of generators."""
    built = []

    class Recording(zcl._GradedSpan):
        def __init__(self, space):
            super().__init__(space)
            built.append(self)

    with mock.patch.object(zcl, "_GradedSpan", Recording):
        report = run()
    dims = [sum(sub.rank for sub in span.subs.values()) for span in built]
    return report.value, report.exact, dims


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: presentations(FIELDS[name], st.sampled_from([1, 1, 2]))))
def test_tensor_square_dims_and_coordinates(pres):
    A = quotient(pres)
    T = tensor_square(A)
    legs = A.dims[:T.leg_top + 1]
    assert T.dims == poly_mul(legs, legs)
    assert T.dims == [len(tensor_pairs(A, d)) for d in range(T.top + 1)]


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: presentations(FIELDS[name], st.just(1), squares=True)),
    st.data())
def test_tensor_multiply_follows_the_koszul_rule(pres, data):
    A = quotient(pres)
    T = tensor_square(A)
    field = A.field

    def draw_element(d):
        picks = data.draw(st.dictionaries(st.integers(0, A.dim(d) - 1),
                                          st.sampled_from([1, -1, 2]),
                                          min_size=1, max_size=3))
        basis = A.basis_monomials(d)
        return d, Element(A, {basis[i]: field.coerce(c) for i, c in picks.items()
                              if field.coerce(c) != field.zero})

    # one element per degree, multiplied in every combination of degrees,
    # so that every parity of |b1| |a2| is exercised
    elements = [draw_element(d) for d in range(A.top_nonzero + 1)]
    for (_, a1), (d_b1, b1), (d_a2, a2), (_, b2) in product(elements, repeat=4):
        want = T.tensor(a1 * a2, b1 * b2)
        if field.char != 2 and d_b1 * d_a2 % 2:
            want = -want
        assert T.multiply(T.tensor(a1, b1), T.tensor(a2, b2)) == want
