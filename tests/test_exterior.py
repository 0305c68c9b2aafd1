import random
from collections import Counter
from itertools import product
from math import comb

import pytest

from tcsurf.errors import AlgebraError
from tcsurf.exterior import FreeAlgebra, add_scaled
from tcsurf.fields import GF2, QQ
from tcsurf.presentation import AlgebraPresentation, quotient

from .oracles import koszul_merge, monomials_by_multisets


@pytest.fixture
def ext3():
    return FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1)])


def test_odd_squares_vanish_over_q(ext3):
    a = ext3.gen("a")
    assert (a * a).is_zero()


def test_anticommutativity(ext3):
    a, b = ext3.gen("a"), ext3.gen("b")
    assert a * b == -(b * a)


def test_even_generator_commutes():
    F = FreeAlgebra(QQ, [("x", 1), ("w", 2)])
    x, w = F.gen("x"), F.gen("w")
    assert x * w == w * x
    assert not (w * w).is_zero()


def test_char2_squares_survive():
    F = FreeAlgebra(GF2, [("a", 1), ("b", 1)])
    a, b = F.gen("a"), F.gen("b")
    sq = (a + b) * (a + b)
    # cross terms merge to the same monomial and cancel mod 2
    assert sq == a * a + b * b
    assert not sq.is_zero()


def test_product_signs_match_bubble_oracle():
    rng = random.Random(20260814)
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1), ("w", 2), ("v", 3)])
    degrees = dict(enumerate(F.degrees))
    mons = [F.monomials_of_degree(d) for d in range(6)]
    pool = [m for batch in mons for m in batch]
    for _ in range(300):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        got = F.mul_mon(m1, m2)
        want = koszul_merge(degrees, m1, m2, char=0)
        assert got == want, (m1, m2)


def test_multiplication_is_associative():
    rng = random.Random(7)
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("w", 2), ("c", 1)])

    def rand_elem():
        out = F.zero()
        for _ in range(3):
            d = rng.randint(0, 3)
            ms = F.monomials_of_degree(d)
            if ms:
                out = out + F.element({rng.choice(ms): rng.randint(-3, 3)})
        return out

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_monomial_counts_squarefree_and_char2():
    F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(5)])
    for d in range(7):
        assert len(F.monomials_of_degree(d)) == comb(5, d)
    G = FreeAlgebra(GF2, [(f"g{i}", 1) for i in range(3)])
    for d in range(5):
        # multisets: repeats allowed in characteristic 2
        assert len(G.monomials_of_degree(d)) == comb(3 + d - 1, d)


def _weight_parts(mons, weights):
    """{weight: the monomials of mons of that weight, in order}, over a box
    one wider on each side than the weights of mons, so that some parts
    are empty."""
    rank = len(weights[0])
    seen = [tuple(sum(weights[g][h] for g in m) for h in range(rank)) for m in mons]
    box = [range(min(c) - 1, max(c) + 2) for c in zip(*seen)]
    return {w: [m for m, v in zip(mons, seen) if v == w] for w in product(*box)}


def _check_weight_parts(field, gens, want, avoid=frozenset()):
    """Under random generator weights of rank 2, every (degree, weight)
    list equals want[degree] filtered by weight, asked in ascending and in
    descending degree."""
    rng = random.Random(33)
    for _ in range(3):
        weights = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in gens)
        parts = {d: _weight_parts(mons, weights) for d, mons in want.items()}
        for degrees in (sorted(parts), sorted(parts, reverse=True)):
            graded = FreeAlgebra(field, gens)
            for d in degrees:
                for w, part in parts[d].items():
                    got = graded.monomials_of_degree(d, avoid, w, weights)
                    assert got == part, (weights, d, w)


@pytest.mark.parametrize("field", [QQ, GF2], ids=["Q", "GF2"])
def test_monomials_of_degree_match_the_multiset_oracle(field):
    gens = [("a", 1), ("w", 2), ("b", 1), ("c", 3), ("u", 2)]
    degrees = [d for _, d in gens]
    up, down = FreeAlgebra(field, gens), FreeAlgebra(field, gens)
    down.monomials_of_degree(8)  # fills the lower degrees first
    want = {}
    for d in range(9):
        want[d] = monomials_by_multisets(degrees, d, field.char)
        assert up.monomials_of_degree(d) == want[d], d
        assert down.monomials_of_degree(d) == want[d], d
    _check_weight_parts(field, gens, want)


def _divides(k, m):
    return not Counter(k) - Counter(m)


@pytest.mark.parametrize("field, gens, avoid", [
    # pairs, an even square, a triple and a killed generator over Q
    (QQ, [("a", 1), ("b", 1), ("c", 1), ("w", 2), ("d", 1), ("v", 3)],
     {(0, 2), (1, 4), (0, 4), (3, 3), (1, 2, 5), (4,)}),
    # char-2 squares of every generator and one cross product
    (GF2, [(f"g{i}", 1) for i in range(5)],
     {(g, g) for g in range(5)} | {(0, 3)}),
    # the sphere's a^4 beside squared puncture generators
    (GF2, [("a", 1), ("e1", 1), ("e2", 1), ("e12", 1)],
     {(0, 0, 0, 0), (1, 1), (2, 2), (3, 3), (1, 2)}),
], ids=["Q", "GF2-squares", "GF2-a4"])
def test_monomials_avoiding_match_the_filtered_oracle(field, gens, avoid):
    degrees = [d for _, d in gens]
    avoid = frozenset(avoid)
    up, down = FreeAlgebra(field, gens), FreeAlgebra(field, gens)
    down.monomials_of_degree(8, avoid)  # fills the lower degrees first
    want = {}
    for d in range(9):
        every = monomials_by_multisets(degrees, d, field.char)
        want[d] = [m for m in every if not any(_divides(k, m) for k in avoid)]
        assert up.monomials_of_degree(d, avoid) == want[d], d
        assert down.monomials_of_degree(d, avoid) == want[d], d
        assert up.monomials_of_degree(d) == every, d
    _check_weight_parts(field, gens, want, avoid)


@pytest.mark.parametrize("mon", [(1, 0), (0, 0), (3,), (-1,), (0, 2, 1),
                                 (True,), ("a",)],
                         ids=["reversed", "odd-square", "out-of-range",
                              "negative", "unsorted", "bool", "name"])
def test_element_refuses_non_canonical_monomials(ext3, mon):
    with pytest.raises(AlgebraError):
        ext3.element({mon: 1})


def test_element_keeps_canonical_powers():
    F = FreeAlgebra(QQ, [("a", 1), ("w", 2)])
    assert F.element({(1, 1): 2}) == 2 * F.gen("w") * F.gen("w")
    G = FreeAlgebra(GF2, [("a", 1), ("b", 1)])
    assert G.element({(0, 0): 1}) == G.gen("a") * G.gen("a")
    with pytest.raises(AlgebraError):
        G.element({(1, 0, 0): 1})


def test_a_reversed_key_is_no_relation():
    # b*a + a*b is zero: read with (1, 0) as a monomial of its own, it
    # would kill the top class and give [1, 2, 0]
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1)])
    a, b = F.gen("a"), F.gen("b")
    with pytest.raises(AlgebraError):
        F.element({(1, 0): 1})
    pres = AlgebraPresentation(F, [b * a + a * b], top_degree=2)
    assert quotient(pres).hilbert() == [1, 2, 1]


def test_homogeneous_parts_and_degree(ext3):
    a, b = ext3.gen("a"), ext3.gen("b")
    e = a + a * b
    assert e.degree() is None
    parts = e.homogeneous_parts()
    assert sorted(parts) == [1, 2]
    assert parts[1] == a


def test_element_equality_and_scaling(ext3):
    a, b = ext3.gen("a"), ext3.gen("b")
    assert 2 * (a + b) == a.scale(2) + b + b
    assert (a - a).is_zero()
    assert hash(a * b) == hash(-(b * a))


def test_mon_str(ext3):
    a, c = ext3.gen("a"), ext3.gen("c")
    mon = next(iter((a * c).terms))
    assert ext3.mon_str(mon) == "a*c"
    assert ext3.mon_str(()) == "1"


def test_add_scaled_drops_cancelled_keys():
    acc = {"x": QQ.coerce(2), "y": QQ.coerce(1)}
    add_scaled(QQ, acc, {"x": QQ.coerce(1), "z": QQ.coerce(3)}, QQ.coerce(-2))
    assert acc == {"y": 1, "z": -6}
    add_scaled(QQ, acc, {"y": QQ.coerce(5)}, QQ.zero)
    assert acc == {"y": 1, "z": -6}
    acc = {(0,): 1}
    add_scaled(GF2, acc, {(0,): 1, (1,): 1})
    assert acc == {(1,): 1}
