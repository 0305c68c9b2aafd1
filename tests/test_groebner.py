import random
from math import comb

import pytest

from tcsurf import cli, groebner
from tcsurf.errors import (AlgebraError, CertificateError, MismatchError,
                           ResourceBudgetError, UnsupportedModelError)
from tcsurf.exterior import Element, FreeAlgebra
from tcsurf.fields import GF2, QQ
from tcsurf.groebner import (TermOrder, _lead_table, _normal_counts,
                             buchberger_check, gb_hilbert, reduce_element,
                             s_polynomial, torus_ideal, torus_ideal_check)
from tcsurf.models import totaro_algebra
from tcsurf.presentation import hilbert_series

from .oracles import (normal_counts_by_subsets, tuple_buchberger_log,
                      tuple_order_key, tuple_reduce)


@pytest.mark.parametrize("call", [
    lambda: torus_ideal(2.5), lambda: torus_ideal(True),
    lambda: torus_ideal_check(2.5),
], ids=["ideal-2.5", "ideal-True", "check-2.5"])
def test_torus_ideal_count_that_is_not_an_int_is_refused(call):
    with pytest.raises(AlgebraError, match="expected an integer"):
        call()


def test_torus_relations_are_a_groebner_basis_up_to_n6():
    for n in range(2, 7):
        rep = torus_ideal_check(n)
        assert rep.is_groebner, n
        assert all(rem == "0" for _, rem in rep.spair_log)


def test_gb_hilbert_matches_quotient_series_bit_exact():
    for n in range(1, 7):
        rep = torus_ideal_check(n)
        assert gb_hilbert(rep) == hilbert_series(totaro_algebra(1, n)), n


def test_n2_counts_frozen():
    assert gb_hilbert(torus_ideal_check(2)) == [1, 4, 5, 2]


def test_default_order_is_the_reduced_generator_priority():
    _, _, order = torus_ideal(3)
    assert order.describe() == "x2 < y2 < x3 < y3 < x1 < y1"


def test_single_mixed_relation_is_not_a_basis():
    free, _, order = torus_ideal(3)
    f = free.gen("x2") * free.gen("y2") + free.gen("x3") * free.gen("y3")
    rep = buchberger_check([f], order, try_reversal=False)
    assert not rep.is_groebner
    bad = {rem for _, rem in rep.spair_log if rem != "0"}
    assert bad == {"x2*y2*x3", "x2*y2*y3"}  # the two self-pair remainders
    with pytest.raises(CertificateError):
        gb_hilbert(rep)


def test_reversal_fallback_records_both_orders():
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    f = F.gen("a") * F.gen("b") + F.gen("c") * F.gen("d")
    rep = buchberger_check([f])  # not a basis under either orientation
    assert not rep.is_groebner
    assert len(rep.orders_tried) == 2
    assert rep.orders_tried[1].priority == list(reversed(
        rep.orders_tried[0].priority))


def test_no_fallback_when_an_order_is_given():
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    f = F.gen("a") * F.gen("b") + F.gen("c") * F.gen("d")
    rep = buchberger_check([f], TermOrder(F, list(F.names)))
    assert len(rep.orders_tried) == 1


def test_empty_relations_give_binomials():
    F = FreeAlgebra(QQ, [(f"u{i}", 1) for i in range(4)])
    rep = buchberger_check([], TermOrder(F, list(F.names)))
    assert rep.is_groebner
    assert gb_hilbert(rep) == [comb(4, d) for d in range(5)]


def test_n1_is_the_full_exterior_algebra():
    rep = torus_ideal_check(1)
    assert gb_hilbert(rep) == [1, 2, 1]


def test_n1_takes_the_order_name_like_every_n():
    assert torus_ideal_check(1, "reversed").order.describe() == "y1 < x1"
    with pytest.raises(AlgebraError):
        torus_ideal_check(1, "bogus")


def test_gf2_is_refused_by_every_entry():
    # over GF(2) the free algebra keeps x*x, which no squarefree lead describes
    F = FreeAlgebra(GF2, [("x", 1), ("y", 1)])
    x, y = F.gen("x"), F.gen("y")
    f = x * x + x * y
    with pytest.raises(UnsupportedModelError):
        buchberger_check([], TermOrder(F, ["x", "y"]))
    with pytest.raises(UnsupportedModelError):
        buchberger_check([f])
    with pytest.raises(UnsupportedModelError):
        reduce_element(f, [f], TermOrder(F, ["x", "y"]))
    with pytest.raises(UnsupportedModelError):
        s_polynomial(f, x * y, TermOrder(F, ["x", "y"]))


def test_an_order_over_another_algebra_is_refused():
    # an order over Q must not let GF(2) elements past its guard
    F = FreeAlgebra(GF2, [("x", 1), ("y", 1)])
    f = F.gen("x") * F.gen("x") + F.gen("x") * F.gen("y")
    order = TermOrder(FreeAlgebra(QQ, [("x", 1), ("y", 1)]), ["x", "y"])
    with pytest.raises(MismatchError):
        buchberger_check([f], order)
    with pytest.raises(MismatchError):
        reduce_element(f, [f], order)
    with pytest.raises(MismatchError):
        s_polynomial(f, f, order)


def test_even_generators_rejected():
    F = FreeAlgebra(QQ, [("x", 1), ("w", 2)])
    with pytest.raises(UnsupportedModelError):
        buchberger_check([F.gen("x") * F.gen("w")])


def test_term_order_requires_a_permutation():
    F = FreeAlgebra(QQ, [("x", 1), ("y", 1)])
    with pytest.raises(AlgebraError):
        TermOrder(F, ["x", "x"])


def test_term_order_is_multiplicative_on_disjoint_monomials():
    rng = random.Random(3)
    F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(7)])
    order = TermOrder(F, [f"g{i}" for i in (3, 0, 5, 1, 6, 2, 4)])
    gids = list(range(7))
    for _ in range(200):
        rng.shuffle(gids)
        m1 = tuple(sorted(gids[:2]))
        m2 = tuple(sorted(gids[2:4]))
        u = tuple(sorted(gids[4:6]))
        if order.key(m1) < order.key(m2):
            assert order.key(tuple(sorted(m1 + u))) < order.key(
                tuple(sorted(m2 + u)))


def test_term_order_key_matches_the_rank_tuple_oracle():
    rng = random.Random(13)
    F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(7)])
    mons = [m for d in range(8) for m in F.monomials_of_degree(d)]
    assert len(mons) == 2 ** 7
    for _ in range(20):
        names = list(F.names)
        rng.shuffle(names)
        order = TermOrder(F, names)
        rank = {F.by_name[name]: pos for pos, name in enumerate(names)}
        assert sorted(mons, key=order.key) == sorted(
            mons, key=lambda m: tuple_order_key(rank, m))


def _oracle_counts(free, relations, order):
    """normal_counts_by_subsets over leads taken with the rank-tuple key."""
    rank = {free.by_name[name]: pos for pos, name in enumerate(order.priority)}
    leads = [max(r.terms, key=lambda m: tuple_order_key(rank, m))
             for r in relations]
    return normal_counts_by_subsets(free.ngens, leads)


def test_normal_counts_match_the_subset_oracle_on_torus_ideals():
    for n in range(1, 7):
        free, rels, order = torus_ideal(n)
        for o in (order, order.reversed()):
            assert _normal_counts(free, _lead_table(rels, o)) == \
                _oracle_counts(free, rels, o), (n, o)


def _random_relation(rng, free):
    mons = free.monomials_of_degree(rng.randint(1, min(3, free.ngens)))
    picked = rng.sample(mons, rng.randint(1, min(3, len(mons))))
    return free.element({m: rng.choice([-2, -1, 1, 3]) for m in picked})


def test_normal_counts_match_the_subset_oracle_on_random_relations():
    rng = random.Random(7)
    for trial in range(60):
        F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(rng.randint(1, 8))])
        names = list(F.names)
        rng.shuffle(names)
        order = TermOrder(F, names)
        rels = [_random_relation(rng, F) for _ in range(rng.randint(1, 6))]
        for some in ([], [F.one()], rels):  # empty, unit, random
            assert _normal_counts(F, _lead_table(some, order)) == \
                _oracle_counts(F, some, order), trial


def test_normal_counts_enumerate_only_the_lead_avoiding_monomials():
    # a fallback to the whole free algebra (2^18 monomials) would show here
    rep = torus_ideal_check(9)
    free = rep.order.free
    assert free._mon_cache
    assert all(avoid for _, avoid, _, _ in free._mon_cache)
    assert sum(map(len, free._mon_cache.values())) == sum(
        rep.normal_monomial_counts)


def test_the_check_takes_each_lead_once_per_order(monkeypatch):
    """The check takes one lead per relation per order, for its lead table;
    the reductions, S-polynomials and normal counts read that table.
    Taking every lead in every reduction took 21,564 at n=9."""
    calls = []
    lead = TermOrder.lead

    def counted(self, e):
        calls.append(1)
        return lead(self, e)

    monkeypatch.setattr(TermOrder, "lead", counted)
    _, rels, _ = torus_ideal(9)
    rep = torus_ideal_check(9)
    assert rep.is_groebner and len(rep.orders_tried) == 1
    assert len(calls) == len(rels)
    calls.clear()
    F = FreeAlgebra(QQ, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    rep = buchberger_check([F.gen("a") * F.gen("b") + F.gen("c") * F.gen("d")])
    assert len(rep.orders_tried) == 2 and len(calls) == 2


def test_s_polynomial_cancels_the_lcm():
    free, rels, order = torus_ideal(4)
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            s = s_polynomial(rels[i], rels[j], order)
            lcm = tuple(sorted(set(order.lead(rels[i]))
                               | set(order.lead(rels[j]))))
            assert lcm not in s.terms


def test_reduction_confluence_on_random_elements():
    free, rels, order = torus_ideal(3)
    rep = buchberger_check(rels, order, try_reversal=False)
    assert rep.is_groebner
    rng = random.Random(2024)
    mons = [m for d in range(5) for m in free.monomials_of_degree(d)]
    rank = {free.by_name[name]: pos for pos, name in enumerate(order.priority)}
    for _ in range(40):
        e = free.zero()
        for _ in range(4):
            e = e + free.element({rng.choice(mons): rng.randint(-3, 3)})
        assert reduce_element(e, rels, order) == tuple_reduce(e, rels, rank, "low")


def test_normal_form_is_a_fixed_point():
    free, rels, order = torus_ideal(3)
    x2, y2 = free.gen("x2"), free.gen("y2")
    nf = reduce_element(x2 * y2 + x2 * free.gen("x1"), rels, order)
    assert nf == x2 * free.gen("x1")
    assert reduce_element(nf, rels, order) == nf


@pytest.mark.parametrize("priority", [["x", 1], [["x"], "y"], ["x", "z"]],
                         ids=["int", "list", "unknown-name"])
def test_term_order_refuses_a_priority_entry_that_is_no_generator_name(priority):
    F = FreeAlgebra(QQ, [("x", 1), ("y", 1)])
    with pytest.raises(AlgebraError, match="is not a generator name"):
        TermOrder(F, priority)


def _xy():
    F = FreeAlgebra(QQ, [("x", 1), ("y", 1)])
    return F, F.gen("x") * F.gen("y"), TermOrder(F, ["x", "y"])


@pytest.mark.parametrize("call", [
    lambda f, o: buchberger_check([f, 3]),
    lambda f, o: buchberger_check([f, 3], o),
    lambda f, o: reduce_element(f, [f, 3], o),
    lambda f, o: reduce_element(3, [f], o),
    lambda f, o: s_polynomial(f, 3, o),
], ids=["check", "check-with-order", "reduce-relation", "reduce-element",
        "s-polynomial"])
def test_a_relation_that_is_not_an_element_is_refused(call):
    _, f, order = _xy()
    with pytest.raises(AlgebraError, match="is not an Element"):
        call(f, order)


@pytest.mark.parametrize("call", [
    lambda f: buchberger_check([f], "x<y"),
    lambda f: buchberger_check([], "x<y"),
    lambda f: reduce_element(f, [f], "x<y"),
    lambda f: s_polynomial(f, f, "x<y"),
], ids=["check", "check-empty", "reduce", "s-polynomial"])
def test_an_order_that_is_not_a_term_order_is_refused(call):
    _, f, _ = _xy()
    with pytest.raises(AlgebraError, match="is not a TermOrder"):
        call(f)


def test_packed_and_free_elements_do_not_mix():
    F, f, order = _xy()
    with pytest.raises(MismatchError):
        s_polynomial(f, order.pack(f), order)
    with pytest.raises(MismatchError):
        reduce_element(f, [order.pack(f)], order)


def test_normal_counts_refuse_a_degree_over_the_budget(monkeypatch):
    # at n = 4 degree 1 tries 8 candidates and degree 2 tries 28
    monkeypatch.setattr(groebner, "COUNT_BUDGET", 27)
    with pytest.raises(ResourceBudgetError, match=(
            "normal monomials of degree 2: listing them tries 28 candidates, "
            "over the budget of 27")):
        torus_ideal_check(4)
    assert cli.main(["groebner-check", "--n", "4"]) == 2
    monkeypatch.setattr(groebner, "COUNT_BUDGET", 48)
    assert gb_hilbert(torus_ideal_check(4)) == [1, 8, 22, 28, 17, 4]


def test_only_the_reported_order_counts_its_normal_monomials(monkeypatch):
    # the declared order fails, and listing its degree 2 would try 15
    # candidates; the reversed order passes and never tries more than 12
    F = FreeAlgebra(QQ, [(x, 1) for x in "abcdef"])
    a, b, c, d, f = (F.gen(x) for x in "abcdf")
    rels = [f - c, a * b * d + a * c * d + a * d * f]
    monkeypatch.setattr(groebner, "COUNT_BUDGET", 12)
    rep = buchberger_check(rels)
    assert rep.is_groebner and rep.order is rep.orders_tried[1]
    with pytest.raises(ResourceBudgetError, match="degree 2: listing them tries 15"):
        buchberger_check(rels, rep.orders_tried[0])


def _random_order(rng, F):
    names = list(F.names)
    rng.shuffle(names)
    return TermOrder(F, names)


def test_pack_unpack_and_the_packed_product_match_the_free_algebra():
    rng = random.Random(11)
    for _ in range(40):
        F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(rng.randint(1, 7))])
        order = _random_order(rng, F)
        a, b = _random_relation(rng, F), _random_relation(rng, F)
        pa, pb = order.pack(a), order.pack(b)
        assert order.unpack(pa) == a
        assert pa.algebra is order and set(map(type, pa.terms)) == {int}
        assert order.unpack(pa * pb) == a * b


def test_the_packed_check_matches_the_tuple_oracle():
    """The check on packed terms against the tuple loop it replaced, on
    random relation sets under random priorities: the verdict, every log
    label and remainder, and reduce_element against the oracle's lead pick."""
    rng = random.Random(34)
    not_bases = 0
    for trial in range(200):
        F = FreeAlgebra(QQ, [(f"g{i}", 1) for i in range(rng.randint(2, 7))])
        order = _random_order(rng, F)
        rank = {F.by_name[name]: pos for pos, name in enumerate(order.priority)}
        rels = [_random_relation(rng, F) for _ in range(rng.randint(1, 5))]
        rep = buchberger_check(rels, order, try_reversal=False)
        ok, log = tuple_buchberger_log(rels, rank)
        assert (rep.is_groebner, rep.spair_log) == (ok, log), trial
        not_bases += not ok
        mons = [m for d in range(F.ngens + 1) for m in F.monomials_of_degree(d)]
        for _ in range(3):
            e = F.element({m: rng.randint(-3, 3)
                           for m in rng.sample(mons, min(4, len(mons)))})
            got = reduce_element(e, rels, order)
            assert isinstance(got, Element) and got.algebra is F
            assert repr(got) == repr(tuple_reduce(e, rels, rank)), trial
    assert 40 <= not_bases <= 160


def test_the_torus_check_matches_the_tuple_oracle_under_both_orders():
    for n in (3, 4):
        free, rels, order = torus_ideal(n)
        for o in (order, order.reversed()):
            rank = {free.by_name[name]: pos for pos, name in enumerate(o.priority)}
            rep = buchberger_check(rels, o, try_reversal=False)
            assert (rep.is_groebner, rep.spair_log) == tuple_buchberger_log(
                rels, rank), (n, o)
