"""Groebner-basis verification in exterior algebras.

All generators must have degree 1 and the field must have characteristic 0,
so that monomials are squarefree sets.  (Over GF(2) FreeAlgebra keeps the
squares of generators.)  TermOrder, which every public entry takes or
builds, is the one guard that refuses any other case.  The term order is
degree-lexicographic over a generator priority.  The Buchberger criterion
is adapted to the exterior setting: besides the classical S-pairs over lead
lcms, every relation is also multiplied by each variable of its own lead
(odd squares vanish, so those products can have new leads).  The basis is
only verified, never completed.

The bundled ideal family is the reduced-generator torus ideal x_j y_j,
x_j y_i + x_i y_j; its normal monomials per degree must match the Hilbert
series of the corresponding diagonal-ideal quotient, which is the
cross-check gb_hilbert exists for.  The normal monomials are counted by
enumerating only the monomials that avoid every lead
(FreeAlgebra.monomials_of_degree with the leads as avoid), so counting
costs the size of the quotient, not the 2^ngens monomials of the free
algebra.
"""

from __future__ import annotations

from .errors import (AlgebraError, CertificateError, MismatchError,
                     UnsupportedModelError, _require_int)
from .exterior import Element, FreeAlgebra, add_scaled
from .fields import QQ


class TermOrder:
    """Degree-lexicographic order given by a generator priority list.

    priority lists generator names from smallest to largest.  Monomials of
    equal degree compare by their descending rank tuples.  The guard below
    makes every monomial a squarefree set of degree-1 generators, so key
    compares (len(mon), the bitmask with bit rank[g] set for each g in mon)
    instead: for two sets of the same size, the first place where their
    descending rank tuples differ holds the largest rank of their symmetric
    difference (the ranks above it are shared, the ranks below it smaller),
    and that rank is also the highest bit in which their bitmasks differ.
    """

    def __init__(self, free: FreeAlgebra, priority):
        if free.field.char != 0:
            raise UnsupportedModelError(
                f"Groebner checks run over Q only, not {free.field.name}")
        if any(d != 1 for d in free.degrees):
            raise UnsupportedModelError("only degree-1 generators are supported")
        self.free = free
        names = list(priority)
        if sorted(names) != sorted(free.names):
            raise AlgebraError("priority must be a permutation of the generators")
        self.priority = names
        self.rank = {}
        for pos, name in enumerate(names):
            self.rank[free.by_name[name]] = pos
        self._bit = [1 << self.rank[g] for g in range(free.ngens)]

    def key(self, mon):
        return (len(mon), sum(map(self._bit.__getitem__, mon)))

    def lead(self, e: Element):
        if e.is_zero():
            raise AlgebraError("zero element has no lead monomial")
        return max(e.terms, key=self.key)

    def reversed(self) -> "TermOrder":
        return TermOrder(self.free, list(reversed(self.priority)))

    def describe(self):
        return " < ".join(self.priority)

    def __repr__(self):
        return f"TermOrder({self.describe()})"


def _order_algebra(order: TermOrder, elements) -> FreeAlgebra:
    """The order's algebra, which must hold every element.

    TermOrder's guard vouches only for its own algebra.
    """
    if any(e.algebra is not order.free for e in elements):
        raise MismatchError("the order and the elements live in different algebras")
    return order.free


_PICKS = {"lead": max, "low": min}


def _lead_table(relations, order: TermOrder):
    """(lead as a set, lead, relation) for each relation under the order."""
    leads = []
    for r in relations:
        lmon = order.lead(r)
        leads.append((set(lmon), lmon, r))
    return leads


def reduce_element(e: Element, relations, order: TermOrder,
                   strategy: str = "lead", *, leads=None) -> Element:
    """Normal form of e against the relations under the order.

    strategy picks which reducible monomial to clear next: "lead" takes the
    largest, "low" the smallest.  With a Groebner basis both sequences end
    at the same normal form; that is a tested property, not an assumption.
    leads, when given, is _lead_table(relations, order), which a caller that
    reduces many elements against one order builds once.
    """
    pick = _PICKS.get(strategy)
    if pick is None:
        raise AlgebraError(f"unknown reduction strategy: {strategy}")
    free = _order_algebra(order, [e, *relations])
    field = free.field
    if leads is None:
        leads = _lead_table(relations, order)
    work = dict(e.terms)
    done = {}
    while work:
        m = pick(work, key=order.key)
        mset = set(m)
        hit = None
        for lset, lmon, r in leads:
            if lset <= mset:
                hit = (lmon, r)
                break
        if hit is None:
            done[m] = work.pop(m)
            continue
        lmon, r = hit
        ur = free.mon_times(tuple(sorted(mset - set(lmon))), r.terms)
        add_scaled(field, work, ur, field.neg(field.div(work[m], ur[m])))
    return Element(free, done)


def s_polynomial(f: Element, g: Element, order: TermOrder):
    """Classical S-polynomial over the lead lcm (here: union).

    Each cofactor lcm - lead is disjoint from its squarefree lead, so both
    products keep the lcm term.
    """
    free = _order_algebra(order, (f, g))
    field = free.field
    lf, lg = order.lead(f), order.lead(g)
    lcm = tuple(sorted(set(lf) | set(lg)))
    tf = free.mon_times(tuple(sorted(set(lcm) - set(lf))), f.terms)
    tg = free.mon_times(tuple(sorted(set(lcm) - set(lg))), g.terms)
    acc = {}
    add_scaled(field, acc, tf, tg[lcm])
    add_scaled(field, acc, tg, field.neg(tf[lcm]))
    return Element(free, acc)


class GbReport:
    def __init__(self, is_groebner: bool, spair_log: list,
                 normal_monomial_counts: list, order: TermOrder,
                 orders_tried: list | None = None):
        self.is_groebner = is_groebner
        self.spair_log = spair_log
        self.normal_monomial_counts = normal_monomial_counts
        self.order = order
        self.orders_tried = [] if orders_tried is None else orders_tried

    def to_json(self):
        return {
            "is_groebner": self.is_groebner,
            "order": self.order.describe(),
            "orders_tried": [o.describe() for o in self.orders_tried],
            "normal_monomial_counts": self.normal_monomial_counts,
            "spairs": [{"pair": list(pair), "remainder": rem}
                       for pair, rem in self.spair_log],
        }


def _normal_counts(free: FreeAlgebra, relations, order: TermOrder):
    leads = frozenset(order.lead(r) for r in relations)
    if () in leads:
        return []  # a unit lead divides every monomial
    counts = [len(free.monomials_of_degree(d, leads))
              for d in range(free.ngens + 1)]
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _run_check(relations, order: TermOrder):
    free = relations[0].algebra
    leads = _lead_table(relations, order)
    log = []
    ok = True
    for i, f in enumerate(relations):
        for v in leads[i][1]:
            prod = Element(free, free.mon_times((v,), f.terms))
            rem = reduce_element(prod, relations, order, leads=leads)
            log.append((("self", i, free.names[v]), repr(rem)))
            if not rem.is_zero():
                ok = False
        for j in range(i + 1, len(relations)):
            s = s_polynomial(f, relations[j], order)
            rem = (reduce_element(s, relations, order, leads=leads)
                   if not s.is_zero() else s)
            log.append(((i, j), repr(rem)))
            if not rem.is_zero():
                ok = False
    return ok, log


def buchberger_check(relations, order: TermOrder = None,
                     try_reversal: bool = None) -> GbReport:
    """Is the relation set a Groebner basis under the order?

    With order=None the declaration order is used and, on failure, the
    reversed priority is tried before reporting; the report records every
    order tried and keeps the successful one.
    """
    relations = list(relations)
    if not relations:
        if order is None:
            raise AlgebraError("an empty relation set needs an explicit order")
        return GbReport(True, [], _normal_counts(order.free, [], order),
                        order, [order])
    free = relations[0].algebra
    if not isinstance(free, FreeAlgebra):
        raise AlgebraError("relations must live in a free algebra")
    for r in relations:
        if r.is_zero() or r.degree() is None:
            raise AlgebraError("relations must be nonzero and homogeneous")
        if r.algebra is not free:
            raise AlgebraError("relations live in different algebras")
    if try_reversal is None:
        try_reversal = order is None
    first = order or TermOrder(free, list(free.names))
    _order_algebra(first, relations)
    orders = [first] + ([first.reversed()] if try_reversal else [])
    tried = []
    result = None
    for o in orders:
        ok, log = _run_check(relations, o)
        tried.append(o)
        result = GbReport(ok, log, _normal_counts(free, relations, o), o, tried)
        if ok:
            break
    return result


def gb_hilbert(report: GbReport):
    """Normal-monomial counts of a verified basis; the quotient Hilbert series."""
    if not report.is_groebner:
        raise CertificateError("not a Groebner basis: counts are not a Hilbert series")
    return list(report.normal_monomial_counts)


# --------------------------------------------------------------------------
# the torus reduced-generator ideal


def torus_ideal(n: int):
    """Free exterior algebra on x_i, y_i with the reduced torus relations.

    Returns (free, relations, default_order); the default priority is
    x2 < y2 < x3 < y3 < ... < xn < yn < x1 < y1.
    """
    _require_int(n, 1, "n must be positive")
    gens = []
    for i in range(1, n + 1):
        gens.append((f"x{i}", 1))
        gens.append((f"y{i}", 1))
    free = FreeAlgebra(QQ, gens)
    rels = []
    for j in range(2, n + 1):
        xj, yj = free.gen(f"x{j}"), free.gen(f"y{j}")
        rels.append(xj * yj)
        for i in range(2, j):
            xi, yi = free.gen(f"x{i}"), free.gen(f"y{i}")
            rels.append(xj * yi + xi * yj)
    priority = []
    for i in range(2, n + 1):
        priority += [f"x{i}", f"y{i}"]
    priority += ["x1", "y1"]
    order = TermOrder(free, priority)
    return free, rels, order


def torus_ideal_check(n: int, order_name: str = "default") -> GbReport:
    """Run the Buchberger check on the reduced torus ideal."""
    _, rels, default = torus_ideal(n)
    if order_name == "default":
        return buchberger_check(rels, default, try_reversal=True)
    if order_name == "reversed":
        return buchberger_check(rels, default.reversed(), try_reversal=False)
    raise AlgebraError(f"unknown order name: {order_name}")
