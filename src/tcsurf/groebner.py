"""Groebner-basis verification in exterior algebras.

All generators must have degree 1.  Monomials are squarefree sets; the term
order is degree-lexicographic over a generator priority.  The Buchberger
criterion is adapted to the exterior setting: besides the classical S-pairs
over lead lcms, every relation is also multiplied by each variable of its
own lead (odd squares vanish, so those products can have new leads).  The
basis is only verified, never completed.

The bundled ideal family is the reduced-generator torus ideal x_j y_j,
x_j y_i + x_i y_j; its normal monomials per degree must match the Hilbert
series of the corresponding diagonal-ideal quotient, which is the
cross-check gb_hilbert exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import AlgebraError, CertificateError, UnsupportedModelError
from .exterior import Element, FreeAlgebra, add_scaled
from .fields import QQ


class TermOrder:
    """Degree-lexicographic order given by a generator priority list.

    priority lists generator names from smallest to largest.  Monomials of
    equal degree compare by their descending rank tuples.
    """

    def __init__(self, free: FreeAlgebra, priority):
        self.free = free
        names = list(priority)
        if sorted(names) != sorted(free.names):
            raise AlgebraError("priority must be a permutation of the generators")
        self.priority = names
        self.rank = {}
        for pos, name in enumerate(names):
            self.rank[free.by_name[name]] = pos

    def key(self, mon):
        return (len(mon), tuple(sorted((self.rank[g] for g in mon), reverse=True)))

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


def _check_exterior(free: FreeAlgebra):
    if any(d != 1 for d in free.degrees):
        raise UnsupportedModelError("only degree-1 generators are supported")


def _mul_mon_ext(free: FreeAlgebra, m1, m2):
    """Exterior product of squarefree monomials: signed merge or None."""
    if free.field.char != 2:
        return free.mul_mon(m1, m2)
    if set(m1) & set(m2):
        return None
    return 1, tuple(sorted(m1 + m2))


def _mul_by_mon(free: FreeAlgebra, e: Element, mon) -> Element:
    field = free.field
    out = {}
    for m, c in e.terms.items():
        hit = _mul_mon_ext(free, mon, m)
        if hit is None:
            continue
        sign, merged = hit
        out[merged] = field.neg(c) if sign < 0 else c
    return Element(free, out)


def reduce_element(e: Element, relations, order: TermOrder,
                   strategy: str = "lead") -> Element:
    """Normal form of e against the relations under the order.

    strategy picks which reducible monomial to clear next: "lead" takes the
    largest, "low" the smallest.  With a Groebner basis both sequences end
    at the same normal form; that is a tested property, not an assumption.
    """
    free = e.algebra
    field = free.field
    leads = [(set(order.lead(r)), order.lead(r), r) for r in relations]
    work = dict(e.terms)
    done = {}
    while work:
        if strategy == "lead":
            m = max(work, key=order.key)
        elif strategy == "low":
            m = min(work, key=order.key)
        else:
            raise AlgebraError(f"unknown reduction strategy: {strategy}")
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
        u = tuple(sorted(mset - set(lmon)))
        ur = _mul_by_mon(free, r, u)
        lc = ur.terms[m]
        add_scaled(field, work, ur.terms, field.neg(field.div(work[m], lc)))
    return Element(free, done)


def s_polynomial(f: Element, g: Element, order: TermOrder):
    """Classical S-polynomial over the lead lcm (here: union)."""
    free = f.algebra
    field = free.field
    lf, lg = order.lead(f), order.lead(g)
    lcm = tuple(sorted(set(lf) | set(lg)))
    uf = tuple(sorted(set(lcm) - set(lf)))
    ug = tuple(sorted(set(lcm) - set(lg)))
    tf = _mul_by_mon(free, f, uf)
    tg = _mul_by_mon(free, g, ug)
    cf = tf.terms.get(lcm, field.zero)
    cg = tg.terms.get(lcm, field.zero)
    if cf == field.zero or cg == field.zero:
        # an odd square killed one side; whatever remains must still reduce
        return tf if cg == field.zero else tg
    return tf.scale(cg) - tg.scale(cf)


@dataclass
class GbReport:
    is_groebner: bool
    spair_log: list
    normal_monomial_counts: list
    order: TermOrder
    orders_tried: list = dc_field(default_factory=list)

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
    leads = [set(order.lead(r)) for r in relations]
    counts = []
    for d in range(free.ngens + 1):
        c = 0
        for mon in free.monomials_of_degree(d):
            mset = set(mon)
            if len(mset) != len(mon):
                continue
            if not any(l <= mset for l in leads):
                c += 1
        counts.append(c)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _run_check(relations, order: TermOrder):
    free = relations[0].algebra
    log = []
    ok = True
    for i, f in enumerate(relations):
        for v in sorted(set(order.lead(f))):
            prod = _mul_by_mon(free, f, (v,))
            rem = reduce_element(prod, relations, order)
            log.append((("self", i, free.names[v]), repr(rem)))
            if not rem.is_zero():
                ok = False
        for j in range(i + 1, len(relations)):
            s = s_polynomial(f, relations[j], order)
            rem = reduce_element(s, relations, order) if not s.is_zero() else s
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
        free = order.free
        _check_exterior(free)
        counts = [len(free.monomials_of_degree(d)) for d in range(free.ngens + 1)]
        return GbReport(True, [], counts, order, [order])
    free = relations[0].algebra
    if not isinstance(free, FreeAlgebra):
        raise AlgebraError("relations must live in a free algebra")
    _check_exterior(free)
    for r in relations:
        if r.is_zero() or r.degree() is None:
            raise AlgebraError("relations must be nonzero and homogeneous")
        if r.algebra is not free:
            raise AlgebraError("relations live in different algebras")
    if try_reversal is None:
        try_reversal = order is None
    first = order or TermOrder(free, list(free.names))
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
    if n < 1:
        raise AlgebraError("n must be positive")
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
    free, rels, default = torus_ideal(n)
    if n == 1:
        # no relations in range; the full exterior algebra is its own model
        counts = [len(free.monomials_of_degree(d)) for d in range(free.ngens + 1)]
        while counts and counts[-1] == 0:
            counts.pop()
        return GbReport(True, [], counts, default, [default])
    if order_name == "default":
        return buchberger_check(rels, default, try_reversal=True)
    if order_name == "reversed":
        return buchberger_check(rels, default.reversed(), try_reversal=False)
    raise AlgebraError(f"unknown order name: {order_name}")
