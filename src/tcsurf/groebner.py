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

The check runs on packed terms.  A TermOrder packs an element into a dict
{mask: coefficient}: bit r of a mask stands for the generator of rank r,
and the coefficients are those of the ascending-rank wedge basis, so a
monomial's key is (mask.bit_count(), mask), a lead l divides m when
l & m == l, and a cofactor's sign is a popcount parity (see _times).  The
ascending-rank basis vector of a mask and the ascending-gid one of its
monomial differ by the sign of the permutation between the two orders
(TermOrder._flips); pack and unpack apply it.  Reduction steps need no
such care, since each divides out the product's own coefficient.  The
S-polynomial does: it is defined on gid-ordered monomials, as c_g (u_f f)
- c_f (u_g g) with the cofactors u_f, u_g written in gid order and c_f,
c_g the gid-basis coefficients of the lcm, so its packed form carries the
signs of the lcm and of both cofactors.  Only a nonzero remainder is
unpacked, for the log.

The bundled ideal family is the reduced-generator torus ideal x_j y_j,
x_j y_i + x_i y_j; its normal monomials per degree must match the Hilbert
series of the corresponding diagonal-ideal quotient, which is the
cross-check gb_hilbert exists for.  The normal monomials are counted by
enumerating only the monomials that avoid every lead
(FreeAlgebra.monomials_of_degree with the leads as avoid), so counting
costs the size of the quotient, not the 2^ngens monomials of the free
algebra.  That size is (n + 1) 2^n for the torus ideal, so a degree whose
listing would try more than COUNT_BUDGET candidates is refused before it
is listed.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import (AlgebraError, CertificateError, MismatchError,
                     ResourceBudgetError, UnsupportedModelError, _require_int)
from .exterior import Element, FreeAlgebra, add_scaled
from .fields import QQ

# Most candidate extensions _normal_counts may try for one degree.
COUNT_BUDGET = 1_000_000


def _mask_key(mask):
    return (mask.bit_count(), mask)


def _ranks(mask):
    """The set bits of mask, from the lowest up."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _times(u, terms):
    """u * terms in the ascending-rank basis, for a mask u and packed terms.

    e_u e_m = (-1)^k e_(u | m) for disjoint u and m, where k counts the
    pairs of a rank of u above a rank of m: its parity is that of
    popcount(m & below), below the xor over the ranks r of u of the masks
    of the ranks under r.  Distinct terms have distinct products.
    """
    below, rest = 0, u
    while rest:
        low = rest & -rest
        below ^= low - 1
        rest ^= low
    return {u | m: -c if (m & below).bit_count() & 1 else c
            for m, c in terms.items() if not u & m}


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

    A TermOrder is also the algebra of the elements it packs (pack): their
    terms are those bitmasks and their coefficients are in the
    ascending-rank wedge basis.
    """

    def __init__(self, free: FreeAlgebra, priority):
        if free.field.char != 0:
            raise UnsupportedModelError(
                f"Groebner checks run over Q only, not {free.field.name}")
        if any(d != 1 for d in free.degrees):
            raise UnsupportedModelError("only degree-1 generators are supported")
        self.free = free
        names = list(priority)
        for name in names:
            if not isinstance(name, str) or name not in free.by_name:
                raise AlgebraError(
                    f"priority entry {name!r} is not a generator name of {free!r}")
        if len(names) != free.ngens or len(set(names)) != free.ngens:
            raise AlgebraError("priority must be a permutation of the generators")
        self.priority = names
        self.rank = {}
        for pos, name in enumerate(names):
            self.rank[free.by_name[name]] = pos
        self._bit = [1 << self.rank[g] for g in range(free.ngens)]
        self._gid = [free.by_name[name] for name in names]
        # the ranks below r whose generators come after rank r's in gid order
        self._swaps = [sum(1 << s for s in range(r) if self._gid[s] > gid)
                       for r, gid in enumerate(self._gid)]

    def key(self, mon):
        return (len(mon), sum(map(self._bit.__getitem__, mon)))

    def lead(self, e: Element):
        if e.is_zero():
            raise AlgebraError("zero element has no lead monomial")
        return max(e.terms, key=self.key)

    def _flips(self, mask):
        """1 when the generators of mask in gid order are an odd permutation
        of the same generators in rank order, else 0."""
        swaps, odd, rest = self._swaps, 0, mask
        while rest:
            low = rest & -rest
            odd ^= (mask & swaps[low.bit_length() - 1]).bit_count()
            rest ^= low
        return odd & 1

    def pack(self, e: Element) -> Element:
        """An element of the free algebra as an element of the order."""
        if not isinstance(e, Element) or e.algebra is not self.free:
            raise MismatchError(f"{e!r} is not an element of {self.free!r}")
        bit = self._bit
        out = {}
        for mon, c in e.terms.items():
            m = sum(map(bit.__getitem__, mon))
            out[m] = -c if self._flips(m) else c
        return Element(self, out)

    def unpack(self, p: Element) -> Element:
        """The inverse of pack."""
        if not isinstance(p, Element) or p.algebra is not self:
            raise MismatchError(f"{p!r} is not an element packed by {self!r}")
        gid = self._gid
        out = {}
        for m, c in p.terms.items():
            mon = tuple(sorted(gid[r] for r in _ranks(m)))
            out[mon] = -c if self._flips(m) else c
        return Element(self.free, out)

    # -- the algebra of packed elements ------------------------------------

    @property
    def field(self):
        return self.free.field

    term_degree = staticmethod(int.bit_count)

    def term_str(self, mask):
        return "*".join(self.priority[r] for r in _ranks(mask)) or "1"

    def multiply(self, e1: Element, e2: Element) -> Element:
        acc = {}
        for m, c in e1.terms.items():
            add_scaled(self.field, acc, _times(m, e2.terms), c)
        return Element(self, acc)

    def reversed(self) -> "TermOrder":
        return TermOrder(self.free, list(reversed(self.priority)))

    def describe(self):
        return " < ".join(self.priority)

    def __repr__(self):
        return f"TermOrder({self.describe()})"


def _packed(order, elements, packed_ok=True) -> bool:
    """Whether the elements are packed by the order (else they live in its
    free algebra, which TermOrder's guard vouches for).

    Refuses an order that is not a TermOrder and an element that is not an
    Element with AlgebraError, and elements outside the order's algebras,
    or some packed and some not, with MismatchError.  packed_ok false
    admits the free algebra only.
    """
    if not isinstance(order, TermOrder):
        raise AlgebraError(f"{order!r} is not a TermOrder")
    for e in elements:
        if not isinstance(e, Element):
            raise AlgebraError(f"{e!r} is not an Element")
    algebras = {e.algebra for e in elements}
    if algebras <= {order.free}:
        return False
    if packed_ok and algebras == {order}:
        return True
    raise MismatchError("the order and the elements live in different algebras")


def _lead_table(relations, order: TermOrder):
    """(lead mask, packed relation, lead) for each relation under the order."""
    _packed(order, relations, packed_ok=False)
    table = []
    for r in relations:
        lead = order.lead(r)
        table.append((order.key(lead)[1], order.pack(r), lead))
    return table


def reduce_element(e: Element, relations, order: TermOrder, *,
                   leads=None) -> Element:
    """Normal form of e against the relations under the order.

    Each step clears the largest monomial of e that a lead divides.  With a
    Groebner basis clearing the smallest first ends at the same normal form;
    that is a tested property, not an assumption.  e may be packed by the
    order; the normal form takes e's form.  leads, when given, is
    _lead_table(relations, order), which a caller that reduces many
    elements against one order builds once.
    """
    packed = _packed(order, [e])
    if leads is None:
        leads = _lead_table(relations, order)
    field = order.field
    div = field.div
    work = dict((e if packed else order.pack(e)).terms)
    done = {}
    while work:
        m = max(work, key=_mask_key)
        for lmask, r, _ in leads:
            if lmask & m == lmask:
                ur = _times(m ^ lmask, r.terms)
                add_scaled(field, work, ur, -div(work[m], ur[m]))
                break
        else:
            done[m] = work.pop(m)
    rem = Element(order, done)
    return rem if packed else order.unpack(rem)


def s_polynomial(f: Element, g: Element, order: TermOrder):
    """Classical S-polynomial over the lead lcm (here: union).

    Each cofactor lcm - lead is disjoint from its squarefree lead, so both
    products keep the lcm term.  f and g may both be packed by the order;
    the S-polynomial takes their form.  Its signs are those of the gid
    order (see the module docstring).
    """
    packed = _packed(order, (f, g))
    pf, pg = (f, g) if packed else (order.pack(f), order.pack(g))
    lf, lg = max(pf.terms, key=_mask_key), max(pg.terms, key=_mask_key)
    lcm = lf | lg
    tf, tg = _times(lcm ^ lf, pf.terms), _times(lcm ^ lg, pg.terms)
    cf, cg = tf[lcm], tg[lcm]
    if order._flips(lcm) ^ order._flips(lcm ^ lf) ^ order._flips(lcm ^ lg):
        cf, cg = -cf, -cg
    acc = {}
    add_scaled(order.field, acc, tf, cg)
    add_scaled(order.field, acc, tg, -cf)
    s = Element(order, acc)
    return s if packed else order.unpack(s)


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


def _normal_counts(free: FreeAlgebra, leads):
    """Normal monomials per degree, for the lead table leads; trailing zero
    degrees are dropped.

    The listing of degree d extends each normal monomial of degree d - 1
    by every generator above its last one.  When those candidates number
    more than COUNT_BUDGET, the degree is refused with ResourceBudgetError
    before it is listed.
    """
    avoid = frozenset(lead for _, _, lead in leads)
    if () in avoid:
        return []  # a unit lead divides every monomial
    counts, tries = [1], free.ngens
    for d in range(1, free.ngens + 1):
        if tries > COUNT_BUDGET:
            raise ResourceBudgetError(
                f"normal monomials of degree {d}: listing them tries {tries} "
                f"candidates, over the budget of {COUNT_BUDGET}")
        normal = free.monomials_of_degree(d, avoid)
        if not normal:
            break
        counts.append(len(normal))
        tries = len(normal) * (free.ngens - 1) - sum(map(itemgetter(-1), normal))
    return counts


def _run_check(relations, order: TermOrder, leads):
    """(is it a basis, the log) for the relations and their lead table."""
    names = order.free.names
    bit = order._bit
    log = []
    for i, (_, f, lead) in enumerate(leads):
        for v in lead:
            prod = Element(order, _times(bit[v], f.terms))
            log.append((("self", i, names[v]),
                        reduce_element(prod, relations, order, leads=leads)))
        for j in range(i + 1, len(leads)):
            s = s_polynomial(f, leads[j][1], order)
            log.append(((i, j), reduce_element(s, relations, order, leads=leads)
                         if not s.is_zero() else s))
    ok = all(rem.is_zero() for _, rem in log)
    return ok, [(label, repr(order.unpack(rem)) if rem.terms else "0")
                for label, rem in log]


def buchberger_check(relations, order: TermOrder = None,
                     try_reversal: bool = None) -> GbReport:
    """Is the relation set a Groebner basis under the order?

    With order=None the declaration order is used and, on failure, the
    reversed priority is tried before reporting; the report records every
    order tried and keeps the successful one.  Only the kept order's
    normal monomials are counted.
    """
    relations = list(relations)
    for r in relations:
        if not isinstance(r, Element):
            raise AlgebraError(f"{r!r} is not an Element")
    if order is not None and not isinstance(order, TermOrder):
        raise AlgebraError(f"{order!r} is not a TermOrder")
    if not relations:
        if order is None:
            raise AlgebraError("an empty relation set needs an explicit order")
        return GbReport(True, [], _normal_counts(order.free, []), order, [order])
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
    orders = [first] + ([first.reversed()] if try_reversal else [])
    tried = []
    for o in orders:
        leads = _lead_table(relations, o)
        ok, log = _run_check(relations, o, leads)
        tried.append(o)
        if ok or o is orders[-1]:
            return GbReport(ok, log, _normal_counts(free, leads), o, tried)


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
