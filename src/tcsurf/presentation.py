"""Finitely presented graded algebras and their degreewise quotients.

A presentation is a free supercommutative algebra plus a list of homogeneous
relations.  A relation with a single term of positive degree kills its
monomial: the killed monomials generate a monomial ideal M, and the other
relations an ideal N.  The quotient is built degree by degree over the
surviving monomials, those that no killed monomial divides.  In each degree
the ideal span is the echelonized set of products (surviving monomial) *
(relation of N) with their killed terms dropped (less those the F5
criterion proves redundant; see QuotientAlgebra), the quotient basis is the
set of non-pivot survivors, and elements are kept in normal form with
respect to that echelon.  This is the echelon of M + N with the unit rows
of M left out: the pivots of M + N are the killed monomials plus the pivots
found over the survivors, so the normal forms are those of the full
elimination.  Construction runs one window of degrees past the formal top so
that vanishing is verified, never assumed: once every degree in a window of
length max(generator degree) is zero, all higher degrees are provably zero
(each monomial has a generator factor).

Also here: JSON serialization of presentations, and tensor squares with
the Koszul sign rule.
"""

from __future__ import annotations

import json

from .errors import (
    AlgebraError,
    HomogeneityError,
    MismatchError,
    ModelInconsistencyError,
    ResourceBudgetError,
    TruncationError,
)
from .exterior import Element, FreeAlgebra, add_scaled
from .fields import field_from_name
from .linalg import echelonize

# bound on the columns plus relation products of any one quotient degree
DEFAULT_BUDGET = 1_000_000

# a lead table entry is one byte: a relation index below this, or this
_NO_LEAD = 255


def _json_int(value):
    """value itself if it is an int; floats, strings and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


class AlgebraPresentation:
    """A free algebra together with homogeneous relations."""

    def __init__(self, free: FreeAlgebra, relations, top_degree=None, label=None):
        self.free = free
        self.field = free.field
        self.relations = []
        for r in relations:
            if not isinstance(r, Element) or r.algebra is not free:
                raise MismatchError("relation is not an element of the free algebra")
            if r.is_zero():
                continue
            if r.degree() is None:
                raise HomogeneityError(f"relation is not homogeneous: {r}")
            if r.degree() == 0:
                raise AlgebraError(f"relation {r} is a nonzero scalar")
            self.relations.append(r)
        if top_degree is not None and (isinstance(top_degree, bool)
                                       or not isinstance(top_degree, int)
                                       or top_degree < 0):
            raise AlgebraError("top_degree must be a nonnegative integer")
        self.top_degree = top_degree
        self.label = label or "presentation"

    def natural_bound(self):
        """Degree above which the free algebra itself vanishes, if any."""
        if self.field.char != 2 and all(self.free.odd):
            return sum(self.free.degrees)
        return None

    def to_json(self) -> dict:
        free = self.free
        rels = []
        for r in self.relations:
            terms = []
            for mon in sorted(r.terms):
                terms.append({
                    "coeff": self.field.fmt(r.terms[mon]),
                    "monomial": [free.names[g] for g in mon],
                })
            rels.append(terms)
        data = {
            "field": self.field.name,
            "generators": [{"name": g.name, "degree": g.degree} for g in free.generators],
            "relations": rels,
        }
        if self.top_degree is not None:
            data["top_degree"] = self.top_degree
        if self.label != "presentation":
            data["label"] = self.label
        return data

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraPresentation":
        """Inverse of to_json; missing keys or bad values raise AlgebraError."""
        try:
            field = field_from_name(data["field"])
            free = FreeAlgebra(field, [(g["name"], _json_int(g["degree"]))
                                       for g in data["generators"]])
            relations = []
            for terms in data.get("relations", []):
                acc = free.zero()
                for term in terms:
                    coeff = field.parse(term["coeff"])
                    mon, names = free.one(), term["monomial"]
                    if not isinstance(names, list):
                        raise TypeError(f"monomial {names!r} is not a list")
                    for name in names:
                        mon = free.multiply(mon, free.gen(name))
                    acc = acc + mon.scale(coeff)
                relations.append(acc)
            top_degree, label = data.get("top_degree"), data.get("label")
            if top_degree is not None:
                _json_int(top_degree)
        except AlgebraError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise AlgebraError(f"malformed presentation: {e!r}") from e
        return cls(free, relations, top_degree=top_degree, label=label)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AlgebraPresentation":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise AlgebraError(f"malformed presentation: {path}: {e}") from e
        return cls.from_json(data)

    def __repr__(self):
        return (f"AlgebraPresentation({self.label}: {self.free.ngens} generators, "
                f"{len(self.relations)} relations over {self.field.name})")


def _require_own(algebra, *elems):
    """Refuse an element of another algebra, as Element arithmetic does."""
    if any(e.algebra is not algebra for e in elems):
        raise MismatchError("elements from different algebras")


def split_relations(relations):
    """The killed monomials, those of the single-term relations of positive
    degree, as a frozenset; and (degree, relation) for every other one."""
    killed, rest = set(), []
    for r in relations:
        mon = next(iter(r.terms))
        if len(r.terms) == 1 and mon:
            killed.add(mon)
        else:
            rest.append((r.degree(), r))
    return frozenset(killed), rest


class _ProductRow(dict):
    """Basis monomial m2 -> normal form of m1 m2, as a term dict, for one
    basis monomial m1 of a quotient; each entry is filled on first use.  A
    product that is a basis monomial up to sign is its own normal form."""

    def __init__(self, A, m1):
        super().__init__()
        self.A, self.m1 = A, m1

    def __missing__(self, m2):
        A = self.A
        pair = A.free.mul_mon(self.m1, m2)
        if pair is None:
            hit = {}
        else:
            sign, mon = pair
            coeff = A.field.one if sign > 0 else A.field.neg(A.field.one)
            if mon in A.basis_degree:
                hit = {mon: coeff}
            else:
                hit = A.reduce_free(Element(A.free, {mon: coeff})).terms
        self[m2] = hit
        return hit


class QuotientAlgebra:
    """Graded quotient of a free algebra, with degreewise normal forms.

    Per degree d: mons[d] lists the surviving monomials (no killed monomial
    divides them) in ascending order, index[d] maps each to its column,
    ideal[d] is the echelonized span of the other relations' products over
    those columns, and basis[d] is the survivors that are not pivots.

    The rows of ideal[d] are formed on packed exponent vectors
    (FreeAlgebra.pack), local to degree d and of width d.bit_length() + 1,
    wide enough for any exponent of degree <= d.  A survivor of degree
    d - e times a term of a relation of degree e is one integer add, looked
    up among the packed survivors of degree d; a product that is killed,
    or that repeats an odd generator over Q, is no survivor and is dropped.
    Its Koszul sign is the parity of one popcount (FreeAlgebra.odd_bits).
    The rows come relation by relation, each over the survivors in
    ascending order, with the same entries as FreeAlgebra.mul_mon gives.

    Rows that Faugere's F5 criterion proves redundant are never formed.
    Number the multi-term relations r_1, r_2, ... in their given order.
    Each degree k keeps a lead table: for each column m of degree k, the
    lowest i such that a row m' r_i made in degree k has m as its smallest
    column.  The product m r_j of degree d is skipped when that i is below
    j.  The table holds a byte per column, a bytearray: a list of ints
    would put 8 bytes per column on the build's memory peak.  So it records
    only i below _NO_LEAD, and a later relation is skipped only against
    those.  Such a row g = m' r_i reads c m + (sum over t > m of c_t t)
    modulo the killed monomials, with c nonzero, so

        m r_j = (g r_j - sum over t > m of c_t t r_j) / c.

    g r_j lies in the ideal of r_1 .. r_(j-1), which their degree-d rows
    span; each t r_j is a row or is spanned in turn, by descending
    induction on t.  So the span is that of every product, and RREF is
    unique for a given span: pivots, bases and normal forms are those of
    the full elimination, whatever rows are inserted.

    Before degree d is enumerated, the degrees below it bound its work.
    A survivor is a survivor of lower degree times its last generator g, so
    degree d has at most the sum over g of len(mons[d - |g|]) columns; it
    gets one product per multi-term relation of degree e and survivor of
    degree d - e.  When the two bounds together exceed DEFAULT_BUDGET,
    ResourceBudgetError names d.
    """

    def __init__(self, presentation: AlgebraPresentation, max_degree=None):
        pres = presentation
        self.presentation = pres
        self.free = pres.free
        self.field = pres.field
        self.label = pres.label
        free = self.free

        window = max(free.degrees) if free.ngens else 1
        natural = pres.natural_bound()
        formal_top = pres.top_degree if pres.top_degree is not None else natural
        if formal_top is None:
            raise AlgebraError(
                "top_degree required: the free algebra has unbounded degrees "
                "(even generators, or characteristic 2)")
        bound = formal_top + window
        if natural is not None:
            bound = min(bound, natural)
        capped = False
        if max_degree is not None and max_degree < bound:
            bound = max_degree
            capped = True

        killed, rels = split_relations(pres.relations)
        self.mons = [[()]]
        self.basis = [[()]]
        self.index = [{(): 0}]
        self.ideal = [echelonize(self.field, 1, [])]
        leads = [bytearray([_NO_LEAD])]  # per degree, see _ideal_vectors
        stopped_clean = False
        for d in range(1, bound + 1):
            cols = sum(len(self.mons[d - dg]) for dg in free.degrees if dg <= d)
            rows = sum(len(self.mons[d - e]) for e, _ in rels if e <= d)
            if cols + rows > DEFAULT_BUDGET:
                raise ResourceBudgetError(
                    f"{self.label}: degree {d} needs up to {cols} columns and "
                    f"{rows} relation products, over the budget of {DEFAULT_BUDGET}")
            mons = free.monomials_of_degree(d, killed)
            idx = {m: i for i, m in enumerate(mons)}
            leads.append(bytearray([_NO_LEAD]) * len(mons))
            vectors = self._ideal_vectors(d, rels, mons, leads)
            self.ideal.append(echelonize(self.field, len(mons), vectors))
            piv = set(self.ideal[d].pivots)
            self.basis.append([m for i, m in enumerate(mons) if i not in piv])
            self.mons.append(mons)
            self.index.append(idx)
            if d >= window and all(not self.basis[d - k] for k in range(window)):
                stopped_clean = True
                break

        self.built_top = len(self.basis) - 1
        # basis monomial -> degree, read by every product in the tensor square
        self.basis_degree = {m: d for d, b in enumerate(self.basis) for m in b}
        self.dims = [len(b) for b in self.basis]
        self.top_nonzero = max((d for d, n in enumerate(self.dims) if n), default=0)
        self.exhaustive = stopped_clean or (
            not capped and natural is not None and bound == natural)
        self._mul_cache = {}  # basis monomial m1 -> _ProductRow of m1

    def _ideal_vectors(self, d, rels, mons, leads):
        """Each relation times each surviving monomial of the complementary
        degree, over the degree-d survivors mons, on packed vectors (see the
        class docstring), less the products the F5 criterion proves
        redundant.  A killed multiplier is left out, since its products are
        all killed.  leads[k] is the lead table of degree k: column -> the
        lowest index of a relation with a row of degree k led there
        (_NO_LEAD when none is below it); leads[d] is filled as the rows
        are made."""
        free, neg = self.free, self.field.neg
        w = d.bit_length() + 1
        cols = {p: i for i, p in enumerate(free.pack(mons, w))}
        lead = leads[d]
        lower = {}
        for j, (e, r) in enumerate(rels):
            if e > d:
                continue
            terms = [(p, c, neg(c), free.odd_bits(t, w)[1])
                     for p, (t, c) in zip(free.pack(r.terms, w), r.terms.items())]
            if d - e not in lower:
                lower[d - e] = free.pack(self.mons[d - e], w)
            below = min(j, _NO_LEAD)
            for pm, first in zip(lower[d - e], leads[d - e]):
                if first < below:
                    continue
                vec = {}
                for pt, c, nc, above in terms:
                    col = cols.get(pm + pt)
                    if col is not None:
                        vec[col] = nc if (pm & above).bit_count() & 1 else c
                if vec:
                    low = min(vec)
                    if lead[low] > j:
                        lead[low] = j
                    yield vec

    # -- degree bookkeeping --------------------------------------------------

    def dim(self, d: int) -> int:
        return len(self.basis_monomials(d))

    def basis_monomials(self, d: int):
        if 0 <= d <= self.built_top:
            return self.basis[d]
        if d < 0 or self.exhaustive:
            return []
        raise TruncationError(
            f"{self.label}: degree {d} beyond the constructed range {self.built_top}")

    def term_degree(self, mon) -> int:
        return self.free.monomial_degree(mon)

    def term_str(self, mon) -> str:
        return self.free.mon_str(mon)

    def hilbert(self):
        """Dimensions per degree; see hilbert_series."""
        t = self.presentation.top_degree
        if t is None:
            return self.dims[:self.top_nonzero + 1]
        if self.top_nonzero > t:
            first = next(d for d in range(t + 1, len(self.dims)) if self.dims[d])
            raise ModelInconsistencyError(
                f"{self.label}: degree {first} is nonzero, above the declared "
                f"top_degree {t}")
        return (self.dims + [0] * t)[:t + 1]

    # -- elements ------------------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): self.field.one})

    def gen(self, name: str):
        return self.reduce_free(self.free.gen(name))

    def generator_elements(self):
        return [self.gen(name) for name in self.free.names]

    def element_in_free(self, e: Element) -> Element:
        return Element(self.free, dict(e.terms))

    def reduce_free(self, e: Element) -> Element:
        """Normal form of a free-algebra element (also accepts own elements).

        Killed terms are dropped; the rest is reduced over the survivors."""
        _require_own(self if e.algebra is self else self.free, e)
        field = self.field
        out = {}
        for part_deg, part in e.homogeneous_parts().items():
            if part_deg > self.built_top:
                if self.exhaustive:
                    continue
                raise TruncationError(
                    f"{self.label}: cannot reduce in degree {part_deg}, "
                    f"constructed only through {self.built_top}")
            idx = self.index[part_deg]
            vec = {idx[m]: c for m, c in part.terms.items() if m in idx}
            residue = self.ideal[part_deg].reduce(vec)
            mons = self.mons[part_deg]
            for col, val in residue.items():
                out[mons[col]] = field.coerce(val)
        return Element(self, out)

    def multiply(self, e1: Element, e2: Element) -> Element:
        _require_own(self, e1, e2)
        prod = self.free.multiply(self.element_in_free(e1), self.element_in_free(e2))
        return self.reduce_free(prod)

    def products_by(self, m1):
        """The product table's row for the basis monomial m1: a dict from
        each basis monomial m2 to the normal form of m1 m2, as a term dict,
        each entry filled on first use."""
        row = self._mul_cache.get(m1)
        if row is None:
            row = self._mul_cache[m1] = _ProductRow(self, m1)
        return row

    def mul_basis(self, m1, m2):
        """Normal form of the product of two basis monomials, as a term dict."""
        return self.products_by(m1)[m2]

    def __repr__(self):
        return f"QuotientAlgebra({self.label}, dims={self.hilbert()})"


def quotient(presentation: AlgebraPresentation, max_degree=None) -> QuotientAlgebra:
    return QuotientAlgebra(presentation, max_degree=max_degree)


def hilbert_series(algebra: QuotientAlgebra):
    """Dimensions [dim A^0, dim A^1, ...].

    With an explicit top_degree in the presentation the list runs through
    that degree, and a nonzero degree above it raises
    ModelInconsistencyError; otherwise trailing zero degrees are trimmed.
    """
    return algebra.hilbert()


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --------------------------------------------------------------------------
# tensor square


class TensorSquareAlgebra:
    """A (x) A with the Koszul sign rule; its terms are pairs of basis
    monomials.

    The square holds only its dims, computed on construction as the
    convolution of the leg dimensions; it lists no pairs.  Every product
    reads its legs from A's product table (A.products_by), which caches
    them.  On a truncated quotient (built only through some degree cap)
    the legs stop at the built range, and a product whose legs would leave
    it raises TruncationError from A.reduce_free, so callers prune with a
    bound.
    """

    def __init__(self, A: QuotientAlgebra):
        self.A = A
        self.field = A.field
        leg_top = A.top_nonzero if A.exhaustive else A.built_top
        self.leg_top = leg_top
        self.top = 2 * leg_top
        self.label = f"{A.label} (x) {A.label}"
        legs = [A.dim(e) for e in range(leg_top + 1)]
        self.dims = convolve(legs, legs)

    def pair_degree(self, pair):
        deg = self.A.basis_degree
        return deg[pair[0]] + deg[pair[1]]

    # Element terms are pairs of basis monomials.
    term_degree = pair_degree

    def term_str(self, pair) -> str:
        free = self.A.free
        return f"{free.mon_str(pair[0])}(x){free.mon_str(pair[1])}"

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {((), ()): self.field.one})

    def tensor(self, a: Element, b: Element) -> Element:
        """a (x) b for normal-form elements of A."""
        _require_own(self.A, a, b)
        field = self.field
        acc = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                acc[(m1, m2)] = field.mul(c1, c2)
        return Element(self, acc)

    def bar(self, a: Element) -> Element:
        """a (x) 1 - 1 (x) a, the basic zero-divisor attached to a."""
        return self.tensor(a, self.A.one()) - self.tensor(self.A.one(), a)

    def multiply(self, t1: Element, t2: Element, bound=None) -> Element:
        """t1 * t2 term by term, by

            (x (x) y) * (u (x) v) = (-1)^{|y||u|} (x u) (x) (y v),

        summed into one dict of pairs.  Both legs are read from A's product
        table, a row per left monomial (A.products_by).  With bound =
        (p, q), only terms of bidegree <= (p, q) are formed: bidegrees only
        grow under multiplication, so the coefficients at or below the
        bound are those of the full product.
        """
        _require_own(self, t1, t2)
        A, field = self.A, self.field
        add, mul, neg = field.add, field.mul, field.neg
        deg = A.basis_degree
        acc = {}
        get = acc.get
        for (x, y), c1 in t1.terms.items():
            if bound is not None:
                p, q = bound[0] - deg[x], bound[1] - deg[y]
            x_row, y_row, y_odd = A.products_by(x), A.products_by(y), deg[y] % 2
            for (u, v), c2 in t2.terms.items():
                if bound is not None and (deg[u] > p or deg[v] > q):
                    continue
                xu = x_row[u]
                if not xu:
                    continue
                yv = y_row[v]
                if not yv:
                    continue
                c = mul(c1, c2)
                if y_odd and deg[u] % 2:
                    c = neg(c)
                for ml, cl in xu.items():
                    cl = mul(c, cl)
                    for mr, cr in yv.items():
                        key, z = (ml, mr), mul(cl, cr)
                        prev = get(key)
                        acc[key] = z if prev is None else add(prev, z)
        return Element(self, {k: c for k, c in acc.items() if c})

    def mu(self, t: Element) -> Element:
        """Multiplication map A (x) A -> A."""
        _require_own(self, t)
        acc = {}
        for (m1, m2), c in t.terms.items():
            add_scaled(self.field, acc, self.A.mul_basis(m1, m2), c)
        return Element(self.A, acc)

    def __repr__(self):
        return f"TensorSquareAlgebra({self.A.label}, dims={self.dims})"


def tensor_square(A: QuotientAlgebra) -> TensorSquareAlgebra:
    """The tensor square of A, one per algebra.

    The memo is for identity, not speed: elements compare equal only within
    one algebra object, so a class built on it (the diagonal of
    surface_diagonal) must live in the square every other caller gets.  The
    square holds no products; A's product table caches their legs.
    """
    T = getattr(A, "_tensor_square", None)
    if T is None:
        T = A._tensor_square = TensorSquareAlgebra(A)
    return T
