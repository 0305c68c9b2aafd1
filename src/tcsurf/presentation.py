"""Finitely presented graded algebras and their degreewise quotients.

A presentation is a free supercommutative algebra plus a list of homogeneous
relations.  A relation with a single term of positive degree kills its
monomial: the killed monomials generate a monomial ideal M, and the other
relations an ideal N.  The quotient is built degree by degree over the
surviving monomials, those that no killed monomial divides.  In each degree
the ideal span is the echelonized set of products (surviving monomial) *
(relation of N) with their killed terms dropped (less those the F5
criterion proves redundant; see _ideal_rows), the quotient basis is the
set of non-pivot survivors, and elements are kept in normal form with
respect to that echelon.  This is the echelon of M + N with the unit rows
of M left out: the pivots of M + N are the killed monomials plus the pivots
found over the survivors, so the normal forms are those of the full
elimination.  Construction runs one window of degrees past the formal top so
that vanishing is verified, never assumed: once every degree in a window of
length max(generator degree) is zero, all higher degrees are provably zero
(each monomial has a generator factor).

A presentation whose generators carry weights, with every relation
weight-homogeneous, also has a quotient by blocks: weight_block builds the
(degree, weight) part of one degree alone, over the survivors of that
weight, and its pivots and normal forms are those of the whole degree (see
weight_block).  A quotient degree is itself a block, that of the trivial
grading, every generator of weight (): one enumerator
(FreeAlgebra.monomials_of_degree, keyed on degree and weight), one row
generator (_ideal_rows) and one budget rule (_WeightBlocks.check_budget)
serve both.

Also here: JSON serialization of presentations, and tensor squares with
the Koszul sign rule.
"""

from __future__ import annotations

import json
from collections import Counter

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
    """A free algebra together with homogeneous relations.

    weights, when given, holds one weight per generator, each a tuple of
    ints of one common length; a monomial's weight is the sum of its
    generators'.  Every relation must then be weight-homogeneous too
    (HomogeneityError otherwise), so that the quotient splits into the
    (degree, weight) blocks of weight_block.  Weights are not written to
    JSON.
    """

    def __init__(self, free: FreeAlgebra, relations, top_degree=None, label=None,
                 weights=None):
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
        self.weights = None
        if weights is not None:
            self.weights = tuple(tuple(w) for w in weights)
            self._check_weights()
        self._blocks = None  # the _WeightBlocks of weight_block, made on first use

    def _check_weights(self):
        weights = self.weights
        if (len(weights) != self.free.ngens
                or len({len(w) for w in weights}) > 1
                or any(type(x) is not int for w in weights for x in w)):
            raise AlgebraError(f"{self.label}: weights need one tuple of ints "
                               "of one length per generator")
        for r in self.relations:
            if len({self.weight(m) for m in r.terms}) > 1:
                raise HomogeneityError(
                    f"{self.label}: relation is not weight-homogeneous: {r}")

    def weight(self, mon):
        """The weight of a monomial: the sum of its generators' weights."""
        weights = self.weights
        if weights is None:
            raise AlgebraError(f"{self.label}: weight blocks need generator weights")
        acc = [0] * len(weights[0]) if weights else []
        for g in mon:
            for h, x in enumerate(weights[g]):
                acc[h] += x
        return tuple(acc)

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

    Degree d is the block (d, ()) of the trivial grading, every generator
    of weight (): its survivors, rows and budget check are weight_block's
    (see _WeightBlocks).  Degree d is refused with ResourceBudgetError,
    naming d, before it is enumerated when the sum over generators g of
    len(mons[d - |g|]) columns plus one product per multi-term relation of
    degree e and survivor of degree d - e exceed DEFAULT_BUDGET.
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

        parts = _WeightBlocks(pres, graded=False)
        self.mons, self.index, self.ideal, self.basis = [], [], [], []
        stopped_clean = False
        for d in range(bound + 1):
            blk = parts.block(d, ())
            self.mons.append(blk.mons)
            self.index.append(blk.index)
            self.ideal.append(blk.ideal)
            self.basis.append(blk.basis)
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
            out.update(_normal_form(field, self.index[part_deg], self.mons[part_deg],
                                    self.ideal[part_deg], part.terms))
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


def _ideal_rows(free: FreeAlgebra, d, mons, lead, rels, lower):
    """The rows of one homogeneous part of the ideal over its survivors mons
    of degree d: a whole degree of QuotientAlgebra or a (degree, weight)
    block of weight_block.  rels lists (key, r) for the multi-term relations
    r_1, r_2, ... in their given order, key naming the part of r's
    multipliers (None when r's degree exceeds d); lower(key) gives that
    part's survivors and lead table.  Each product m r is formed by
    _relation_products on vectors packed at width d.bit_length() + 1, wide
    enough for any exponent of degree <= d, relation by relation, each over
    the multipliers in ascending order.

    Products that Faugere's F5 criterion (ISSAC 2002) proves redundant are
    never formed.  A part's lead table gives each column m the lowest i
    such that a row m' r_i made in that part has m as its smallest column,
    and m r_j is skipped when that i is below j; lead, this part's table, is
    filled as the rows are made.  An entry is a byte (a list of ints would
    put 8 bytes per column on the memory peak), so only i below _NO_LEAD is
    recorded.  Such a row g = m' r_i reads c m + (sum over t > m of c_t t)
    modulo the killed monomials, with c nonzero, so

        m r_j = (g r_j - sum over t > m of c_t t r_j) / c.

    Every multi-term relation is homogeneous in degree and, when weights
    are given, in weight, so g r_j and each t r_j lie in this part.  g r_j =
    (m' r_j) r_i is spanned by this part's products of r_1 .. r_(j-1), by
    induction on j, and each t r_j by descending induction on t.  So the
    span is that of every product, and RREF is unique for a given span:
    pivots, bases and normal forms are those of the full elimination.
    echelonize stops at full rank and never asks for the rest, so a lead
    table can be partly filled; a missing entry only skips fewer products.
    """
    if not mons:  # no rows, so no lower part is built for it
        return
    w = d.bit_length() + 1
    cols = {p: i for i, p in enumerate(free.pack(mons, w))}
    packed = {}  # key -> that part's (packed survivor, lead entry) pairs
    for j, (key, r) in enumerate(rels):
        if key is not None and key not in packed:
            ms, first = lower(key)
            packed[key] = list(zip(free.pack(ms, w), first))
        below = min(j, _NO_LEAD)
        kept = [pm for pm, first in packed.get(key, ()) if first >= below]
        if not kept:
            continue
        for vec in _relation_products(_packed_relation(free, r, w), kept, cols):
            if vec:
                low = min(vec)
                if lead[low] > j:
                    lead[low] = j
                yield vec


def _normal_form(field, index, mons, ideal, terms) -> dict:
    """Normal form of a term dict in one homogeneous part, as a term dict:
    monomials with no column in index (killed ones) are dropped, the rest
    reduced by the part's echelon ideal over its survivors mons."""
    vec = {index[m]: c for m, c in terms.items() if m in index}
    return {mons[col]: field.coerce(v) for col, v in ideal.reduce(vec).items()}


def _packed_relation(free: FreeAlgebra, r: Element, w: int):
    """A relation's terms packed at width w: (packed term, coefficient,
    negated coefficient, the above bits of FreeAlgebra.odd_bits)."""
    neg = free.field.neg
    return [(p, c, neg(c), free.odd_bits(t, w)[1])
            for p, (t, c) in zip(free.pack(r.terms, w), r.terms.items())]


def _relation_products(terms, multipliers, cols):
    """For each packed multiplier m, the row m * r over the packed columns
    cols, with r's terms as _packed_relation gives them: one integer add
    per term, looked up among the columns, and the Koszul sign as the
    parity of one popcount.  A product that is no column (killed, or
    repeating an odd generator over Q) is dropped, so a row can be empty.
    The row kernel of _ideal_rows."""
    for pm in multipliers:
        vec = {}
        for pt, c, nc, above in terms:
            col = cols.get(pm + pt)
            if col is not None:
                vec[col] = nc if (pm & above).bit_count() & 1 else c
        yield vec


# --------------------------------------------------------------------------
# weight blocks


class WeightBlock:
    """One (degree, weight) block of the quotient of a weighted presentation,
    or a whole degree d of any quotient as the block (d, ()) of the trivial
    grading.

    mons lists the block's survivors (monomials of that degree and weight
    that no killed monomial divides) in ascending order, index maps each to
    its column, ideal is the echelonized span of the relation products m*r
    of that degree and weight over them, and basis is the survivors that
    are not pivots: the weight part of the quotient's basis in that degree;
    lead is its lead table (see _ideal_rows).
    """

    def __init__(self, field, degree, weight, mons, ideal, lead):
        self.field = field
        self.degree = degree
        self.weight = weight
        self.mons = mons
        self.index = {m: i for i, m in enumerate(mons)}
        self.ideal = ideal
        self.lead = lead
        piv = set(ideal.pivots)
        self.basis = [m for i, m in enumerate(mons) if i not in piv]

    def reduce(self, terms) -> dict:
        """Normal form of a term dict of this block's degree and weight, as
        a term dict: killed monomials are dropped, the rest reduced."""
        return _normal_form(self.field, self.index, self.mons, self.ideal, terms)


class _WeightBlocks:
    """The blocks of one grading of a presentation, each built on first use:
    the generator weights (graded) or the trivial grading, every generator
    of weight (), whose block (d, ()) is QuotientAlgebra's degree d.

    A block's survivors come from FreeAlgebra.monomials_of_degree, keyed on
    (degree, weight), and are listed only once the block passes
    check_budget.  Its rows come from _ideal_rows, each complementary block
    they read built first, through this cache.
    """

    def __init__(self, pres: AlgebraPresentation, graded=True):
        weight = pres.weight if graded else (lambda mon: ())
        self.rank = len(weight(()))  # AlgebraError without weights
        free = pres.free
        # no reference back to pres: pres._blocks holds this, and a cycle
        # would keep every listed block alive until a full collection
        self.label, self.free, self.field = pres.label, free, pres.field
        self.weights = pres.weights if graded else None
        self.killed, rest = split_relations(pres.relations)
        self.rest = [(e, weight(next(iter(r.terms))), r) for e, r in rest]
        # (degree, weight) -> how many generators, and multi-term relations,
        # have it
        self.letters = Counter((dg, weight((g,))) for g, dg in enumerate(free.degrees))
        self.shapes = Counter((e, u) for e, u, _ in self.rest)
        # no monomial of degree d has a weight whose sum of absolute values
        # exceeds reach * d (see FreeAlgebra.monomials_of_degree)
        self.reach = max((sum(map(abs, u)) for _, u in self.letters), default=0)
        self.listed = {}
        self.blocks = {}

    def survivors(self, d, w):
        """The block's survivors in ascending order, listed once the block
        passes check_budget."""
        mons = self.listed.get((d, w))
        if mons is None:
            if d > 0 and sum(map(abs, w)) <= self.reach * d:
                self.check_budget(d, w)
            mons = self.listed[d, w] = self.free.monomials_of_degree(
                d, self.killed, w, self.weights)
        return mons

    def check_budget(self, d, w):
        """ResourceBudgetError when the block's columns plus relation
        products may exceed DEFAULT_BUDGET.  A survivor is a survivor of
        lower degree times its last generator g, so the block has at most
        the sum over g of the survivors of (d - |g|, w - wt g) as columns;
        it gets one product per multi-term relation of degree e and weight
        u and survivor of (d - e, w - u).  Each of those lower blocks is
        checked in turn before it is listed."""
        def bound(counts):
            return sum(k * len(self.survivors(d - e, weight_add(w, u, -1)))
                       for (e, u), k in counts.items() if e <= d)

        cols, rows = bound(self.letters), bound(self.shapes)
        if cols + rows > DEFAULT_BUDGET:
            where = f"degree {d} weight {list(w)}" if self.rank else f"degree {d}"
            raise ResourceBudgetError(
                f"{self.label}: {where} needs up to {cols} columns and "
                f"{rows} relation products, over the budget of {DEFAULT_BUDGET}")

    def block(self, d, w) -> WeightBlock:
        blk = self.blocks.get((d, w))
        if blk is not None:
            return blk
        mons = self.survivors(d, w)
        lead = bytearray([_NO_LEAD]) * len(mons)
        rels = [((d - e, weight_add(w, u, -1)) if e <= d else None, r)
                for e, u, r in self.rest]

        def lower(key):
            part = self.block(*key)
            return part.mons, part.lead

        rows = _ideal_rows(self.free, d, mons, lead, rels, lower)
        blk = self.blocks[(d, w)] = WeightBlock(
            self.field, d, w, mons, echelonize(self.field, len(mons), rows), lead)
        return blk


def weight_add(a, b, k=1):
    """The weight a + k b."""
    return tuple(x + k * y for x, y in zip(a, b))


def _weight_blocks(presentation: AlgebraPresentation) -> _WeightBlocks:
    if presentation._blocks is None:
        presentation._blocks = _WeightBlocks(presentation)
    return presentation._blocks


def weight_block(presentation: AlgebraPresentation, degree: int, weight) -> WeightBlock:
    """The (degree, weight) block of a weighted presentation's quotient,
    built once per presentation.

    Every relation is weight-homogeneous, so the product m*r of a survivor
    of degree d - e and weight w - u with a relation of degree e and weight
    u lies in the block (d, w): the ideal's degree-d part is the direct sum
    of its blocks, each spanned by the products of its own degree and
    weight, formed by the quotient's row generator (_ideal_rows).  A
    homogeneous span has homogeneous RREF rows: the union of the blocks'
    reduced rows is a basis of the degree-d ideal whose every row has a
    pivot entry 1 and no entry in any other pivot column, and that is the
    one reduced echelon form of the degree-d span.  A block's columns are
    the quotient's survivors of that weight, in the quotient's order, so
    its pivots, basis and normal forms are exactly those of QuotientAlgebra
    in that degree and weight.

    The block is checked against DEFAULT_BUDGET before its survivors are
    listed, by the quotient's rule on the survivors of lower blocks (see
    _WeightBlocks.check_budget), each of those lower blocks checked before
    it is listed (ResourceBudgetError).
    """
    blocks = _weight_blocks(presentation)
    return blocks.block(*_block_key(blocks, (degree, weight)))


def _block_key(blocks: _WeightBlocks, key):
    """(degree, weight as a tuple) from a (degree, weight) pair, or
    AlgebraError if key names no block."""
    label = blocks.label
    try:
        degree, weight = key
    except (TypeError, ValueError):
        raise AlgebraError(f"{label}: a block key is a (degree, weight) pair, "
                           f"got {key!r}") from None
    try:
        coords = tuple(weight)
    except TypeError:
        coords = None
    if (type(degree) is not int or coords is None
            or any(type(x) is not int for x in coords)):
        raise AlgebraError(f"{label}: a block's degree and weight need int "
                           f"coordinates, got {degree!r}, {weight!r}")
    if len(coords) != blocks.rank:
        raise AlgebraError(f"{label}: a weight has {blocks.rank} "
                           f"coordinates, got {coords}")
    return degree, coords


def weight_blocks(presentation: AlgebraPresentation, keys):
    """The blocks of keys, (degree, weight) pairs, as weight_block builds
    them: every key is checked against the budget and its survivors listed
    before any block is built."""
    blocks = _weight_blocks(presentation)
    keys = [_block_key(blocks, key) for key in keys]
    for d, w in keys:
        blocks.survivors(d, w)
    return [blocks.block(d, w) for d, w in keys]


def block_reduce(presentation: AlgebraPresentation, e: Element) -> Element:
    """Normal form of a free-algebra element of a weighted presentation, as
    an element of the free algebra: each (degree, weight) part is reduced
    in its block, so it is the normal form QuotientAlgebra.reduce_free
    gives."""
    _require_own(presentation.free, e)
    blocks = _weight_blocks(presentation)
    parts = {}
    free, weight = presentation.free, presentation.weight
    for m, c in e.terms.items():
        parts.setdefault((free.monomial_degree(m), weight(m)), {})[m] = c
    out = {}
    for (d, w), terms in parts.items():
        out.update(blocks.block(d, w).reduce(terms))
    return Element(free, out)


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
