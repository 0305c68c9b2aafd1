"""Free supercommutative algebras on graded generators.

A monomial is a sorted tuple of generator ids; a repeated id means a power.
Elements are sparse dicts monomial -> scalar.  Bulk loops pack monomials
into int exponent vectors (FreeAlgebra.pack), where a product is an add and
a divisibility test a subtract.  Products follow the sign rule

    (u1 x v1) * (u2 x v2) = (-1)^(|v1||u2|) u1u2 x v1v2

specialised to generators: moving a generator of odd degree past another odd
one flips the sign.  Over a field of characteristic 2 there are no signs and
powers of every generator are kept; over any other field the square of an
odd-degree generator is zero.
"""

from __future__ import annotations

from .errors import AlgebraError, MismatchError
from .fields import Field


class Generator:
    def __init__(self, gid: int, name: str, degree: int):
        self.gid = gid
        self.name = name
        self.degree = degree


class FreeAlgebra:
    """Free supercommutative algebra over an exact field.

    generators: iterable of (name, degree) pairs, degree >= 1.
    """

    def __init__(self, field: Field, generators):
        self.field = field
        self.generators = []
        seen = set()
        for gid, (name, degree) in enumerate(generators):
            if degree < 1:
                raise ValueError(f"generator {name!r} must have degree >= 1")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
            self.generators.append(Generator(gid, name, degree))
        self.ngens = len(self.generators)
        self.degrees = tuple(g.degree for g in self.generators)
        self.odd = tuple(g.degree % 2 == 1 for g in self.generators)
        self.names = tuple(g.name for g in self.generators)
        self.by_name = {g.name: g.gid for g in self.generators}
        self._mon_cache = {}
        self._kill_cache = {}
        self._odd_fields = {}  # width -> low bits of the odd generators' fields

    # -- monomials ---------------------------------------------------------

    def monomial_degree(self, mon) -> int:
        return sum(self.degrees[g] for g in mon)

    def mul_mon(self, m1, m2):
        """Multiply two monomials.  Returns (sign, monomial) or None for zero."""
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        odd1, _ = self.odd_bits(m1, 1)
        odd2, above2 = self.odd_bits(m2, 1)
        if odd1 & odd2:
            return None
        sign = -1 if (odd1 & above2).bit_count() & 1 else 1
        return sign, tuple(sorted(m1 + m2))

    def pack(self, mons, w):
        """Each monomial as an exponent vector in one int: the exponent of
        generator g sits in the w-bit field at offset w*g.  The sum of two
        packed monomials is their product's, as long as no field
        overflows."""
        units = [1 << (w * g) for g in range(self.ngens)]
        return [sum(map(units.__getitem__, m)) for m in mons]

    def odd_bits(self, mon, w):
        """(odd, above) for a monomial, as bits of vectors packed at width w.

        odd holds the low bit of the field of each odd generator of mon;
        above holds the low bit of the field of each odd generator h with an
        odd number of mon's odd generators below h.  For a monomial p
        packed at width w whose odd generators have exponent at most 1,
        p * mon is zero when p & odd is nonzero, and otherwise carries the
        sign (-1)^popcount(p & above): moving mon's odd generators into
        place passes each odd generator of p above them once.  Over a field
        of characteristic 2 there are no signs, and both are 0.
        """
        if self.field.char == 2:
            return 0, 0
        every = self._odd_fields.get(w)
        if every is None:
            every = self._odd_fields[w] = sum(
                1 << (w * g) for g, o in enumerate(self.odd) if o)
        odd = above = 0
        for g in mon:
            if self.odd[g]:
                low = 1 << (w * g)
                odd |= low
                above ^= every & -(low << w)
        return odd, above

    def monomials_of_degree(self, d, avoid=frozenset(), weight=(), weights=None):
        """The monomials of total degree d and weight weight that no monomial
        of avoid divides, in ascending tuple order; avoid is a frozenset of
        monomials.  weights, when given, holds one weight per generator, a
        tuple of ints of one length, and a monomial's weight is the sum of
        its generators'; None is the trivial grading, every generator of
        weight (), under which weight is () and every monomial qualifies.

        A recurrence over lower parts: each monomial of degree d - |g| and
        weight weight - wt(g) whose last generator is at most g is extended
        by g, where g may repeat that last generator only if g is even or
        the characteristic is 2.  Every monomial arises once, from dropping
        its last generator.  Dropping the last generator keeps a monomial
        outside the multiples of avoid, so the recurrence runs over those
        survivors alone; an extension m + (g,) is skipped when a monomial of
        avoid that ends in g divides it, that is, when the rest of that
        monomial divides m, tested on exponent vectors packed at a width
        that covers d (see _kill_tests).  A monomial of degree d has at most
        d generators, so a weight whose sum of absolute values exceeds d
        times the largest such sum of a generator's has none.  The result is
        cached per (d, avoid, weight, weights).
        """
        key = (d, avoid, weight, weights)
        out = self._mon_cache.get(key)
        if out is not None:
            return out
        if d <= 0 or weights and sum(map(abs, weight)) > d * max(
                sum(map(abs, u)) for u in weights):
            out = [()] if d == 0 and not any(weight) else []
        else:
            char2 = self.field.char == 2
            w = max([d, *map(len, avoid)]).bit_length() + 1
            guard, kills = self._kill_tests(avoid, w)
            parts = {}  # (|g|, wt g) -> the lower part's survivors
            packed = {}  # the same, packed with guard bits
            out = []
            for g, dg in enumerate(self.degrees):
                if dg > d:
                    continue
                bound = g + 1 if char2 or not self.odd[g] else g
                step = (dg, weights[g] if weights else ())
                lower = parts.get(step)
                if lower is None:
                    lower = parts[step] = self.monomials_of_degree(
                        d - dg, avoid, tuple(x - y for x, y in zip(weight, step[1])),
                        weights)
                if not lower:
                    continue
                if g not in kills:
                    out += [m + (g,) for m in lower if not m or m[-1] < bound]
                    continue
                if step not in packed:
                    packed[step] = [p | guard for p in self.pack(lower, w)]
                one, more = kills[g]
                out += [m + (g,) for m, p in zip(lower, packed[step])
                        if (not m or m[-1] < bound) and not p & one
                        and all((p - r) & guard != guard for r in more)]
            out.sort()
        self._mon_cache[key] = out
        return out

    def _kill_tests(self, avoid, w):
        """(G, kills) for the monomials of avoid at packed width w (see
        pack), cached per (avoid, w).  G holds a guard bit on top of each
        field; kills maps each generator g that a monomial of avoid ends in
        to (one, more).  one holds the fields of the generators h with (h, g)
        in avoid: such a monomial divides m g exactly when m packed meets
        one.  more holds the packed rests of the other monomials of avoid
        that end in g: with G set in m packed, a rest divides m exactly when
        (m - rest) & G == G, since a field borrows from its own guard bit
        and never further.  The width covers the exponents of avoid."""
        tests = self._kill_cache.get((avoid, w))
        if tests is None:
            value = (1 << (w - 1)) - 1
            kills = {}
            for k in avoid:
                one, more = kills.get(k[-1], (0, ()))
                if len(k) == 2:
                    one |= value << (w * k[0])
                else:
                    more += tuple(self.pack([k[:-1]], w))
                kills[k[-1]] = one, more
            guard = sum(1 << (w * g + w - 1) for g in range(self.ngens))
            tests = self._kill_cache[avoid, w] = guard, kills
        return tests

    def mon_str(self, mon) -> str:
        if not mon:
            return "1"
        parts = []
        i = 0
        while i < len(mon):
            j = i
            while j < len(mon) and mon[j] == mon[i]:
                j += 1
            name = self.names[mon[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)

    # Element terms are monomials.
    term_degree = monomial_degree
    term_str = mon_str

    def mon_times(self, mon, terms):
        """mon * terms for a term dict, as a term dict.

        Distinct monomials have distinct products with mon, so no two
        products meet and nothing cancels.
        """
        neg = self.field.neg
        out = {}
        for m, c in terms.items():
            hit = self.mul_mon(mon, m)
            if hit is not None:
                sign, prod = hit
                out[prod] = neg(c) if sign < 0 else c
        return out

    # -- elements ----------------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): self.field.one})

    def gen(self, name: str):
        return Element(self, {(self.by_name[name],): self.field.one})

    def element(self, terms: dict):
        """An element from monomial -> scalar; zero scalars are dropped.

        Every key must be a monomial in canonical form: an ascending tuple
        of generator ids, repeating an odd generator only in characteristic
        2.  Anything else raises AlgebraError.
        """
        clean = {}
        for mon, c in terms.items():
            mon = tuple(mon)
            self._check_monomial(mon)
            c = self.field.coerce(c)
            if c != self.field.zero:
                clean[mon] = c
        return Element(self, clean)

    def _check_monomial(self, mon):
        for g in mon:
            if type(g) is not int or not 0 <= g < self.ngens:
                raise AlgebraError(f"{mon!r}: {g!r} is not a generator id "
                                   f"of {self!r}")
        for g, h in zip(mon, mon[1:]):
            if g > h:
                raise AlgebraError(f"{mon!r} is not in ascending order")
            if g == h and self.odd[g] and self.field.char != 2:
                raise AlgebraError(f"{mon!r} repeats the odd generator "
                                   f"{self.names[g]}")

    def multiply(self, e1: "Element", e2: "Element") -> "Element":
        if e1.algebra is not self or e2.algebra is not self:
            raise MismatchError("elements from different algebras")
        acc = {}
        for m1, c1 in e1.terms.items():
            add_scaled(self.field, acc, self.mon_times(m1, e2.terms), c1)
        return Element(self, acc)

    def __repr__(self):
        gens = ",".join(self.names)
        return f"FreeAlgebra({self.field.name}; {gens})"


def add_scaled(field: Field, acc: dict, terms: dict, scalar=None):
    """acc += scalar * terms in place, dropping keys whose sum cancels.

    scalar None means 1.  acc and terms map keys to nonzero scalars of the
    field (over Q an int or a Fraction, over GF(2) an int); the sums and
    products are the field's, so int data stays int, and every scalar is
    false exactly when zero.
    """
    if scalar is not None and not scalar:
        return
    add, mul = field.add, field.mul
    for k, c in terms.items():
        if scalar is not None:
            c = mul(scalar, c)
        prev = acc.get(k)
        if prev is None:
            acc[k] = c
        else:
            c = add(prev, c)
            if c:
                acc[k] = c
            else:
                del acc[k]


class Element:
    """Sparse element of an algebra: a dict term -> nonzero scalar.

    The algebra supplies .field, multiply(e1, e2), term_degree(term) and
    term_str(term).  FreeAlgebra and QuotientAlgebra (terms are monomials)
    and TensorSquareAlgebra (terms are pairs of basis monomials) qualify.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    @property
    def field(self):
        return self.algebra.field

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Degree if nonzero homogeneous, else None."""
        degs = {self.algebra.term_degree(t) for t in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_parts(self):
        """{degree: the part of self in that degree}, in ascending degree."""
        term_degree = self.algebra.term_degree
        parts = {}
        for t, c in self.terms.items():
            parts.setdefault(term_degree(t), {})[t] = c
        return {d: Element(self.algebra, p) for d, p in sorted(parts.items())}

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        add_scaled(self.field, acc, other.terms)
        return Element(self.algebra, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field = self.field
        return Element(self.algebra, {m: field.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        field = self.field
        c0 = field.coerce(scalar)
        if c0 == field.zero:
            return Element(self.algebra, {})
        return Element(self.algebra, {m: field.mul(c, c0) for m, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def _check(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise MismatchError("elements from different algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        algebra = self.algebra
        field = self.field
        bits = []
        for t in sorted(self.terms, key=lambda t: (algebra.term_degree(t), t)):
            cs = field.fmt(self.terms[t])
            ts = algebra.term_str(t)
            if ts == "1":
                bits.append(cs)
            elif cs == "1":
                bits.append(ts)
            elif cs == "-1":
                bits.append(f"-{ts}")
            else:
                bits.append(f"{cs}*{ts}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")
