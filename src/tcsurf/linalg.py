"""Exact echelon-form subspaces.

A Subspace is the row space of a set of sparse coordinate vectors, held in
reduced row-echelon form with pivot columns recorded.  RREF is unique for a
given span and column order, so every derived quantity (rank, membership,
residues, kernel bases) is deterministic no matter what order vectors were
fed in.

Over the rationals a row is stored as a flat int tuple (pivot, lead, c1,
v1, c2, v2, ...): primitive (gcd 1) with a positive lead, so a one-entry
row costs a 2-tuple where a dict would cost a hash table.  Elimination is
fraction-free, so the hot loops run on plain ints.  It works in place on a
dict, insert's own copy of the vector or the row finalize is reducing,
against a stored tuple, and scales the dict only when the lead it meets is
not 1; a row is made primitive and packed when it is stored.  Over GF(2)
a row is an int bitmask, stored shifted down to its pivot so that it costs
its span and not its highest column, and elimination is xor.  new_subspace
picks the elimination by characteristic; fields.py admits no field but Q
and GF(2).

Vectors are inserted in echelon form; finalize back-substitutes once, in
descending pivot order.  When a row is reached every row with a higher pivot
is already reduced, so the row is eliminated only against the pivot columns
it actually holds, and no elimination brings in another pivot column.  The
cost is one row operation per pivot entry above the diagonal, not a scan of
every lower row for every pivot.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .fields import GF2, QQ, Field


def new_subspace(field: Field, ncols: int) -> "Subspace":
    """An empty subspace of ncols columns, eliminating over the field."""
    return Gf2Subspace(ncols) if field.char == 2 else RationalSubspace(ncols)


def echelonize(field: Field, ncols: int, vectors) -> "Subspace":
    """Echelonize an iterable of sparse vectors (dict col -> scalar)."""
    sub = new_subspace(field, ncols)
    for v in vectors:
        sub.insert(v)
        if sub.rank == ncols:
            break
    sub.finalize()
    return sub


class Subspace:
    """Rows keyed by pivot column; the two subclasses differ in the row type."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows = {}  # pivot col -> row
        self._final = False

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return self.rank == 0

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.ncols == self.ncols
            and other.pivots == self.pivots
            and other.rows_rref() == self.rows_rref()
        )

    def __hash__(self):
        raise TypeError("subspaces are not hashable")


class RationalSubspace(Subspace):
    """Rows are flat int tuples (pivot, lead, c1, v1, c2, v2, ...): the
    pivot column, its entry, then every other column and its entry.  Each
    row is primitive (content 1) with a positive lead."""

    def insert(self, vec):
        # an int vector, as every quotient row of a shipped Q model is, is
        # only copied: _pack makes the stored row primitive
        row = {}
        for c, v in vec.items():
            if type(v) is not int:
                row = _to_int_row(vec)
                break
            if v:
                row[c] = v
        rows = self._rows
        while row:
            p = min(row)
            piv = rows.get(p)
            if piv is None:
                rows[p] = _pack(row, p)
                self._final = False
                return True
            _int_eliminate(row, piv)
        return False

    def finalize(self):
        """Back-substitute to reduced echelon form (idempotent)."""
        if self._final:
            return
        rows = self._rows
        for q in sorted(rows, reverse=True):
            piv = rows[q]
            if len(piv) == 2:
                continue
            hits = [c for c in piv[2::2] if c in rows]
            if not hits:
                continue
            row = _unpack(piv)
            for p in hits:
                _int_eliminate(row, rows[p])
            rows[q] = _pack(row, q)
        self._final = True

    def reduce(self, vec):
        """Residue of a vector modulo the subspace, as dict col -> Q scalar.

        Exact and type-preserving: each pivot entry is divided by its row's
        lead as an int when the lead divides it and as a Fraction otherwise,
        so an int vector reduced only by rows of lead 1 keeps int values.
        The rows are in reduced echelon form, so eliminating one pivot
        column leaves every other pivot column as it was: only the pivots
        the vector holds on entry need a row operation.
        """
        self.finalize()
        rows = self._rows
        work = {c: v for c, v in vec.items() if v}
        for p in sorted(c for c in work if c in rows):
            it = iter(rows[p])
            next(it)
            factor = QQ.div(work.pop(p), next(it))
            for col, val in zip(it, it):
                new = work.get(col, 0) - factor * val
                if new:
                    work[col] = new
                else:
                    del work[col]
        return work

    def rows_rref(self):
        """Canonical rows with pivot coefficient 1, sorted by pivot; entries
        are ints where the lead divides them and Fractions elsewhere."""
        self.finalize()
        out = []
        for p in sorted(self._rows):
            piv = self._rows[p]
            lead = piv[1]
            it = iter(piv)
            out.append({c: QQ.div(v, lead) for c, v in zip(it, it)})
        return out

    def rows_primitive(self):
        """The reduced rows as stored: ints, gcd 1, positive pivot."""
        self.finalize()
        return [_unpack(self._rows[p]) for p in sorted(self._rows)]


def _to_int_row(vec):
    """Clear denominators and strip content; values become ints.

    Values are Fractions or ints, which both carry numerator and denominator.
    """
    lcm = 1
    for v in vec.values():
        d = v.denominator
        lcm = lcm * d // gcd(lcm, d)
    row = {}
    for c, v in vec.items():
        n = v.numerator * (lcm // v.denominator)
        if n:
            row[c] = n
    return _strip_content(row)


def _content(row):
    """The gcd of a row's entries (0 for an empty row)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


def _strip_content(row):
    """row divided by its content, in place; returns row."""
    g = _content(row)
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _pack(row, pivot):
    """A nonzero dict row as a stored tuple: primitive, lead positive.

    Consumes row: it loses its pivot entry and is divided in place.  A
    lead of 1 already makes the content 1."""
    lead = row.pop(pivot)
    if lead != 1:
        g = gcd(lead, _content(row))
        if lead < 0:
            g = -g
        if g != 1:
            lead //= g
            for c in row:
                row[c] //= g
    return (pivot, lead, *chain.from_iterable(row.items()))


def _unpack(piv):
    """A stored tuple as a fresh dict col -> int, pivot first."""
    it = iter(piv)
    return dict(zip(it, it))


def _int_eliminate(row, piv):
    """row <- row*a - piv*b in place, where piv is a stored tuple with
    pivot p and lead a, and b is row[p]; this kills column p.

    Only a lead other than 1 scales the row, and only then is its content
    stripped; a row scaled by a constant ends at the same primitive row.
    A one-entry piv only removes column p.
    """
    b = row.pop(piv[0])
    if len(piv) == 2:
        return
    it = iter(piv)
    next(it)
    a = next(it)
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in zip(it, it):
        n = row.get(c, 0) - v * b
        if n:
            row[c] = n
        else:
            del row[c]
    if a != 1:
        _strip_content(row)


class Gf2Subspace(Subspace):
    """Rows are int bitmasks shifted down to their pivot: the row with
    pivot p stores bit c - p for each column c that holds a 1, so bit 0 is
    the pivot and a row costs its span, not its highest column."""

    def insert(self, vec):
        """Eliminate on a working row kept shifted down to its lowest
        column p, as the stored rows are, so that each xor costs the
        rows' span and not the highest column."""
        if not vec:
            return False
        p = min(vec)
        row = _to_mask(vec, p)
        rows = self._rows
        while row:
            low = (row & -row).bit_length() - 1
            row >>= low
            p += low
            piv = rows.get(p)
            if piv is None:
                rows[p] = row
                self._final = False
                return True
            row ^= piv
        return False

    def finalize(self):
        """Back-substitute to reduced echelon form (idempotent), and keep
        the mask of pivot columns for reduce."""
        if self._final:
            return
        rows = self._rows
        mask = _pivot_mask(rows)
        for q in sorted(rows, reverse=True):
            row = rows[q]
            if row == 1:
                continue
            hits = (row & (mask >> q)) ^ 1
            while hits:
                low = hits & -hits
                i = low.bit_length() - 1
                row ^= rows[q + i] << i
                hits ^= low
            rows[q] = row
        self._mask = mask
        self._final = True

    def reduce(self, vec):
        """Residue of a vector modulo the subspace, as dict col -> 1.

        As over Q, only the pivots the vector holds on entry need a row
        operation, so they are read off once from the pivot mask."""
        self.finalize()
        rows = self._rows
        work = _to_mask(vec)
        hits = work & self._mask
        while hits:
            low = hits & -hits
            p = low.bit_length() - 1
            work ^= rows[p] << p
            hits ^= low
        return _from_mask(work)

    def rows_rref(self):
        self.finalize()
        return [_from_mask(self._rows[p], p) for p in sorted(self._rows)]

    # A reduced GF(2) row is already primitive: its pivot entry is 1.
    rows_primitive = rows_rref


def _to_mask(vec, offset=0):
    """A sparse vector's nonzero GF(2) entries as a bitmask, column c at
    bit c - offset; each entry is read as GF2.coerce reads it."""
    mask = 0
    for c, v in vec.items():
        if v & 1 if type(v) is int else GF2.coerce(v):
            mask |= 1 << (c - offset)
    return mask


def _pivot_mask(rows):
    """The bitmask of the pivot columns, set byte by byte: or-ing in one
    bit per pivot would cost the mask's width each time."""
    if not rows:
        return 0
    bits = bytearray((max(rows) >> 3) + 1)
    for p in rows:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


def _from_mask(mask, offset=0):
    """A bitmask as a sparse vector of ones, bit i at column i + offset."""
    out = {}
    while mask:
        low = mask & -mask
        out[low.bit_length() - 1 + offset] = 1
        mask ^= low
    return out


def kernel_basis(field: Field, images, ncols_image: int):
    """Kernel of the linear map sending domain basis vector i to images[i].

    images: list of sparse vectors over the codomain coordinates.
    Returns a list of sparse vectors over the domain coordinates, in RREF.
    """
    n = len(images)
    sub = new_subspace(field, ncols_image + n)
    for i, img in enumerate(images):
        row = dict(img)
        row[ncols_image + i] = 1
        sub.insert(row)
    sub.finalize()
    out = []
    for p, row in zip(sub.pivots, sub.rows_rref()):
        if p >= ncols_image:
            out.append({c - ncols_image: v for c, v in row.items()})
    return out

