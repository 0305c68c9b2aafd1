"""Exact echelon-form subspaces.

A Subspace is the row space of a set of sparse coordinate vectors, held in
reduced row-echelon form with pivot columns recorded.  RREF is unique for a
given span and column order, so every derived quantity (rank, membership,
residues, kernel bases) is deterministic no matter what order vectors were
fed in.

Over the rationals the rows are kept as primitive integer vectors (gcd 1,
positive pivot); elimination is fraction-free so the hot loops run on plain
ints.  It works in place, on insert's own copy of the vector and on the
row finalize is reducing, and scales a row only when the pivot it meets is
not 1; a row is made primitive when it is stored.  Over GF(2) a row is a
single int bitmask and elimination is xor.  new_subspace picks the
elimination by characteristic; fields.py admits no field but Q and GF(2).

Vectors are inserted in echelon form; finalize back-substitutes once, in
descending pivot order.  When a row is reached every row with a higher pivot
is already reduced, so the row is eliminated only against the pivot columns
it actually holds, and no elimination brings in another pivot column.  The
cost is one row operation per pivot entry above the diagonal, not a scan of
every lower row for every pivot.
"""

from __future__ import annotations

from math import gcd

from .fields import QQ, Field


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
    """Rows are dicts col -> int, each primitive with a positive pivot."""

    def insert(self, vec):
        row = _to_int_row(vec)
        rows = self._rows
        while row:
            p = min(row)
            piv = rows.get(p)
            if piv is None:
                rows[p] = _primitive(row, p)
                self._final = False
                return True
            _int_eliminate(row, piv, p)
        return False

    def finalize(self):
        """Back-substitute to reduced echelon form (idempotent)."""
        if self._final:
            return
        rows = self._rows
        for q in sorted(rows, reverse=True):
            row = rows[q]
            hits = [p for p in row if p != q and p in rows]
            if not hits:
                continue
            for p in hits:
                _int_eliminate(row, rows[p], p)
            rows[q] = _primitive(row, q)
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
            prow = rows[p]
            factor = QQ.div(work[p], prow[p])
            for col, val in prow.items():
                new = work.get(col, 0) - factor * val
                if new:
                    work[col] = new
                else:
                    work.pop(col, None)
        return work

    def rows_rref(self):
        """Canonical rows with pivot coefficient 1, sorted by pivot; entries
        are ints where the lead divides them and Fractions elsewhere."""
        self.finalize()
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            lead = row[p]
            out.append({c: QQ.div(v, lead) for c, v in row.items()})
        return out

    def rows_primitive(self):
        """The reduced rows as stored: ints, gcd 1, positive pivot."""
        self.finalize()
        return [dict(self._rows[p]) for p in sorted(self._rows)]


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


def _primitive(row, pivot):
    """A fresh copy of a nonzero row with content 1 and a positive pivot.

    The copy is built entry by entry: a row eliminated in place keeps the
    hash table it grew to, and dict(row) would keep it too."""
    g = _content(row)
    if row[pivot] < 0:
        g = -g
    if g == 1:
        return {c: v for c, v in row.items()}
    return {c: v // g for c, v in row.items()}


def _int_eliminate(row, piv, p):
    """row <- row*piv[p] - piv*row[p] in place, which kills column p.

    Only a pivot other than 1 scales the row, and only then is its content
    stripped; a row scaled by a constant ends at the same primitive row.
    """
    a = piv[p]
    b = row[p]
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in piv.items():
        n = row.get(c, 0) - v * b
        if n:
            row[c] = n
        else:
            del row[c]
    if a != 1:
        _strip_content(row)


class Gf2Subspace(Subspace):
    """Rows are int bitmasks: bit c is set when column c holds a 1."""

    def insert(self, vec):
        row = _to_mask(vec)
        rows = self._rows
        while row:
            p = (row & -row).bit_length() - 1
            piv = rows.get(p)
            if piv is None:
                rows[p] = row
                self._final = False
                return True
            row ^= piv
        return False

    def finalize(self):
        """Back-substitute to reduced echelon form (idempotent)."""
        if self._final:
            return
        rows = self._rows
        mask = 0
        for p in rows:
            mask |= 1 << p
        for q in sorted(rows, reverse=True):
            row = rows[q]
            hits = row & mask & ~(1 << q)
            while hits:
                low = hits & -hits
                row ^= rows[low.bit_length() - 1]
                hits ^= low
            rows[q] = row
        self._final = True

    def reduce(self, vec):
        self.finalize()
        work = _to_mask(vec)
        for p in sorted(self._rows):
            if (work >> p) & 1:
                work ^= self._rows[p]
        return _from_mask(work)

    def rows_rref(self):
        self.finalize()
        return [_from_mask(self._rows[p]) for p in sorted(self._rows)]

    # A reduced GF(2) row is already primitive: its pivot entry is 1.
    rows_primitive = rows_rref


def _to_mask(vec):
    """A sparse vector's odd entries as a bitmask."""
    mask = 0
    for c, v in vec.items():
        if int(v) % 2:
            mask |= 1 << c
    return mask


def _from_mask(mask):
    """A bitmask as a sparse vector of ones."""
    out = {}
    while mask:
        c = (mask & -mask).bit_length() - 1
        out[c] = 1
        mask &= mask - 1
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

