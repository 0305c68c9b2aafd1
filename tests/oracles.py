"""Independent oracles the tests freeze expected values against.

Everything here is deliberately naive and separate from the package:
different algorithms, different data layout, no shared helpers.  The
kernel and power-iteration oracles take their products from the package
but do their own enumeration and elimination.
"""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb, gcd
from operator import mul

import sympy

from tcsurf.exterior import Element
from tcsurf.linalg import echelonize
from tcsurf.models import MODELS, model_options
from tcsurf.presentation import tensor_square
from tcsurf.tcreport import _family
from tcsurf.zcl import certificate_product, zcl_bound


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_prod(factors):
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def rising_product(ks):
    """Coefficients of prod_k (1 + k t)."""
    return poly_prod([[1, k] for k in ks])


def rational_rank(rows, ncols):
    """Rank over Q via sympy; rows are {col: value} dicts."""
    if not rows:
        return 0
    M = sympy.zeros(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            M[i, j] = sympy.Rational(v)
    return M.rank()


def gf2_rank(rows, ncols):
    """Plain list-based elimination mod 2; rows are {col: value} dicts."""
    mat = []
    for row in rows:
        r = [0] * ncols
        for j, v in row.items():
            r[j] = v % 2
        mat.append(r)
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [(x + y) % 2 for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def koszul_merge(degrees, m1, m2, char):
    """Sign and sorted merge of two monomials, by explicit bubble count.

    degrees maps generator id to its degree.  Over char != 2 a repeated odd
    generator gives None; over char 2 signs are trivial and repeats stay.
    """
    seq = list(m1) + list(m2)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                if degrees[seq[i]] % 2 and degrees[seq[i + 1]] % 2:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    if char != 2:
        for i in range(len(seq) - 1):
            if seq[i] == seq[i + 1] and degrees[seq[i]] % 2:
                return None
        return sign, tuple(seq)
    return 1, tuple(seq)


def monomials_by_multisets(degrees, d, char):
    """Sorted monomials of total degree d, as multisets of generator ids.

    degrees maps generator id to its degree (each >= 1), so a monomial of
    degree d has at most d factors.  Over char != 2 an odd generator may
    not repeat.
    """
    out = []
    for k in range(d + 1):
        for mon in combinations_with_replacement(range(len(degrees)), k):
            if sum(degrees[g] for g in mon) != d:
                continue
            if char != 2 and any(degrees[g] % 2 and mon.count(g) > 1
                                 for g in set(mon)):
                continue
            out.append(mon)
    return sorted(out)


def eqA_dimension(n, d):
    """Closed-form degree-d dimension of the reduced torus model.

    Basis monomials are e1 e2 x_J y_K with e1, e2 from the first slot and
    J, K inside {2..n}, max J < min K: choosing the union of size s fixes
    the split, and s+1 ordered size splits exist, so the (J, K) count is
    (s+1) C(n-1, s).
    """
    total = 0
    for e in (0, 1, 2):
        s = d - e
        if s < 0:
            continue
        total += comb(2, e) * (s + 1) * comb(n - 1, s)
    return total


def eqA_basis_count(n):
    """Degreewise count of x1^e1 y1^e2 x_J y_K with max J < min K, enumerated.

    J and K run over all subsets of {2..n}; e1, e2 are 0 or 1.
    """
    subsets = [s for k in range(n) for s in combinations(range(2, n + 1), k)]
    out = [0] * (n + 2)
    for J in subsets:
        for K in subsets:
            if J and K and max(J) >= min(K):
                continue
            for e in (0, 1, 2):
                out[len(J) + len(K) + e] += comb(2, e)
    return out


def punctured_hilbert(points, punctures):
    """prod_{j=0}^{points-1} (1 + (j + punctures) t)."""
    return rising_product([j + punctures for j in range(points)])


def rref_rational(vectors):
    """Reduced echelon form over Q as {pivot: primitive integer row}.

    Rows are inserted by eliminating their lowest column against the rows
    found so far, then back-substituted by the quadratic loop: for every
    pivot, from the highest down, every lower row is probed for that column.
    A primitive row has integer entries with gcd 1 and a positive pivot.
    """
    rows = {}
    for vec in vectors:
        row = _int_primitive({c: Fraction(v) for c, v in vec.items() if v})
        while row:
            p = min(row)
            if p not in rows:
                rows[p] = row
                break
            row = _int_primitive(_int_kill(row, rows[p], p))
    pivots = sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        for q in pivots[:i]:
            if p in rows[q]:
                rows[q] = _int_primitive(_int_kill(rows[q], rows[p], p))
    return rows


def _int_kill(row, piv, p):
    a, b = piv[p], row[p]
    out = {c: v * a for c, v in row.items()}
    for c, v in piv.items():
        out[c] = out.get(c, 0) - v * b
    return {c: v for c, v in out.items() if v}


def _int_primitive(row):
    """Scale a row of Fractions or ints to integers, gcd 1, lead positive."""
    if not row:
        return row
    lcm = 1
    for v in row.values():
        d = Fraction(v).denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = {c: int(Fraction(v) * lcm) for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


def rref_gf2(vectors):
    """Reduced echelon form over GF(2) as {pivot: set of columns}.

    Same insertion and quadratic back-substitution as rref_rational, with a
    row held as the set of its nonzero columns and addition as symmetric
    difference.
    """
    rows = {}
    for vec in vectors:
        row = {c for c, v in vec.items() if v % 2}
        while row:
            p = min(row)
            if p not in rows:
                rows[p] = row
                break
            row = row ^ rows[p]
    pivots = sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        for q in pivots[:i]:
            if p in rows[q]:
                rows[q] = rows[q] ^ rows[p]
    return rows


def unordered_power_iteration(seeds, multipliers, char, cap=None):
    """(value, exact, dims) of the unordered power iteration on package
    elements.

    span_1 is the span of the seeds and span_{k+1} the span of every
    multiplier times every basis row of span_k, in no order; value is the
    largest k <= cap with span_k nonzero, exact is False when cap stopped
    the loop, and dims lists the dimension of every span computed, the
    last one 0 when exact.  Products come from the package's *; each span
    is reduced by rref_rational or rref_gf2 over a column per term seen,
    and its rows go back to elements of the seeds' class.
    """
    if not seeds:
        return 0, True, [0]
    cls, algebra = type(seeds[0]), seeds[0].algebra
    cols, terms = {}, []

    def basis(elems):
        vectors = []
        for e in elems:
            for t in e.terms:
                if t not in cols:
                    cols[t] = len(terms)
                    terms.append(t)
            vectors.append({cols[t]: c for t, c in e.terms.items()})
        if char == 2:
            rows = {p: dict.fromkeys(row, 1) for p, row in rref_gf2(vectors).items()}
        else:
            rows = rref_rational(vectors)
        return [cls(algebra, {terms[c]: v for c, v in row.items()})
                for row in rows.values()]

    span = basis(seeds)
    dims = [len(span)]
    if not span:
        return 0, True, dims
    k = 1
    while cap is None or k < cap:
        span = basis([m * y for y in span for m in multipliers])
        dims.append(len(span))
        if not span:
            return k, True, dims
        k += 1
    return k, False, dims


def tensor_pairs(A, d):
    """The pairs (m1, m2) of basis monomials of A of total degree d, by
    ascending degree of m1."""
    top = A.built_top
    return [(m1, m2) for e in range(max(0, d - top), min(d, top) + 1)
            for m1 in A.basis_monomials(e) for m2 in A.basis_monomials(d - e)]


def kernel_of_mu(A):
    """{d: a basis of ker(mu: (A (x) A)^d -> A^d)} as package elements of
    the tensor square.

    Pair i of degree d gets the row [image of mu | unit vector i], its image
    read from A.mul_basis over the columns of A^d; the rows of the reduced
    echelon form (rref_rational or rref_gf2) whose pivot lies past those
    columns are the kernel.  mu is onto (a (x) 1 -> a), so each kernel has
    dimension T.dims[d] - dim A^d, which is asserted.
    """
    T = tensor_square(A)
    out = {}
    for d in range(T.top + 1):
        pairs = tensor_pairs(A, d)
        col = {m: i for i, m in enumerate(A.basis_monomials(d))}
        m = len(col)
        vectors = []
        for i, (m1, m2) in enumerate(pairs):
            row = {col[mon]: c for mon, c in A.mul_basis(m1, m2).items()}
            row[m + i] = 1
            vectors.append(row)
        if A.field.char == 2:
            rows = {p: dict.fromkeys(row, 1) for p, row in rref_gf2(vectors).items()}
        else:
            rows = rref_rational(vectors)
        out[d] = [Element(T, {pairs[c - m]: v for c, v in row.items()})
                  for p, row in sorted(rows.items()) if p >= m]
        assert len(out[d]) == T.dims[d] - A.dim(d), (A.label, d)
    return out


def quotient_by_full_elimination(degrees, char, relations, through):
    """Basis and normal forms of a graded quotient in degrees 0..through.

    degrees maps generator id to its degree; relations are {monomial: value}
    dicts.  In each degree every free monomial times every relation (the
    monomial on the left, signs by koszul_merge) goes through rref_rational
    or rref_gf2; nothing is skipped.  Returns one (basis, normal) pair per
    degree: the sorted non-pivot monomials, and every free monomial ->
    its normal form as {monomial: Fraction}.
    """
    mons = [monomials_by_multisets(degrees, d, char) for d in range(through + 1)]
    out = []
    for d in range(through + 1):
        col = {m: i for i, m in enumerate(mons[d])}
        vectors = []
        for rel in relations:
            e = sum(degrees[g] for g in next(iter(rel)))
            for m in mons[d - e] if e <= d else []:
                vec = {}
                for mon, c in rel.items():
                    hit = koszul_merge(degrees, m, mon, char)
                    if hit is not None:
                        j = col[hit[1]]
                        vec[j] = vec.get(j, 0) + hit[0] * c
                vectors.append(vec)
        if char == 2:
            rows = {p: {c: 1 for c in row} for p, row in rref_gf2(vectors).items()}
        else:
            rows = rref_rational(vectors)
        basis = [m for i, m in enumerate(mons[d]) if i not in rows]
        normal = {}
        for i, m in enumerate(mons[d]):
            if i not in rows:
                normal[m] = {m: Fraction(1)}
                continue
            lead = rows[i][i]
            residue = {mons[d][c]: Fraction(-v, lead)
                       for c, v in rows[i].items() if c != i}
            if char == 2:
                residue = {k: v % 2 for k, v in residue.items()}
            normal[m] = residue
        out.append((basis, normal))
    return out


def full_elimination_mismatches(A):
    """Degrees where the quotient A's basis or some free monomial's normal
    form differs from quotient_by_full_elimination of its presentation."""
    pres, free = A.presentation, A.free
    want = quotient_by_full_elimination(
        free.degrees, A.field.char, [r.terms for r in pres.relations],
        A.built_top)
    assert len(want) == len(A.dims)
    bad = []
    for d, (basis, normal) in enumerate(want):
        if A.basis[d] != basis or A.dims[d] != len(basis):
            bad.append(d)
            continue
        for m, residue in normal.items():
            got = A.reduce_free(free.element({m: 1})).terms
            if {k: Fraction(v) for k, v in got.items()} != residue:
                bad.append(d)
                break
    return bad


def all_products_echelon(pres):
    """(survivors, ideal, basis) of a presentation's quotient,
    with every relation product echelonized.

    The survivors of degree d are the free monomials (monomials_by_multisets)
    that no killed monomial, the monomial of a single-term relation, divides
    as a multiset.  Every other relation of degree e times every survivor of
    degree d - e (the survivor on the left, signs by koszul_merge, products
    that are no survivor dropped) goes through the package's echelonize over
    the degree-d survivors; nothing is skipped.  The degrees run as the
    quotient's do: through the formal top plus one window of max(generator
    degree), no further than the free algebra's own top, or until a whole
    window of empty degrees ends the run.
    """
    free, field = pres.free, pres.field
    degrees, char = free.degrees, field.char
    killed = [Counter(next(iter(r.terms))) for r in pres.relations
              if len(r.terms) == 1]
    rest = [r.terms for r in pres.relations if len(r.terms) > 1]
    window = max(degrees, default=1)
    natural = sum(degrees) if char != 2 and all(g % 2 for g in degrees) else None
    top = pres.top_degree if pres.top_degree is not None else natural
    bound = top + window if natural is None else min(top + window, natural)
    survivors, ideal, basis = [], [], []
    for d in range(bound + 1):
        survivors.append([m for m in monomials_by_multisets(degrees, d, char)
                          if not any(k <= Counter(m) for k in killed)])
        col = {m: i for i, m in enumerate(survivors[d])}
        vectors = []
        for rel in rest:
            e = sum(degrees[g] for g in next(iter(rel)))
            for m in survivors[d - e] if e <= d else []:
                vec = {}
                for mon, c in rel.items():
                    hit = koszul_merge(degrees, m, mon, char)
                    if hit is not None and hit[1] in col:
                        vec[col[hit[1]]] = hit[0] * c
                vectors.append(vec)
        ideal.append(echelonize(field, len(col), vectors))
        pivots = set(ideal[d].pivots)
        basis.append([m for i, m in enumerate(survivors[d]) if i not in pivots])
        if d >= window and not any(basis[d - k] for k in range(window)):
            break
    return survivors, ideal, basis


def all_products_mismatches(A):
    """What of the quotient A differs from all_products_echelon of its
    presentation: the survivors, pivots, reduced rows and basis of each
    degree, and the degrees built."""
    survivors, ideal, basis = all_products_echelon(A.presentation)
    bad = []
    if len(basis) != len(A.basis):
        bad.append(("degrees", len(A.basis), len(basis)))
    for d in range(min(len(basis), len(A.basis))):
        for what, got, want in (
                ("survivors", A.mons[d], survivors[d]),
                ("pivots", A.ideal[d].pivots, ideal[d].pivots),
                ("rows_rref", A.ideal[d].rows_rref(), ideal[d].rows_rref()),
                ("basis", A.basis[d], basis[d])):
            if got != want:
                bad.append((what, d))
    return bad


def tuple_order_key(rank, mon):
    """Degree-lexicographic key of a squarefree monomial under the ranks
    rank[g]: its size, then its ranks sorted from the largest down."""
    return (len(mon), tuple(sorted((rank[g] for g in mon), reverse=True)))


def normal_counts_by_subsets(ngens, leads):
    """Per degree, the subsets of range(ngens) that contain no lead.

    leads are iterables of generator ids.  Every one of the 2^ngens subsets
    is tested against every lead; trailing zero degrees are dropped.
    """
    lead_sets = [set(lead) for lead in leads]
    counts = [0] * (ngens + 1)
    for k in range(ngens + 1):
        for sub in combinations(range(ngens), k):
            s = set(sub)
            if not any(lead <= s for lead in lead_sets):
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def tuple_reduce(e, relations, rank, strategy="lead"):
    """Normal form of e against the relations by the tuple loop.

    Monomials stay ascending gid tuples in the free algebra's own basis;
    the order is tuple_order_key under the ranks rank[g], leads are
    taken with it, divisibility is set inclusion, and the first relation
    (in list order) whose lead divides the picked monomial clears it.
    strategy "lead" picks the largest reducible monomial, "low" the
    smallest.
    """
    free, field = e.algebra, e.algebra.field
    key = lambda m: tuple_order_key(rank, m)  # noqa: E731
    pick = {"lead": max, "low": min}[strategy]
    leads = [(set(max(r.terms, key=key)), r) for r in relations]
    work, done = dict(e.terms), {}
    while work:
        m = pick(work, key=key)
        hit = next((r for lset, r in leads if lset <= set(m)), None)
        if hit is None:
            done[m] = work.pop(m)
            continue
        lead = max(hit.terms, key=key)
        ur = free.mon_times(tuple(sorted(set(m) - set(lead))), hit.terms)
        scale = field.neg(field.div(work[m], ur[m]))
        for k, c in ur.items():
            c = field.add(work.get(k, 0), field.mul(scale, c))
            if c:
                work[k] = c
            else:
                work.pop(k, None)
    return Element(free, done)


def tuple_s_polynomial(f, g, rank):
    """tg[lcm] tf - tf[lcm] tg, where tf and tg are the gid-ordered
    cofactors lcm - lead times f and g, on tuple monomials."""
    free, field = f.algebra, f.algebra.field
    key = lambda m: tuple_order_key(rank, m)  # noqa: E731
    lf, lg = max(f.terms, key=key), max(g.terms, key=key)
    lcm = tuple(sorted(set(lf) | set(lg)))
    tf = free.mon_times(tuple(sorted(set(lcm) - set(lf))), f.terms)
    tg = free.mon_times(tuple(sorted(set(lcm) - set(lg))), g.terms)
    return (free.element(tf) * tg[lcm]) - (free.element(tg) * tf[lcm])


def tuple_buchberger_log(relations, rank):
    """(is a basis, S-pair log) of the exterior Buchberger check on tuple
    monomials: for each relation i, its products with each generator of
    its lead in ascending gid order, then its S-polynomials with every
    later relation, each reduced by tuple_reduce and logged by repr."""
    free = relations[0].algebra
    key = lambda m: tuple_order_key(rank, m)  # noqa: E731
    log = []
    for i, f in enumerate(relations):
        for v in max(f.terms, key=key):
            prod = free.element(free.mon_times((v,), f.terms))
            log.append((("self", i, free.names[v]),
                        repr(tuple_reduce(prod, relations, rank))))
        for j in range(i + 1, len(relations)):
            s = tuple_s_polynomial(f, relations[j], rank)
            log.append(((i, j), repr(tuple_reduce(s, relations, rank))))
    return all(rem == "0" for _, rem in log), log


def restart_climb_certificate(A, cap=None):
    """The bar-product search as a climb that restarts for each length.

    For k = 1, 2, ... (at most cap) it runs a fresh first-success search
    over the index runs i1 <= i2 < i3 < ... of the nonzero generator bars,
    in lexicographic order, and stops at the first k with no nonzero
    product.  The last success is certified at its least basis tensor; the
    empty product when no bar is nonzero.
    """
    T = tensor_square(A)
    bars = [b for b in (T.bar(A.gen(s)) for s in A.free.names)
            if not b.is_zero()]

    def first_success(k):
        products = {(): T.one()}
        for i1 in range(len(bars)):
            for rest in combinations(range(i1, len(bars)), k - 1):
                run = (i1,) + rest
                for j in range(1, k + 1):
                    if run[:j] not in products:
                        prev = products[run[:j - 1]]
                        products[run[:j]] = (prev if prev.is_zero()
                                             else prev * bars[run[j - 1]])
                if not products[run].is_zero():
                    return run, products[run]
        return None

    best = (), T.one()
    k = 1
    while cap is None or k <= cap:
        hit = first_success(k)
        if hit is None:
            break
        best = hit
        k += 1
    run, product = best
    return certificate_product(T, [bars[i] for i in run], min(product.terms))


def full_quotient_certificate(case, A):
    """The torus, genus2 and punctured-mod-ideal families on the whole
    quotient A of a diagonal-ideal model, the way the package ran them
    before they moved to weight blocks.

    The reduced generators x_1 = a_1, x_j = a_j - a_1 (and y from b) are
    formed in A, every leg and witness is a product in A, and the bar
    product is expanded in A's tensor square by the package's
    certificate_product, pruned to the witness bidegree: the same factors,
    candidate witnesses and candidate order as the families.
    """
    T, n = tensor_square(A), A.points
    a = [A.gen(f"a{i}") for i in range(1, n + 1)]
    b = [A.gen(f"b{i}") for i in range(1, n + 1)]
    xs = [a[0]] + [g - a[0] for g in a[1:]]
    ys = [b[0]] + [g - b[0] for g in b[1:]]

    def bars(us, vs):
        return [T.bar(e) for pair in zip(us, vs) for e in pair]

    def single(e):
        assert len(e.terms) == 1, e
        return next(iter(e.terms))

    if case == "torus":
        wit = (single(reduce(mul, ys)), single(reduce(mul, xs)))
        return certificate_product(T, bars(xs, ys), wit)
    if case == "genus2":
        gens = [A.gen(s) for s in ("a1", "b1", "c1", "d1")]
        w1 = gens[0] * gens[1]
        L = reduce(mul, [w1] + ys[1:])
        R = reduce(mul, [w1] + xs[1:])
        assert not L.is_zero() and not R.is_zero()
        return certificate_product(
            T, [T.bar(g) for g in gens] + bars(xs[1:], ys[1:]),
            *[(m1, m2) for m1 in sorted(L.terms) for m2 in sorted(R.terms)])
    assert case == "punctured-mod-ideal", case
    prods = [reduce(mul, xs[:k] + ys[k:]) for k in range(n + 1)]
    assert not any(p.is_zero() for p in prods)
    xmon, ymon = single(prods[n]), single(prods[0])
    return certificate_product(T, bars(xs, ys), (ymon, xmon), (xmon, ymon))


def quotient_route_lower_bound(g, n, m):
    """The certified zcl of a tc row read the way the table read it before
    its toric and product certificates: on the quotient of the row's model,
    by the model's certificate family where it has one, else by a search
    for at most tc - 1 bars (1 on the plane with one point, which has no
    bar)."""
    theorem, _, (token, given), _ = _family(g, n, m)
    fixed = MODELS[token].case(model_options(token, **given)) is not None
    cap = None if fixed else max(theorem - 1, 1)
    return zcl_bound(token, given, "certificate", cap).certified_length
