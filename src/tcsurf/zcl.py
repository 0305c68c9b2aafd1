"""Cup length and zero-divisor cup length.

zcl A is the largest q with a nonzero q-fold product inside ker(mu), where
mu: A (x) A -> A is multiplication.  Exact values come from ordered power
iteration, which multiplies each kept product only by the multipliers at
or below its first factor (strictly below it when that multiplier squares
to zero), through the tensor square's one product; the named certificate
cases verify one explicit nonzero product each by full expansion and
witness-coefficient extraction.

Since ker(mu) is the two-sided ideal generated by the bar classes
x (x) 1 - 1 (x) x of the algebra generators (induction on monomial length
via (uv)bar = ubar (v (x) 1) + (1 (x) u) vbar), the power Z^q is nonzero
exactly when some q-fold product of bar generators is nonzero, and the
iteration multiplies by bar generators only.  tests/oracles.py holds the
cross-check that iterates with a full kernel basis of mu instead.

The torus, genus2 and punctured-mod-ideal certificates never build their
model's quotient: each factor, leg and witness is reduced in the weight
block it lies in, and the bar product is summed over only the splits
that reach the witness blocks (_split_product).  tests/oracles.py holds
their run on the whole quotient as the cross-check.

zcl_bound alone picks how a model's zcl is obtained: exactly, by the
model's certificate family, or by a bar-product search.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .errors import (AlgebraError, CertificateError, HomogeneityError,
                     ResourceBudgetError, _require_int)
from .exterior import Element, FreeAlgebra
from .linalg import echelonize, kernel_basis, new_subspace
from .models import (MODELS, mod_ideal_quotient, model_options,
                     model_presentation, reduced_generators, totaro_algebra)
from . import presentation
from .presentation import (TensorSquareAlgebra, block_reduce, tensor_square,
                           weight_add, weight_block)


class BoundReport:
    """A computed cl/zcl value, or a certified lower bound for it."""

    def __init__(self, quantity: str, value: int, exact: bool, method: str,
                 algebra: str, variant: str = ""):
        self.quantity = quantity  # "cl" | "zcl"
        self.value = value
        self.exact = exact
        self.method = method      # "power-iteration" | "certificate"
        self.algebra = algebra
        self.variant = variant

    def to_json(self):
        out = {
            "quantity": self.quantity,
            "value": self.value,
            "exact": self.exact,
            "method": self.method,
            "algebra": self.algebra,
        }
        if self.variant:
            out["variant"] = self.variant
        return out


class ZclCertificate:
    """An explicit nonzero product of zero-divisors, expanded at its
    witness: a pair of monomials of the free algebra free."""

    def __init__(self, algebra: str, factors: list, witness: tuple,
                 coefficient, certified_length: int, free: FreeAlgebra):
        self.algebra = algebra
        self.factors = factors
        self.witness = witness
        self.coefficient = coefficient
        self.certified_length = certified_length
        self.free = free

    def to_json(self):
        """The report `zcl --method certificate --json` prints: an exact
        report's shape plus the witness, its coefficient and the factors."""
        out = BoundReport("zcl", self.certified_length, False, "certificate",
                          self.algebra).to_json()
        out["witness"] = [self.free.mon_str(m) for m in self.witness]
        out["coefficient"] = self.free.field.fmt(self.coefficient)
        out["factors"] = [repr(f) for f in self.factors]
        return out


class _GradedSpan:
    """Degreewise echelonized span of homogeneous elements of a graded space
    that offers field, dims and term_degree.

    Each degree numbers its own columns: a term gets the next one the first
    time the span meets it, so no basis of the whole space is listed.  A
    span's rank does not depend on its column order.
    """

    def __init__(self, space):
        self.space = space
        self.subs = {}
        self.cols = {}   # degree -> (term -> column, terms by column)

    def insert(self, elem):
        """Add a nonzero homogeneous element; if the span grew, return it on
        the span's terms, which unlike a product's fresh terms are shared."""
        space = self.space
        d = space.term_degree(next(iter(elem.terms)))
        if d not in self.subs:
            self.subs[d] = new_subspace(space.field, space.dims[d])
            self.cols[d] = ({}, [])
        index, terms = self.cols[d]
        vec = {}
        for t, c in elem.terms.items():
            j = index.get(t)
            if j is None:
                if space.term_degree(t) != d:
                    raise HomogeneityError("a span needs homogeneous elements")
                j = index[t] = len(terms)
                terms.append(t)
            vec[j] = c
        if not self.subs[d].insert(vec):
            return None
        return Element(space, {terms[j]: c for j, c in vec.items()})


def bar_generators(A):
    """Nonzero bar classes of the algebra generators."""
    T = tensor_square(A)
    bars = (T.bar(A.gen(name)) for name in A.free.names)
    return [b for b in bars if not b.is_zero()]


def _power_iterate(space, gens, cap):
    """Largest k <= cap with a nonzero k-fold product of gens; (value, exact).

    Each product is gens[i] * y, the space's own multiply.  The space is
    graded-commutative and the gens are homogeneous, so a product
    reorders, up to sign, to ascending factor indices.  With span_k(i) the
    span of the k-fold products of gens[i:], span_{k+1}(i) is the sum over
    j >= i of gens[j] * span_k(j).
    Each step visits i in descending order and keeps, tagged i, the products
    gens[i] * y that grow the span; those tagged >= i are a basis of
    span_k(i), so gens[i] multiplies only them.  A kept element tagged i is
    gens[i] * y', so when gens[i] squares to zero it kills that element too,
    and gens[i] multiplies only those tagged above i; a generator with a
    nonzero square (an even one can have a nonzero cube) keeps j = i.  The
    kept elements are products, not echelon rows, so they stay sparse and,
    over Q, integral.
    """
    if cap is not None:
        _require_int(cap, 1, f"cap must be at least 1, got {cap}")
    lowest = [i + 1 if (g * g).is_zero() else i for i, g in enumerate(gens)]
    level = [(len(gens), space.one())]
    k = 0
    while cap is None or k < cap:
        span, nxt = _GradedSpan(space), []
        for i in reversed(range(len(gens))):
            for tag, y in level:
                if tag < lowest[i]:
                    break
                p = gens[i] * y
                if not p.is_zero() and (kept := span.insert(p)) is not None:
                    nxt.append((i, kept))
        if not nxt:
            return k, True
        level = nxt
        k += 1
    return k, False


def zcl_exact(A, cap=None) -> BoundReport:
    """Zero-divisor cup length by ordered power iteration (_power_iterate)
    over the bar classes of the algebra generators (bar_generators), each
    product formed by TensorSquareAlgebra.multiply."""
    value, exact = _power_iterate(tensor_square(A), bar_generators(A), cap)
    return BoundReport("zcl", value, exact, "power-iteration", A.label,
                       variant="generators")


def cup_length(A, cap=None) -> BoundReport:
    """Largest q with a nonzero q-fold product of positive-degree elements."""
    gens = [g for g in A.generator_elements() if not g.is_zero()]
    value, exact = _power_iterate(A, gens, cap)
    return BoundReport("cl", value, exact, "power-iteration", A.label)


# --------------------------------------------------------------------------
# certificates


def certificate_product(T: TensorSquareAlgebra, factors, *witnesses) -> ZclCertificate:
    """Expand a product of zero-divisors and certify its first nonzero witness.

    Every factor must lie in ker(mu), and the candidate witnesses must share
    one bidegree (AlgebraError otherwise).  The product is expanded once,
    pruned to that bidegree: coefficients there are unaffected, since
    bidegrees only grow.  The certificate carries the first candidate whose
    coefficient is nonzero.  If every candidate is zero, CertificateError
    carries in .support the basis tensors that were nonzero at or below
    that bidegree.  With no candidate, the product is expanded in full and
    its least basis tensor is the witness; CertificateError if it vanishes.
    """
    A = T.A
    free = A.free
    bidegrees = {(free.monomial_degree(u), free.monomial_degree(v))
                 for u, v in witnesses}
    if len(bidegrees) > 1:
        raise AlgebraError(
            f"candidate witnesses need one shared bidegree, got {sorted(bidegrees)}")
    bound = bidegrees.pop() if bidegrees else None
    for i, f in enumerate(factors):
        if f.is_zero() or not T.mu(f).is_zero():
            raise CertificateError(f"factor {i} is not a zero-divisor: {f}")
    acc = T.one()
    for f in factors:
        acc = T.multiply(acc, f, bound)
        if acc.is_zero():
            break
    if not witnesses:
        if acc.is_zero():
            raise CertificateError(f"{A.label}: the {len(factors)}-fold product vanishes")
        witnesses = (min(acc.terms),)
    return _first_nonzero(A.label, free, list(factors), witnesses,
                          lambda witness: acc.terms.get(witness),
                          acc.terms, "at or below that bidegree")


def _first_nonzero(label, free, factors, witnesses, coefficient, support, where):
    """The certificate of the first witness whose coefficient is nonzero;
    else CertificateError, whose .support names the nonzero basis tensors
    of support, described by where."""
    for witness in witnesses:
        coeff = coefficient(witness)
        if coeff:
            return ZclCertificate(label, factors, witness, coeff,
                                  len(factors), free)
    support = sorted(support)
    first = witnesses[0]
    others = f" and {len(witnesses) - 1} other candidates" if len(witnesses) > 1 else ""
    msg = (f"zero witness coefficient on {free.mon_str(first[0])} (x) "
           f"{free.mon_str(first[1])}{others}; "
           f"{len(support)} nonzero basis tensors {where}")
    err = CertificateError(msg)
    err.support = [(free.mon_str(m1), free.mon_str(m2)) for m1, m2 in support]
    raise err


def _single_monomial(e: Element):
    if len(e.terms) != 1:
        raise CertificateError(f"expected a one-term element, got {e}")
    return next(iter(e.terms))


def case_certificate(case: str, model) -> ZclCertificate:
    """The named certificate families, each run on the model it is handed,
    the one MODELS gives for the family's token (ModelSpec.present, else
    build).

    torus: on totaro_presentation(1, n), prod of xbar_j ybar_j, length 2n,
      witness y1..yn (x) x1..xn.
    genus2: on genus2_B_presentation(n, g), g >= 2, abar1 bbar1 cbar1 dbar1
      prod_{j>=2} xbar_j ybar_j, length 2n+2, witness inside
      (w1 y2..yn) (x) (w1 x2..xn).
    sphere: on sphere_mod2_model(n), abar^3 prod_{i<=n-3} ebar{i}_0
      ebar{i}_1, length 2n-3, over GF(2), witness its least basis tensor:
      F(S^2, n) = SO(3) x F(C minus {0,1}, n-3) (Feichtner-Ziegler, Doc.
      Math. 5 (2000)), abar^3 is nonzero for SO(3), each point's loops
      around the two punctures give the plane factor's tori, and nonzero
      zero-divisor products of factors multiply to a nonzero one (Farber,
      Discrete Comput. Geom. 29 (2003)).
    punctured-mod-ideal: on mod_ideal_presentation(n, g), all 2n bars,
      length 2n, after checking every x1..xk y_{k+1}..y_n is nonzero there.

    The torus, genus2 and punctured-mod-ideal families run on the weight
    blocks of the model's presentation (a quotient handed to them stands
    for its presentation): their checks, legs and witnesses are reduced
    in the blocks they lie in, and the product is expanded by
    _split_product over the splits that reach the witness blocks.  The
    sphere family runs on the quotient, through certificate_product.

    n is the model's points; the genus is the one reduced_generators reads.
    A model the family cannot run on raises AlgebraError, and each factor
    and witness is verified.
    """
    if case == "sphere":
        A = model
        n = getattr(A, "points", 0)
        names = ["a"] * 3 + [f"e{i}_{q}" for i in range(1, n - 2) for q in (0, 1)]
        missing = [s for s in names if s not in A.free.by_name]
        if n < 3 or missing:
            raise AlgebraError(f"{A.label}: the sphere family needs a sphere-mod2 "
                               f"model (n = {n}, missing {missing})")
        T = tensor_square(A)
        try:
            return certificate_product(T, [T.bar(A.gen(s)) for s in names])
        except CertificateError as err:
            raise CertificateError(f"{A.label}: no {len(names) - 3}-fold bar "
                                   "product extends abar^3") from err
    if case not in ("torus", "genus2", "punctured-mod-ideal"):
        raise AlgebraError(f"unknown certificate case: {case}")

    pres = model_presentation(model)
    red = reduced_generators(pres)

    def product(elems):
        return block_reduce(pres, reduce(mul, elems))

    if case == "torus":
        wit = tuple(_single_monomial(product(legs)) for legs in (red.ys, red.xs))
        return _block_certificate(pres, _interleaved(red.xs, red.ys), [wit])

    if case == "genus2":
        if pres.genus < 2:
            raise AlgebraError(f"{pres.label}: the genus2 family needs genus >= 2")
        gens = [block_reduce(pres, pres.free.gen(s)) for s in ("a1", "b1", "c1", "d1")]
        w1 = product(gens[:2])
        L = product([w1] + red.ys[1:])
        R = product([w1] + red.xs[1:])
        if L.is_zero() or R.is_zero():
            raise CertificateError(f"{pres.label}: witness legs vanish")
        return _block_certificate(
            pres, gens + _interleaved(red.xs[1:], red.ys[1:]),
            [(m1, m2) for m1 in sorted(L.terms) for m2 in sorted(R.terms)])

    xs, ys, n = red.xs, red.ys, pres.points
    prods = [product(xs[:k] + ys[k:]) for k in range(n + 1)]
    for k, p in enumerate(prods):
        if p.is_zero():
            raise CertificateError(
                f"{pres.label}: x1..x{k} y{k+1}..y{n} reduced to zero")
    xmon, ymon = _single_monomial(prods[n]), _single_monomial(prods[0])
    return _block_certificate(pres, _interleaved(xs, ys),
                              [(ymon, xmon), (xmon, ymon)])


class _Pairs:
    """Pairs (u, v) of monomials of a free algebra, as the terms of its
    tensor square: what an Element needs to print, the way
    TensorSquareAlgebra prints its own."""

    def __init__(self, free: FreeAlgebra):
        self.free = free
        self.field = free.field

    def term_degree(self, pair):
        return self.free.monomial_degree(pair[0]) + self.free.monomial_degree(pair[1])

    def term_str(self, pair) -> str:
        return f"{self.free.mon_str(pair[0])}(x){self.free.mon_str(pair[1])}"


def _block_certificate(pres, zs, witnesses) -> ZclCertificate:
    """Certify prod bar(z) for normal-form elements zs of the presentation
    at the first of the candidate witnesses whose coefficient is nonzero.

    A bar z (x) 1 - 1 (x) z lies in ker(mu) and is zero exactly when z is.
    Each coefficient is read from _split_product, run once toward every
    candidate's left block."""
    free, neg = pres.free, pres.field.neg
    pairs = _Pairs(free)
    factors = []
    for i, z in enumerate(zs):
        terms = {}
        for m, c in z.terms.items():
            terms[(m, ())] = c
            terms[((), m)] = neg(c)
        factors.append(Element(pairs, terms))
        if z.is_zero():
            raise CertificateError(f"factor {i} is not a zero-divisor: {factors[i]}")

    def key(mon):
        return free.monomial_degree(mon), pres.weight(mon)

    states = _split_product(pres, zs, {key(m1) for m1, _ in witnesses})
    return _first_nonzero(
        pres.label, free, factors, witnesses,
        lambda witness: states.get(key(witness[0]), {}).get(witness),
        [t for tensor in states.values() for t in tensor],
        "in the witness blocks")


def _split_product(pres, zs, targets):
    """prod_k bar(z_k), expanded only over the splits that can reach a
    target: {(left degree, left weight): {(u, v): coefficient}} for each
    target (left degree, left weight) the product reaches.

    bar(z) = z (x) 1 - 1 (x) z, so the product is the sum over the splits
    of the factors between the legs, each term (z_S) (x) (z_not S) with its
    Koszul sign: (x (x) y)(z (x) 1) = (-1)^{|y||z|} xz (x) y.  Every z_k is
    homogeneous in degree and weight, so a partial product's left leg lies
    in one block for each (left degree, left weight), and the right leg in
    the block the totals fix.  The DP keeps one tensor per such state and
    drops a state from which no target is reachable: the left degree and
    weight the factors still to come can add form a set computed backward.
    Each leg's product is reduced in its block.  The terms the states hold
    count against DEFAULT_BUDGET after each factor (ResourceBudgetError).
    """
    free, field = pres.free, pres.field
    add, fmul, neg = field.add, field.mul, field.neg
    zero = (0,) * len(pres.weights[0])
    shape = []
    for z in zs:
        m = next(iter(z.terms))
        shape.append((free.monomial_degree(m), pres.weight(m)))
    # need[k]: the left (degree, weight) after k factors that can still
    # reach a target
    need = [set(targets)]
    for dz, uz in reversed(shape):
        after = need[0]
        need.insert(0, after | {(d - dz, weight_add(w, uz, -1))
                                for d, w in after if d >= dz})
    states = {(0, zero): {((), ()): field.one}}
    total_deg, total_wt = 0, zero
    for k, (z, (dz, uz)) in enumerate(zip(zs, shape)):
        nxt = {}
        left_cache, right_cache = {}, {}
        for (dl, wl), tensor in states.items():
            right_deg = total_deg - dl
            wr = weight_add(total_wt, wl, -1)
            left_key = (dl + dz, weight_add(wl, uz))
            if left_key in need[k + 1]:
                block = weight_block(pres, *left_key)
                acc = nxt.setdefault(left_key, {})
                flip = right_deg * dz % 2
                for (x, y), t in tensor.items():
                    prod = left_cache.get(x)
                    if prod is None:
                        prod = left_cache[x] = block.reduce(free.mon_times(x, z.terms))
                    for m, c in prod.items():
                        c = fmul(t, c)
                        _accumulate(acc, (m, y), neg(c) if flip else c, add)
            if (dl, wl) in need[k + 1]:
                block = weight_block(pres, right_deg + dz, weight_add(wr, uz))
                acc = nxt.setdefault((dl, wl), {})
                for (x, y), t in tensor.items():
                    prod = right_cache.get(y)
                    if prod is None:
                        prod = right_cache[y] = block.reduce(free.mon_times(y, z.terms))
                    nt = neg(t)
                    for m, c in prod.items():
                        _accumulate(acc, (x, m), fmul(nt, c), add)
        states = {s: {p: c for p, c in tensor.items() if c}
                  for s, tensor in nxt.items()}
        held = sum(map(len, states.values()))
        if held > presentation.DEFAULT_BUDGET:
            raise ResourceBudgetError(
                f"{pres.label}: the bar product holds {held} basis tensors "
                f"after {k + 1} factors, over the budget of "
                f"{presentation.DEFAULT_BUDGET}")
        total_deg, total_wt = total_deg + dz, weight_add(total_wt, uz)
    return {s: tensor for s, tensor in states.items() if s in targets}


def _accumulate(acc, key, c, add):
    prev = acc.get(key)
    acc[key] = c if prev is None else add(prev, c)


# Tensor products one bar-product search may form.  The largest search the
# tests run, punctured-plane n=5 k=1 with no cap, forms 6,719.
SEARCH_BUDGET = 10_000


def bar_product_certificate(A, cap=None) -> ZclCertificate:
    """Certify the longest nonzero product of at most `cap` generator bar
    classes (None: no limit) at its least basis tensor: zcl(A) >= its
    length, which may fall short.  One depth-first pass runs over the
    products in lexicographic order of strictly increasing bar index (the
    leading bar may repeat once), keeps for each length the first nonzero
    product it meets, the one a search for that length alone would find,
    and stops at the first of cap bars.  A search that would form more
    than SEARCH_BUDGET tensor products raises ResourceBudgetError."""
    if cap is not None:
        _require_int(cap, 0, f"cap must be nonnegative, got {cap}")
    T, bars = tensor_square(A), bar_generators(A)
    first = []  # per length: (bars, least basis tensor) of its first product
    formed = [0]

    def rec(acc, start, chosen):
        if len(chosen) == len(first):
            first.append((chosen, min(acc.terms)))
            if len(chosen) == cap:
                return True
        step = 1 if chosen else 0
        for i in range(start, len(bars)):
            if len(chosen) + 1 + len(bars) - i - step < len(first):
                break  # no product through bars[i] is longer than one met
            formed[0] += 1
            if formed[0] > SEARCH_BUDGET:
                raise ResourceBudgetError(
                    f"{A.label}: the bar-product search reached length "
                    f"{len(first) - 1} and needs more than {SEARCH_BUDGET} "
                    "tensor products, over the budget")
            p = acc * bars[i]
            if not p.is_zero() and rec(p, i + step, chosen + [bars[i]]):
                return True
        return False

    rec(T.one(), 0, [])
    return certificate_product(T, *first[-1])


def zcl_bound(model: str, options: dict, method: str = "exact", cap=None):
    """zcl of MODELS[model] built on options: zcl_exact's BoundReport, or
    the ZclCertificate of the model's certificate family, else of
    bar_product_certificate, with options read by model_options.  cap, checked
    before any build, stops the iteration or the search, and is refused for
    a family, whose length is fixed."""
    if method not in ("exact", "certificate"):
        raise AlgebraError(f"unknown method: {method}")
    options = model_options(model, **options)
    spec = MODELS[model]
    if cap is not None:
        _require_int(cap, 1, f"cap must be at least 1, got {cap}")
    if method == "exact":
        return zcl_exact(spec.build(**options), cap)
    case = spec.case(options)
    if case is None:
        return bar_product_certificate(spec.build(**options), cap)
    if cap is not None:
        raise AlgebraError(f"--cap does not apply to the {case} "
                           "certificate, whose length is fixed")
    return case_certificate(case, (spec.present or spec.build)(**options))


def _interleaved(xs, ys):
    """x_1, y_1, x_2, y_2, ..."""
    return [e for pair in zip(xs, ys) for e in pair]


# --------------------------------------------------------------------------
# the degree-(1,1) differential probe for the torus model


class E2Report:
    def __init__(self, n: int, dim_source: int, rank: int, kernel_dim: int):
        self.n = n
        self.dim_source = dim_source
        self.rank = rank
        self.kernel_dim = kernel_dim

    def to_json(self):
        return {"n": self.n, "dim_source": self.dim_source,
                "rank": self.rank, "kernel_dim": self.kernel_dim}


def e2_probe(n: int) -> E2Report:
    """Differential on degree-1 classes tensored with the pair classes.

    Source: H^1 of the torus power tensored with the span of one class per
    pair (i,j), modulo (p_i* x - p_j* x) tensor that class; the map sends
    x tensor (i,j) to x * Delta_{i,j} in degree 3 of the free tensor power.
    Reports dimensions only.
    """
    if n < 2:
        raise AlgebraError("the probe needs n >= 2")
    A = totaro_algebra(1, n)
    free = A.free
    field = A.field
    mons3 = free.monomials_of_degree(3)
    idx3 = {m: i for i, m in enumerate(mons3)}
    images = []
    dim_source = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            delta = A.diagonals[(i, j)]
            for letter in ("a", "b"):
                gi = free.gen(f"{letter}{i}")
                gj = free.gen(f"{letter}{j}")
                probe = (gi - gj) * delta
                if not probe.is_zero():
                    raise AlgebraError(
                        f"relation class ({letter}{i}-{letter}{j}) fails to kill "
                        f"the pair class ({i},{j})")
            # basis of H^1 modulo span(a_i - a_j, b_i - b_j): drop slot-j letters
            for letter in ("a", "b"):
                for k in range(1, n + 1):
                    if k == j:
                        continue
                    dim_source += 1
                    img = free.gen(f"{letter}{k}") * delta
                    images.append({idx3[m]: c for m, c in img.terms.items()})
    span = echelonize(field, len(mons3), images)
    rank = span.rank
    kernel = kernel_basis(field, images, len(mons3))
    if len(kernel) != dim_source - rank:
        raise AlgebraError("kernel dimension inconsistent with rank")
    return E2Report(n, dim_source, rank, len(kernel))
