"""Builders for the specific algebras the toolkit works with.

Surface cohomology rings, the Orlik-Solomon algebras of configurations in
a plane with any number k >= 0 of points removed (the Arnold algebra at
k = 0), the diagonal-ideal quotients modeling configuration spaces of
surfaces, the genus-2 auxiliary quotient, and the mod-2 model for
configuration spaces of the sphere.
"""

from __future__ import annotations

import string
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .errors import (
    AlgebraError,
    ModelInconsistencyError,
    UnsupportedModelError,
    _require_int,
)
from .exterior import Element, FreeAlgebra
from .fields import GF2, QQ, Field
from .linalg import echelonize
from .presentation import (
    AlgebraPresentation,
    QuotientAlgebra,
    block_reduce,
    quotient,
    tensor_square,
    weight_block,
    weight_blocks,
)


def _handle_letters(g: int):
    """Letter pairs (a,b), (c,d), (e,f), ... one pair per handle, and the
    weight in Z^g of each letter in order: letter 2h gets +e_h and letter
    2h+1 gets -e_h.  This is a maximal torus of Sp(2g) acting on H^1 of the
    surface; it preserves the intersection form, so it fixes the diagonal
    class, and every relation of the surface models is weight-homogeneous."""
    if 2 * g > len(string.ascii_lowercase) - 3:
        raise UnsupportedModelError(f"genus {g} exceeds the letter-pair naming scheme")
    pairs = [(string.ascii_lowercase[2 * p], string.ascii_lowercase[2 * p + 1])
             for p in range(g)]
    unit = [tuple(int(h == p) for h in range(g)) for p in range(g)]
    weights = [w for e in unit for w in (e, tuple(-x for x in e))]
    return pairs, weights


def surface_cohomology(g: int, field: Field = QQ) -> AlgebraPresentation:
    """Cohomology ring of the closed orientable surface of genus g.

    g=0: one generator w of degree 2 with w^2 = 0.  g >= 1: odd generators
    a,b (one pair per handle), all degree-2 products zero except the handle
    products, which are all identified.  The generators carry the weights
    of _handle_letters (w has the weight of Z^0).
    """
    _require_int(g, 0, "genus must be nonnegative")
    if g == 0:
        free = FreeAlgebra(field, [("w", 2)])
        w = free.gen("w")
        return AlgebraPresentation(free, [w * w], top_degree=2, label="surface(g=0)",
                                   weights=[()])
    pairs, weights = _handle_letters(g)
    gens = []
    for a, b in pairs:
        gens.append((a, 1))
        gens.append((b, 1))
    free = FreeAlgebra(field, gens)
    rels = []
    for p in range(g):
        ap, bp = (free.gen(x) for x in pairs[p])
        for q in range(p + 1, g):
            aq, bq = (free.gen(x) for x in pairs[q])
            rels.extend([ap * aq, bp * bq, ap * bq, aq * bp])
        if p > 0:
            a1, b1 = (free.gen(x) for x in pairs[0])
            rels.append(ap * bp - a1 * b1)
    if field.char == 2:
        for name in free.names:
            x = free.gen(name)
            rels.append(x * x)
    return AlgebraPresentation(free, rels, top_degree=2, label=f"surface(g={g})",
                               weights=weights)


def arnold_algebra(n: int, field: Field = QQ) -> AlgebraPresentation:
    """The Arnold algebra of F(C, n): the plane algebra with no punctures."""
    return punctured_plane_algebra(n, 0, field)


def punctured_plane_algebra(points: int, punctures: int,
                            field: Field = GF2) -> AlgebraPresentation:
    """Orlik-Solomon algebra of n = points in a plane with k = punctures removed.

    F(C minus k points, n) is the complement of a fiber-type arrangement,
    so its cohomology is the Orlik-Solomon algebra (Orlik-Terao,
    *Arrangements of Hyperplanes*).  Generators, all in degree 1: e{i}_q
    (point i around puncture q) and e{i}{j} (points i < j).  Relations:
    squares (char 2) and the three Orlik-Solomon families, namely the
    parallel pairs e{i}_p e{i}_q (p < q), the point triples, and the
    puncture circuits tying e{i}_q, e{j}_q to e{i}{j}.  The Hilbert series
    is the product of (1 + (k + j) t) over j = 0..n-1, which the tests
    verify.  k = 0 is the Arnold algebra of F(C, n): its generators are
    a{i}{j}, its label arnold(n=...), its top degree n - 1, and n >= 1.
    """
    _require_int(punctures, 0, "punctures must be nonnegative")
    if punctures:
        _require_int(points, 0, "points must be nonnegative")
    else:
        _require_int(points, 1, "need at least one point")
    pair = "a" if punctures == 0 else "e"
    pts = range(1, points + 1)
    gens = [(f"e{i}_{q}", 1) for i in pts for q in range(punctures)]
    gens += [(f"{pair}{i}{j}", 1) for i, j in combinations(pts, 2)]
    free = FreeAlgebra(field, gens)
    gen = free.gen
    rels = [gen(x) * gen(x) for x in free.names] if field.char == 2 else []
    for i in pts:
        for p, q in combinations(range(punctures), 2):
            rels.append(gen(f"e{i}_{p}") * gen(f"e{i}_{q}"))
    for i, j, l in combinations(pts, 3):
        gij, gil, gjl = (gen(f"{pair}{a}{b}")
                         for a, b in ((i, j), (i, l), (j, l)))
        rels.append(gij * gil - gij * gjl + gil * gjl)
    for q in range(punctures):
        for i, j in combinations(pts, 2):
            ei, ej, eij = gen(f"e{i}_{q}"), gen(f"e{j}_{q}"), gen(f"e{i}{j}")
            rels.append(ei * ej - ei * eij + ej * eij)
    if punctures == 0:
        return AlgebraPresentation(free, rels, top_degree=points - 1,
                                   label=f"arnold(n={points})")
    return AlgebraPresentation(
        free, rels, top_degree=points,
        label=f"punctured-plane(n={points},k={punctures})")


# --------------------------------------------------------------------------
# diagonal-ideal models


def _rename(mon, offset):
    return tuple(g + offset for g in mon)


def _slot_offsets(base_ngens, n):
    return [i * base_ngens for i in range(n)]


def _lift_relations(pres: AlgebraPresentation, free: FreeAlgebra, offsets):
    """Copy each relation into every slot of the tensor power."""
    out = []
    for off in offsets:
        for r in pres.relations:
            out.append(Element(free, {_rename(m, off): c for m, c in r.terms.items()}))
    return out


def _tensor_power_free(pres: AlgebraPresentation, n: int) -> FreeAlgebra:
    gens = []
    for i in range(1, n + 1):
        for g in pres.free.generators:
            gens.append((f"{g.name}{i}", g.degree))
    return FreeAlgebra(pres.field, gens)


def place_diagonal(delta, free: FreeAlgebra, base_ngens: int, i: int, j: int) -> Element:
    """Place the two legs of a diagonal tensor at slots i < j of the power.

    Slot blocks are declared in increasing order, so the two renamed legs
    interleave without sign.
    """
    if not 1 <= i < j:
        raise AlgebraError("slots must satisfy 1 <= i < j")
    off_i = (i - 1) * base_ngens
    off_j = (j - 1) * base_ngens
    terms = {}
    for (m1, m2), c in delta.terms.items():
        terms[_rename(m1, off_i) + _rename(m2, off_j)] = c
    return Element(free, terms)


@lru_cache(maxsize=None, typed=True)
def surface_diagonal(g: int):
    """The diagonal class of the genus-g surface over Q, and its ring H,
    built and checked once per genus: every diagonal model shares them.

    Delta is the sum over a basis of (-1)^|b| b (x) b*, where b . b* = omega
    (Milnor-Stasheff, *Characteristic Classes*, Thm 11.11).  With omega the
    one degree-2 basis monomial, the dual basis 1* = omega, omega* = 1,
    a_p* = b_p and b_p* = -a_p gives

        Delta = 1 (x) omega + omega (x) 1 + sum_p (b_p (x) a_p - a_p (x) b_p).

    The classes that every bar(x) kills form a line, so the check that they
    kill Delta fixes it up to scale, and the 1 on omega (x) 1 fixes the scale.
    """
    H = quotient(surface_cohomology(g))
    T, omega, index = tensor_square(H), H.basis_monomials(2)[0], H.free.by_name
    terms = {((), omega): 1}
    for a, b in _handle_letters(g)[0]:
        terms[(index[a],), (index[b],)] = -1
        terms[(index[b],), (index[a],)] = 1
    terms[omega, ()] = 1
    delta = Element(T, terms)
    for name in H.free.names:
        if not (T.bar(H.gen(name)) * delta).is_zero():
            raise ModelInconsistencyError(
                f"{H.label}: diagonal class not annihilated by bar({name})")
    return delta, H


def _reduced_xy(gen, n: int):
    """x_1 = a_1, x_j = a_j - a_1 and y_1 = b_1, y_j = b_j - b_1 (j >= 2),
    each made from gen(name) of its generators."""
    def reduce(letter):
        a = [gen(f"{letter}{i}") for i in range(1, n + 1)]
        return [a[0]] + [a[j] - a[0] for j in range(1, n)]

    return reduce("a"), reduce("b")


def _e1(genus: int, k: int):
    """k e_1 in Z^genus: the weight of a product of reduced generators with
    k more x's than y's."""
    return (k,) + (0,) * (genus - 1)


def _xy_span_matches(pres: AlgebraPresentation, n: int) -> bool:
    """Degree-2 ideal of the torus model == span of the reduced-pair relations.

    The relations have weight 0, so the degree-2 blocks of weight +-2e_1
    must hold no ideal, and the weight-0 block's ideal must be their span.
    At g=1 over Q no relation is a single monomial, so the block columns
    are all the degree-2 monomials of their weight."""
    x, y = _reduced_xy(pres.free.gen, n)
    rels = []
    for j in range(1, n):
        rels.append(x[j] * y[j])
        for i in range(1, j):
            rels.append(x[j] * y[i] + x[i] * y[j])
    zero, plus, minus = weight_blocks(pres, [(2, (0,)), (2, (2,)), (2, (-2,))])
    idx = zero.index
    vecs = [{idx[m]: c for m, c in r.terms.items()} for r in rels]
    span = echelonize(pres.field, len(idx), vecs)
    return plus.ideal.is_zero() and minus.ideal.is_zero() and span == zero.ideal


def _diagonal_presentation(g: int, n: int, extra_rels=None,
                           label=None) -> AlgebraPresentation:
    """[H*(surface)]^(x n) / (diagonal classes), plus extra_rels(free), as a
    presentation whose generators carry the surface's weights in every slot.
    It also carries genus, points and diagonals, the (i, j) -> Delta_ij."""
    pres0 = surface_cohomology(g, QQ)
    delta, _H = surface_diagonal(g)
    free = _tensor_power_free(pres0, n)
    base = pres0.free.ngens
    offsets = _slot_offsets(base, n)
    rels = _lift_relations(pres0, free, offsets)
    diagonals = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = place_diagonal(delta, free, base, i, j)
            diagonals[(i, j)] = d
            rels.append(d)
    if extra_rels:
        rels.extend(extra_rels(free))
    top = 2 * n if g == 0 else None
    pres = AlgebraPresentation(free, rels, top_degree=top, label=label,
                               weights=pres0.weights * n)
    pres.genus, pres.points, pres.diagonals = g, n, diagonals
    return pres


def _diagonal_quotient(pres: AlgebraPresentation) -> QuotientAlgebra:
    """The quotient of a _diagonal_presentation, with its genus, points and
    diagonals."""
    A = quotient(pres)
    A.genus, A.points, A.diagonals = pres.genus, pres.points, pres.diagonals
    return A


def model_presentation(model) -> AlgebraPresentation:
    """The presentation of a model handed as a presentation or a quotient."""
    return model if isinstance(model, AlgebraPresentation) else model.presentation


def totaro_presentation(g: int, n: int) -> AlgebraPresentation:
    """The presentation of totaro_algebra(g, n); for g=1 the degree-2 ideal
    is checked, on its weight blocks, against the reduced-pair relation
    span."""
    _require_int(n, 1, "need at least one point")
    _require_int(g, 0, "genus must be nonnegative")
    pres = _diagonal_presentation(g, n, label=f"totaro(g={g},n={n})")
    if g == 1 and not _xy_span_matches(pres, n):
        raise ModelInconsistencyError(
            "torus model: degree-2 ideal differs from the reduced-pair span")
    return pres


def totaro_algebra(g: int, n: int) -> QuotientAlgebra:
    """The diagonal-ideal model: [H*(surface)]^(x n) / (diagonal classes).

    A subalgebra of the configuration-space cohomology; over the rationals.
    Built from totaro_presentation, with its check.
    """
    return _diagonal_quotient(totaro_presentation(g, n))


class ReducedGenerators:
    """x_1 = a_1, y_1 = b_1, x_j = a_j - a_1, y_j = b_j - b_1 (j >= 2)."""

    def __init__(self, xs: list, ys: list):
        self.xs = xs
        self.ys = ys


def reduced_generators(model) -> ReducedGenerators:
    """Reduced generators of a diagonal-ideal model; torus identities checked.

    model is the model's presentation, whose generators come back in
    normal form as elements of its free algebra, or its quotient, whose
    own elements come back.  At genus 1 the identities x_j y_j = 0 and
    x_j y_i + x_i y_j = 0 are checked in the degree-2 weight-0 block."""
    pres = model_presentation(model)
    if getattr(pres, "genus", 0) < 1:
        raise AlgebraError(f"{pres.label}: reduced generators need a "
                           "diagonal-ideal model of genus >= 1")
    n = pres.points
    if pres.genus == 1:
        xs, ys = _reduced_xy(pres.free.gen, n)
        for j in range(1, n):
            if block_reduce(pres, xs[j] * ys[j]).terms:
                raise ModelInconsistencyError(
                    f"x_{j+1} y_{j+1} nonzero in {pres.label}")
            for i in range(1, j):
                if block_reduce(pres, xs[j] * ys[i] + xs[i] * ys[j]).terms:
                    raise ModelInconsistencyError(
                        f"x_{j+1} y_{i+1} + x_{i+1} y_{j+1} nonzero in {pres.label}")
    if model is pres:
        return ReducedGenerators(*_reduced_xy(
            lambda name: block_reduce(pres, pres.free.gen(name)), n))
    return ReducedGenerators(*_reduced_xy(model.gen, n))


def _pair_ideal_relations(free: FreeAlgebra, n: int):
    """c_i c_j, d_i d_j (i<j) and c_i d_j (i != j), as single monomials."""
    rels = []
    one = free.field.one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ci, cj = free.by_name[f"c{i}"], free.by_name[f"c{j}"]
            di, dj = free.by_name[f"d{i}"], free.by_name[f"d{j}"]
            rels.append(Element(free, {tuple(sorted((ci, cj))): one}))
            rels.append(Element(free, {tuple(sorted((di, dj))): one}))
            rels.append(Element(free, {tuple(sorted((ci, dj))): one}))
            rels.append(Element(free, {tuple(sorted((cj, di))): one}))
    return rels


def genus2_B_presentation(n: int, genus: int = 2) -> AlgebraPresentation:
    """The presentation of genus2_B_algebra(n, genus), whose x_J y_K
    monomials with max J < min K are checked independent on its blocks."""
    _require_int(n, 1, "need at least one point")
    _require_int(genus, 2, "the pair ideal needs genus >= 2")
    pres = _diagonal_presentation(
        genus, n, extra_rels=lambda free: _pair_ideal_relations(free, n),
        label=f"b-sigma(g={genus},n={n})")
    _check_xJyK_independent(pres)
    return pres


def genus2_B_algebra(n: int, genus: int = 2) -> QuotientAlgebra:
    """Quotient of the genus-2 diagonal model by the second-handle pair ideal.

    Kills c_i c_j, c_i d_j, d_i d_j across distinct slots.  Built from
    genus2_B_presentation: the reduced monomials x_J y_K with max J < min K
    stay independent.
    """
    return _diagonal_quotient(genus2_B_presentation(n, genus))


def xJyK_pairs(n: int):
    """All (J, K) with J, K inside [2, n] and max J < min K (empty sets allowed)."""
    idx = list(range(2, n + 1))
    subsets = [[]]
    for i in idx:
        subsets += [s + [i] for s in subsets]
    out = []
    for J in subsets:
        for K in subsets:
            if not J or not K or max(J) < min(K):
                out.append((tuple(J), tuple(K)))
    return out


def _check_xJyK_independent(pres: AlgebraPresentation):
    """x_J y_K lies in the block (|J| + |K|, (|J| - |K|) e_1).  Every such
    block is checked against the budget before any is built or any pair
    listed; a degree's rank is the sum of its blocks' ranks."""
    red = reduced_generators(pres)
    n, g = pres.points, pres.genus
    weight_blocks(pres, [(d, _e1(g, 2 * j - d))
                         for d in range(n) for j in range(d + 1)])
    one = pres.free.one()
    by_degree = {}
    for J, K in xJyK_pairs(n):
        m = one
        for j in J:
            m = m * red.xs[j - 1]
        for k in K:
            m = m * red.ys[k - 1]
        d = len(J) + len(K)
        blk = weight_block(pres, d, _e1(g, len(J) - len(K)))
        vec = {blk.index[t]: c for t, c in blk.reduce(m.terms).items()}
        by_degree.setdefault(d, {}).setdefault(blk.weight, (blk, []))[1].append(vec)
    for d in sorted(by_degree):
        blocks = by_degree[d].values()
        rank = sum(echelonize(pres.field, len(blk.mons), vecs).rank
                   for blk, vecs in blocks)
        count = sum(len(vecs) for _, vecs in blocks)
        if rank != count:
            raise ModelInconsistencyError(
                f"{pres.label}: x_J y_K monomials dependent in degree {d} "
                f"(rank {rank} of {count})")


def so3_mod2_algebra() -> QuotientAlgebra:
    """The mod-2 algebra on one degree-1 generator truncated above a^3."""
    free = FreeAlgebra(GF2, [("a", 1)])
    a = free.gen("a")
    pres = AlgebraPresentation(free, [a * a * a * a], top_degree=4,
                               label="Z2[a]/(a^4)")
    return quotient(pres)


def sphere_mod2_model(n: int) -> QuotientAlgebra:
    """Mod-2 model for n points on the sphere, n >= 3.

    Tensor product of the truncated algebra on a (a^4 = 0) with the
    two-puncture plane algebra on n-3 points.
    """
    _require_int(n, 3, f"n={n}: the mod-2 sphere model needs n >= 3",
                 UnsupportedModelError)
    pp = punctured_plane_algebra(n - 3, 2, GF2)
    gens = [("a", 1)] + [(g.name, g.degree) for g in pp.free.generators]
    free = FreeAlgebra(GF2, gens)
    a = free.gen("a")
    rels = [a * a * a * a] + _lift_relations(pp, free, [1])
    pres = AlgebraPresentation(free, rels, top_degree=n,
                               label=f"sphere-mod2(n={n})")
    A = quotient(pres)
    A.points = n
    return A


def mod_ideal_presentation(n: int, genus: int = 2) -> AlgebraPresentation:
    """Genus-g diagonal model modulo <x1 y1, x_i y1 + x1 y_i>, as a presentation."""
    _require_int(n, 1, "n must be positive")
    _require_int(genus, 1, "the mod-ideal model needs genus >= 1")
    def extra(free):
        x, y = _reduced_xy(free.gen, n)
        rels = [x[0] * y[0]]
        for i in range(1, n):
            rels.append(x[i] * y[0] + x[0] * y[i])
        return rels

    return _diagonal_presentation(genus, n, extra_rels=extra,
                                  label=f"mod-ideal(g={genus},n={n})")


def mod_ideal_quotient(n: int, genus: int = 2) -> QuotientAlgebra:
    """The quotient of mod_ideal_presentation(n, genus)."""
    return _diagonal_quotient(mod_ideal_presentation(n, genus))


# --------------------------------------------------------------------------
# the model table: every CLI token and tc row is built through MODELS


class ModelSpec:
    """One model token: its builder, the options it takes, its certificate.

    defaults names every option the model takes (g, n, punctures, field)
    with the value used when it is not given; build(**options) returns the
    quotient algebra; case(options) names the fixed-length certificate
    family of zcl.case_certificate that runs on the model, or None.  A
    family that runs on weight blocks is handed present(**options), the
    weighted presentation; present is None where the family runs on the
    quotient.
    """

    def __init__(self, build: Callable, defaults: dict,
                 case: Callable = lambda options: None,
                 present: Callable | None = None):
        self.build = build
        self.defaults = defaults
        self.case = case
        self.present = present


# Each entry calls its builder through this module's globals, so a builder
# rebound on the module (by a tracer, say) is the one the table runs.
MODELS = {
    "surface": ModelSpec(
        lambda g, field: quotient(surface_cohomology(g, field)),
        {"g": 1, "field": QQ}),
    "arnold": ModelSpec(
        lambda n, field: quotient(arnold_algebra(n, field)),
        {"n": 2, "field": QQ}),
    "punctured-plane": ModelSpec(
        lambda n, punctures, field: quotient(
            punctured_plane_algebra(n, punctures, field)),
        {"n": 1, "punctures": 2, "field": GF2}),
    "totaro": ModelSpec(
        lambda g, n: totaro_algebra(g, n), {"g": 1, "n": 1},
        lambda options: "torus" if options["g"] == 1 else None,
        lambda g, n: totaro_presentation(g, n)),
    "b-sigma": ModelSpec(
        lambda g, n: genus2_B_algebra(n, g), {"g": 2, "n": 1},
        lambda options: "genus2",
        lambda g, n: genus2_B_presentation(n, g)),
    "sphere-mod2": ModelSpec(
        lambda n: sphere_mod2_model(n), {"n": 3},
        lambda options: "sphere"),
    "so3-mod2": ModelSpec(lambda: so3_mod2_algebra(), {}),
    "mod-ideal": ModelSpec(
        lambda g, n: mod_ideal_quotient(n, g), {"g": 2, "n": 1},
        lambda options: "punctured-mod-ideal",
        lambda g, n: mod_ideal_presentation(n, g)),
}

_OPTION_NOUNS = {"g": "a genus", "n": "a number of points",
                 "punctures": "a punctures count", "field": "a field"}


def model_options(model: str, **given) -> dict:
    """The model's defaults, overridden by every given value that is not None.

    A given value for an option the model does not take raises
    UnsupportedModelError, so no option is ever silently dropped.
    """
    if model not in MODELS:
        raise UnsupportedModelError(f"unknown model: {model}")
    defaults = MODELS[model].defaults
    given = {k: v for k, v in given.items() if v is not None}
    for k in given:
        if k not in defaults:
            raise UnsupportedModelError(
                f"{model} does not take {_OPTION_NOUNS.get(k, k)}")
    return {**defaults, **given}


def resolve_model(model: str, **given) -> QuotientAlgebra:
    """Quotient-level lookup by model token; options as in model_options."""
    options = model_options(model, **given)
    return MODELS[model].build(**options)
