"""Toric certificates: zero-divisor products restricted to embedded tori.

Let c be a simple closed curve on a surface S, and let point j of F(S, n)
run along the j-th of n disjoint parallel copies of c.  This embeds a torus
T_c = (S^1)^n in F(S, n).  Restriction to it is a ring map

    r_c: H*(F(S, n)) -> H*(T_c) = Lambda[t_1, ..., t_n],

the exterior algebra on n classes of degree 1, one per point.  A class u of
degree 1 goes to the sum over j of w_j t_j, where w_j is the winding of u
along the loop of point j.  So r_c is given by its values on the degree-1
generators, which are winding numbers: no relation and no kernel enters.

For two such tori T and T', restriction to T' x T inside F x F sends a
product of zero-divisors prod_k bar(u_k), bar(u) = u (x) 1 - 1 (x) u, to
(r' (x) r)(prod_k bar(u_k)), a product in Lambda (x) Lambda of the factors
r'(u_k) (x) 1 - 1 (x) r(u_k).  When that value is nonzero, so is the
product, and zcl(F) >= its number of factors (Farber, Discrete Comput.
Geom. 29 (2003)).

Two families of tori give every open-surface row its bound:

handle tori (genus g >= 1, any number of punctures, n points): alpha and
  beta are curves of the first handle that meet once, away from the
  punctures, and a_j, b_j are the classes of point j dual to them.  Then
  r_alpha(a_j) = t_j and r_beta(b_j) = t_j, while r_alpha(b_j),
  r_beta(a_j) and the classes of the other handles go to 0.  Each bar(a_j)
  restricts to -1 (x) t_j on T_beta x T_alpha and each bar(b_j) to
  t_j (x) 1, so (r_beta (x) r_alpha)(prod_j bar(a_j) bar(b_j)) is
  +-(t_1...t_n) (x) (t_1...t_n): 2n factors.
puncture loops (a plane with k >= 2 punctures, n points): in T_q point i
  circles puncture q at radius r_i, with r_1 < ... < r_n and every other
  puncture outside.  Then r_q(e{i}_q) = t_i and r_q(e{i}_{q'}) = 0 for
  q' != q; for i < j, r_q(e{i}{j}) = t_j, since the loop of point j winds
  once around point i and that of point i not around point j.  So
  (r_1 (x) r_0)(prod_i bar(e{i}_0) bar(e{i}_1)) is
  +-(t_1...t_n) (x) (t_1...t_n): 2n factors.  With one puncture and one
  point, T_0 is the circle C minus 0 itself, and bar(e1_0) restricts to
  t_1 (x) 1 - 1 (x) t_1 on T_0 x T_0.

The generator names are the models' own (a{j}, b{j}, ... of the diagonal
models, e{i}_q and e{i}{j} of the punctured-plane algebras), so the tests
check that each ring map kills every relation of those models: each
restriction then factors through the model, an independent check of the
winding numbers.

Lambda is held on bitmasks: bit j - 1 of a monomial is t_j, an element of
Lambda is {mask: coefficient} and one of Lambda (x) Lambda is
{(left mask, right mask): coefficient}.
"""

from __future__ import annotations

from .errors import CertificateError, _require_int
from .fields import QQ, Field


def _times_t(u: int, t: int, field: Field, c):
    """c times the sign of t_u t = +-t_(u|t), for t a single bit: t moves
    past the t's of u after it.  None when t is in u."""
    if u & t:
        return None
    return field.neg(c) if (u & ~(2 * t - 1)).bit_count() & 1 else c


def restrict(image: dict, names, terms: dict, field: Field) -> dict:
    """r(p) in Lambda, for the ring map r with image[name] = {j: w_j} on the
    degree-1 generators (every other generator goes to 0) and the
    polynomial p = terms, {monomial: coefficient}, whose monomials are
    tuples of indices into names."""
    out = {}
    for mon, c in terms.items():
        acc = {0: c}
        for g in mon:
            step = {}
            for u, a in acc.items():
                for j, w in image.get(names[g], {}).items():
                    t = 1 << (j - 1)
                    b = _times_t(u, t, field, field.mul(a, w))
                    if b is not None:
                        _add(step, u | t, b, field)
            acc = step
        for u, a in acc.items():
            _add(out, u, a, field)
    return {u: a for u, a in out.items() if a}


def bar_value(left: dict, right: dict, factors, field: Field) -> dict:
    """(r_left (x) r_right)(prod_k bar(u_k)) in Lambda (x) Lambda, for the
    generator names u_k in factors: each factor is
    r_left(u) (x) 1 - 1 (x) r_right(u), multiplied in with the sign
    (x (x) y)(z (x) 1) = (-1)^|y| xz (x) y on the left leg."""
    acc = {(0, 0): field.one}
    for u in factors:
        legs = [(1 << (j - 1), 0, w) for j, w in left.get(u, {}).items()]
        legs += [(0, 1 << (j - 1), field.neg(w))
                 for j, w in right.get(u, {}).items()]
        step = {}
        for (x, y), a in acc.items():
            for dx, dy, w in legs:
                c = field.mul(a, w)
                if dx:
                    if y.bit_count() & 1:
                        c = field.neg(c)
                    c, key = _times_t(x, dx, field, c), (x | dx, y)
                else:
                    c, key = _times_t(y, dy, field, c), (x, y | dy)
                if c is not None:
                    _add(step, key, c, field)
        acc = {k: c for k, c in step.items() if c}
    return acc


def _add(acc, key, c, field):
    prev = acc.get(key)
    acc[key] = c if prev is None else field.add(prev, c)


def _mask_str(mask: int) -> str:
    bits = [f"t{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1]
    return "*".join(bits) or "1"


class ToricCertificate:
    """A product of generator bars restricted to a pair of embedded tori.

    tori names the pair (left x right), left and right are the ring maps
    {generator name: {point j: winding}} of the two tori, and factors
    names the generators whose bars are multiplied.  value is bar_value of
    these, which must be nonzero (CertificateError otherwise); then
    zcl >= certified_length = len(factors).
    """

    def __init__(self, tori: str, left: dict, right: dict, factors: list,
                 field: Field = QQ):
        self.tori, self.field = tori, field
        self.left, self.right, self.factors = left, right, factors
        self.value = bar_value(left, right, factors, field)
        if not self.value:
            raise CertificateError(
                f"{tori}: the {len(factors)} bars restrict to zero")
        self.certified_length = len(factors)

    def value_str(self) -> str:
        return " + ".join(
            f"{self.field.fmt(c)} {_mask_str(x)} (x) {_mask_str(y)}"
            for (x, y), c in sorted(self.value.items()))


def handle_tori(n: int, field: Field = QQ) -> ToricCertificate:
    """prod_j bar(a_j) bar(b_j) on T_beta x T_alpha, the tori of the first
    handle's curves beta and alpha: 2n factors, on any surface of genus
    g >= 1 with any number of punctures."""
    _require_int(n, 1, "need at least one point")
    alpha = {f"a{j}": {j: 1} for j in range(1, n + 1)}
    beta = {f"b{j}": {j: 1} for j in range(1, n + 1)}
    factors = [f"{x}{j}" for j in range(1, n + 1) for x in "ab"]
    return ToricCertificate("T_beta x T_alpha of the first handle",
                            beta, alpha, factors, field)


def _puncture_loop(n: int, q: int) -> dict:
    """r_q: point i circles puncture q inside the circles of points > i."""
    image = {f"e{i}_{q}": {i: 1} for i in range(1, n + 1)}
    image.update({f"e{i}{j}": {j: 1} for j in range(1, n + 1)
                  for i in range(1, j)})
    return image


def puncture_loops(n: int, field: Field = QQ) -> ToricCertificate:
    """prod_i bar(e{i}_0) bar(e{i}_1) on T_1 x T_0, the loops of n points
    around the first two punctures of a plane with k >= 2 punctures: 2n
    factors."""
    _require_int(n, 1, "need at least one point")
    factors = [f"e{i}_{q}" for i in range(1, n + 1) for q in (0, 1)]
    return ToricCertificate("T_1 x T_0 of the puncture loops",
                            _puncture_loop(n, 1), _puncture_loop(n, 0),
                            factors, field)


def circle(field: Field = QQ) -> ToricCertificate:
    """bar(e1_0) on T_0 x T_0 for C minus 0, one point: zcl(S^1) >= 1."""
    loop = _puncture_loop(1, 0)
    return ToricCertificate("T_0 x T_0 of the circle", loop, loop,
                            ["e1_0"], field)
