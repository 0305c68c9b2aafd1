"""Topological-complexity reports for configuration spaces of surfaces.

A report combines three independent numbers for F(Sigma_g minus m points, n):

  lower    1 + zcl, certified by an explicit nonzero product of
           zero-divisors.  Under --method certificate the product is
           restricted to embedded tori and evaluated in Lambda (x) Lambda
           (toric certificates, from the toric module), read off a power
           of one bar in a truncated polynomial ring (the sphere with
           n <= 2 and the SO(3) factor), summed over the factors of a
           classical splitting (product certificates), or, on the closed
           surfaces of genus >= 2, expanded on a cohomology model.  Under
           --method exact it is the model's zcl by exact power iteration.
  upper    the minimum over encoded fact chains: homotopy-dimension bounds
           tc <= 2 dim + 1 and fibration splittings tc <= tc(base) +
           tc(fiber) - 1 seeded with known constants,
  theorem  the closed-form value the two are expected to pinch.

One function, _family, names each row's family and gives its closed form,
its upper-bound fact chain, the model its exact lower bound is read from
and the certificate its certified lower bound is read from.  Upper bounds
are encoded facts, not computations; every fact carries a kind tag
("cited" for known inputs, "dimension" or "product" for the bound rule
applied, "derived" for values this package computed).  Status is "tight"
when lower = theorem = upper, "gap" otherwise, and "unverified" when no
model algebra is wired for an exact row, as on the punctured surfaces of
positive genus (the closed form is still shown).  A sweep row whose model
refuses the input is "unverified" too, with the refusal as its first fact.
A sweep row whose model exceeds its budget is "over-budget": no
lower bound, and the refusal as its first fact.

Only this module imports toric.  The model layers (models, presentation,
linalg, zcl) are imported when a row reads a model: a closed surface of
genus >= 2, and every row under --method exact.
"""

from __future__ import annotations

from .errors import (AlgebraError, ModelInconsistencyError, ResourceBudgetError,
                     UnsupportedModelError, _require_int)
from .fields import GF2, QQ
from .toric import (ToricCertificate, TruncatedPowerCertificate, circle,
                    handle_tori, puncture_loops)


class TcFact:
    """One ingredient of a bound: a constant, a rule instance, or a result."""

    def __init__(self, description: str, value: int, kind: str):
        self.description = description
        self.value = value
        self.kind = kind  # cited | dimension | product | derived

    def to_json(self):
        return {"description": self.description, "value": self.value,
                "kind": self.kind}


class ProductCertificate:
    """Certificates of the factors of a splitting X = X_1 x ... x X_k, each
    checkable on its own, over one field: zcl(X) >= certified_length, the
    sum of theirs.  factors lists (factor space, certificate)."""

    def __init__(self, splitting: str, factors: list):
        self.splitting = splitting
        self.factors = factors
        self.certified_length = sum(c.certified_length for _, c in factors)


def tc_theorem(g: int, n: int, m: int = 0) -> int:
    """Closed-form tc of F(Sigma_g minus m points, n)."""
    return _family(g, n, m)[0]


def product_space_tc(g: int, n: int) -> int:
    """tc of the n-fold product of the closed surface, for comparison."""
    for value, low in ((g, 0), (n, 1)):
        _require_int(value, low, "need g >= 0, n >= 1")
    return 2 * n + 1 if g <= 1 else 4 * n + 1


def _dim_facts(space: str, dim: int):
    return [
        TcFact(f"{space} carrying a complex of dimension {dim}", dim, "dimension"),
        TcFact(f"tc <= 2*{dim} + 1 on a {dim}-dimensional complex",
               2 * dim + 1, "dimension"),
    ]


def _family(g: int, n: int, m: int):
    """(closed-form tc, upper-bound fact chain, model, certify) of the row's
    family.

    The chain's last fact is the bound.  The model is the (token, options)
    whose exact zcl bounds tc from below, or None when none is wired.
    certify() builds the certificate of the certified lower bound:
    - the sphere with n <= 2: ubar^2 = -2 u (x) u on H*(S^2; Q) =
      Q[u]/(u^2), |u| = 2, pulled back along the projection to point 1,
      a homotopy equivalence since its fiber, S^2 minus a point, is
      contractible;
    - the closed torus and every punctured surface of genus >= 1: the
      handle tori, 2n factors (toric.handle_tori);
    - the sphere minus m >= 3 points, which is the plane minus k = m - 1 >= 2
      points: the loops around two punctures, 2n factors
      (toric.puncture_loops);
    - the plane (m = 1): F(C, n) = C x C* x F(C minus {0,1}, n - 2), by
      z -> (z_1, z_2 - z_1, ((z_i - z_1)/(z_2 - z_1))_{i>2}), so
      zcl >= 0 + 1 + 2(n - 2);
    - the once-punctured plane (m = 2): F(C minus 0, n) =
      C* x F(C minus {0,1}, n - 1), by z -> (z_1, (z_i/z_1)_{i>1}), so
      zcl >= 1 + 2(n - 1);
    - the sphere with n >= 3: F(S^2, n) = PGL(2, C) x F(C minus {0,1},
      n - 3), by the Moebius map sending points 1, 2, 3 to 0, 1, infinity
      (Feichtner-Ziegler, Doc. Math. 5 (2000)), and PGL(2, C) ~ SO(3);
      over GF(2), zcl >= 3 + 2(n - 3), the SO(3) factor by abar^3 on
      H*(SO(3); GF(2)) = GF(2)[a]/(a^4) (Farber-Tabachnikov-Yuzvinsky,
      IMRN 2003);
    - the closed surfaces of genus >= 2: the genus2 family on the model,
      by zcl_bound.
    The splittings are Fadell-Neuwirth's.  A product certificate's length
    is the sum of its factors': nonzero zero-divisor products of the
    factors multiply to a nonzero one in the Kunneth tensor product over a
    field (Farber, Discrete Comput. Geom. 29 (2003)).
    """
    for value, low in ((g, 0), (n, 1), (m, 0)):
        _require_int(value, low, "need g >= 0, n >= 1, m >= 0")
    if m == 0 and g == 0:
        if n <= 2:
            chain = [TcFact("n <= 2 sphere configurations have the homotopy "
                            "type of the sphere; tc(S^2) = 3", 3, "cited")]
            label = (f"H*(S^2) = Q[u]/(u^2), pulled back to F(S^2, {n}) "
                     "along the projection to point 1")
            return (3, chain, ("totaro", {"g": 0, "n": n}),
                    lambda: TruncatedPowerCertificate(label, 2, 1, 2))
        chain = [
            TcFact("tc(SO(3)) = cat(SO(3)) = 4", 4, "cited"),
            TcFact(f"tc of {n - 3} points in the twice-punctured plane "
                   f"is 2({n - 3}) + 1 = {2 * n - 5}", 2 * n - 5, "cited"),
            TcFact(f"frame splitting: tc <= 4 + {2 * n - 5} - 1",
                   2 * n - 2, "product"),
        ]
        return (2 * n - 2, chain, ("sphere-mod2", {"n": n}),
                lambda: _sphere_product(n))
    if m == 0 and g == 1:
        chain = [TcFact("tc of the torus = 3", 3, "cited")]
        if n > 1:
            chain += _dim_facts(
                f"configurations of {n - 1} points on the once-punctured torus",
                n - 1)
            chain.append(TcFact(
                f"bundle splitting over the torus: tc <= 3 + {2 * n - 1} - 1",
                2 * n + 1, "product"))
        return (2 * n + 1, chain, ("totaro", {"g": 1, "n": n}),
                lambda: handle_tori(n))
    if m == 0:
        chain = _dim_facts(f"configurations of {n} points on a genus-{g} surface",
                           n + 1)
        model = ("b-sigma", {"g": g, "n": n})
        return 2 * n + 3, chain, model, _by_model(model)
    if g == 0 and m == 1:
        if n == 1:
            return (1, _dim_facts("the plane (contractible)", 0),
                    ("arnold", {"n": 1}), lambda: _planar_product(1, 0))
        chain = [TcFact(f"tc of {n} points in the plane is 2n - 2",
                        2 * n - 2, "cited")]
        return (2 * n - 2, chain, ("arnold", {"n": n}),
                lambda: _planar_product(n, 0))
    if g == 0 and m == 2:
        chain = [TcFact(f"tc of {n} points in the once-punctured plane is 2n",
                        2 * n, "cited")]
        return (2 * n, chain, ("punctured-plane", {"n": n, "punctures": 1}),
                lambda: _planar_product(n, 1))
    chain = _dim_facts(f"configurations of {n} points on an open surface", n)
    if g == 0:
        model = ("punctured-plane", {"n": n, "punctures": m - 1})
        return 2 * n + 1, chain, model, lambda: puncture_loops(n)
    return 2 * n + 1, chain, None, lambda: handle_tori(n)


def _loop_factor(n: int, field=QQ) -> list:
    """The factor F(C minus {0,1}, n) and its puncture-loop certificate,
    when it has points."""
    return [(f"F(C minus {{0,1}}, {n})", puncture_loops(n, field))] if n else []


def _planar_product(n: int, punctures: int):
    """The splittings of the plane: F(C, n) = C x C* x F(C minus {0,1},
    n - 2) for n >= 2 and F(C, 1) = C; with one puncture,
    F(C minus 0, n) = C* x F(C minus {0,1}, n - 1)."""
    if punctures:
        split, rest = f"F(C minus 0, {n}) = C*", n - 1
    elif n == 1:
        return ProductCertificate("F(C, 1) = C", [])
    else:
        split, rest = f"F(C, {n}) = C x C*", n - 2
    return ProductCertificate(f"{split} x F(C minus {{0,1}}, {rest})",
                              [("C*", circle())] + _loop_factor(rest))


def _by_model(model):
    """certify() by zcl_bound on the (token, options) model: its family."""
    def certify():
        from .zcl import zcl_bound
        return zcl_bound(*model, "certificate")
    return certify


def _sphere_product(n: int):
    """SO(3) x F(C minus {0,1}, n - 3) over GF(2); the SO(3) factor is
    abar^3 on H*(SO(3); GF(2)) = GF(2)[a]/(a^4), |a| = 1."""
    so3 = TruncatedPowerCertificate("Z2[a]/(a^4)", 1, 3, 3, GF2)
    split = (f"F(S^2, {n}) = PGL(2,C) x F(C minus {{0,1}}, {n - 3}), "
             "PGL(2,C) ~ SO(3)")
    return ProductCertificate(split, [("SO(3)", so3)] + _loop_factor(n - 3, GF2))


def upper_bound(g: int, n: int, m: int = 0):
    """Best encoded upper bound and the fact chain that produces it."""
    chain = _family(g, n, m)[1]
    return chain[-1].value, chain


def _certificate_facts(cert, space: str = "") -> list:
    """The derived facts of a certificate; a product's factors first, then
    its sum."""
    z = cert.certified_length
    if isinstance(cert, ProductCertificate):
        facts = [f for part, c in cert.factors
                 for f in _certificate_facts(c, part)]
        terms = " + ".join(str(c.certified_length) for _, c in cert.factors)
        return facts + [TcFact(f"product inequality over {cert.splitting}: "
                               f"zcl >= {terms or 0}", z, "product")]
    if isinstance(cert, ToricCertificate):
        text = (f"nonzero {z}-fold zero-divisor product restricted to the tori "
                f"{cert.tori}: {cert.value_str()}")
    else:
        text = (f"nonzero {z}-fold zero-divisor product on {cert.algebra} "
                f"(coefficient {cert.coefficient})")
    return [TcFact(f"{space}: {text}" if space else text, z, "derived")]


def _lower(model, certify, method: str):
    """(zcl lower bound, facts): the model's zcl by zcl_bound when exact,
    with no cap, so the bound order is checked; else the length of the
    certificate certify() builds."""
    if method == "exact":
        from .zcl import zcl_bound

        result = zcl_bound(*model, "exact")
        z = result.value
        facts = [TcFact(f"zcl({result.algebra}) = {z} by exact power iteration",
                        z, "derived")]
    else:
        cert = certify()
        z = cert.certified_length
        facts = _certificate_facts(cert)
    return z, facts + [TcFact("tc >= zcl + 1", z + 1, "derived")]


class TcReport:
    def __init__(self, g: int, n: int, m: int, lower: int | None, upper: int,
                 theorem: int, status: str, method: str, facts: list,
                 product_tc: int):
        self.g, self.n, self.m = g, n, m
        self.lower = lower
        self.upper = upper
        self.theorem = theorem
        self.status = status  # tight | gap | unverified | over-budget
        self.method = method
        self.facts = facts
        self.product_tc = product_tc

    def to_json(self):
        return {
            "g": self.g, "n": self.n, "m": self.m,
            "lower": self.lower, "upper": self.upper, "theorem": self.theorem,
            "status": self.status, "method": self.method,
            "product_space_tc": self.product_tc,
            "facts": [f.to_json() for f in self.facts],
        }

    def table_row(self):
        lo = "?" if self.lower is None else str(self.lower)
        return (f"g={self.g} n={self.n} m={self.m}  "
                f"lower={lo} upper={self.upper} theorem={self.theorem}  "
                f"product={self.product_tc}  {self.status}")


def tc_report(g: int, n: int, m: int = 0,
              method: str = "certificate") -> TcReport:
    """Full report for one input; see the module docstring for the contract."""
    theorem, chain, model, certify = _family(g, n, m)
    ptc = product_space_tc(g, n)
    if method not in ("certificate", "exact"):
        raise AlgebraError(f"unknown method: {method}")
    if method == "exact" and model is None:
        return _row_without_lower(g, n, m, "unverified", "unverified",
                                  "no model algebra is wired for this input")
    zlow, lfacts = _lower(model, certify, method)
    lower, upper = zlow + 1, chain[-1].value
    if not (lower <= theorem <= upper):
        raise ModelInconsistencyError(
            f"bound order violated at (g={g}, n={n}, m={m}): "
            f"{lower} <= {theorem} <= {upper} fails")
    status = "tight" if lower == theorem == upper else "gap"
    return TcReport(g, n, m, lower, upper, theorem, status, method,
                    lfacts + chain, ptc)


def _row_without_lower(g, n, m, status, method, reason) -> TcReport:
    """A row with no lower bound: the reason, then the upper-bound facts."""
    theorem, chain = _family(g, n, m)[:2]
    note = TcFact(f"{reason}; closed-form value shown unverified", theorem, "cited")
    return TcReport(g, n, m, None, chain[-1].value, theorem, status, method,
                    [note] + chain, product_space_tc(g, n))


def sweep(gmax: int, nmax: int, mmax: int = 0, method: str = "certificate"):
    """Reports for every 0 <= g <= gmax, 1 <= n <= nmax, 0 <= m <= mmax."""
    for value, low in ((gmax, 0), (nmax, 1), (mmax, 0)):
        _require_int(value, low, "need gmax >= 0, nmax >= 1, mmax >= 0")
    out = []
    for g in range(gmax + 1):
        for n in range(1, nmax + 1):
            for m in range(mmax + 1):
                try:
                    out.append(tc_report(g, n, m, method=method))
                except ResourceBudgetError as err:
                    out.append(_row_without_lower(g, n, m, "over-budget",
                                                  method, str(err)))
                except UnsupportedModelError as err:
                    out.append(_row_without_lower(g, n, m, "unverified",
                                                  "unverified", str(err)))
    return out


def all_tight(reports) -> bool:
    """True when no row shows a gap; unverified and over-budget rows pass."""
    return all(r.status != "gap" for r in reports)
