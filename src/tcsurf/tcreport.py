"""Topological-complexity reports for configuration spaces of surfaces.

A report combines three independent numbers for F(Sigma_g minus m points, n):

  lower    1 + zcl of a cohomology model, certified by an explicit nonzero
           product of zero-divisors (or an exact zcl run),
  upper    the minimum over encoded fact chains: homotopy-dimension bounds
           tc <= 2 dim + 1 and fibration splittings tc <= tc(base) +
           tc(fiber) - 1 seeded with known constants,
  theorem  the closed-form value the two are expected to pinch.

One function, _family, names each row's family and gives its closed form,
its upper-bound fact chain and the model its lower bound is read from.
Upper bounds are encoded facts, not computations; every fact carries a kind
tag ("cited" for known inputs, "dimension" or "product" for the bound rule
applied, "derived" for values this package computed).  Status is "tight"
when lower = theorem = upper, "gap" otherwise, and "unverified" when no
model algebra is wired for the input (the closed form is still shown).
A sweep row whose model refuses the input is "unverified" too, with the
refusal as its first fact.  A sweep row whose model exceeds the quotient
budget is "over-budget": no lower bound, and the refusal, naming the
degree, as its first fact.
"""

from __future__ import annotations

from .errors import (AlgebraError, ModelInconsistencyError, ResourceBudgetError,
                     UnsupportedModelError, _require_int)
from .zcl import zcl_bound


class TcFact:
    """One ingredient of a bound: a constant, a rule instance, or a result."""

    def __init__(self, description: str, value: int, kind: str):
        self.description = description
        self.value = value
        self.kind = kind  # cited | dimension | product | derived

    def to_json(self):
        return {"description": self.description, "value": self.value,
                "kind": self.kind}


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
    """(closed-form tc, upper-bound fact chain, model) of the row's family.

    The chain's last fact is the bound.  The model is the (token, options)
    whose zcl bounds tc from below, or None when none is wired.
    """
    for value, low in ((g, 0), (n, 1), (m, 0)):
        _require_int(value, low, "need g >= 0, n >= 1, m >= 0")
    if m == 0 and g == 0:
        if n <= 2:
            chain = [TcFact("n <= 2 sphere configurations have the homotopy "
                            "type of the sphere; tc(S^2) = 3", 3, "cited")]
            return 3, chain, ("totaro", {"g": 0, "n": n})
        chain = [
            TcFact("tc(SO(3)) = cat(SO(3)) = 4", 4, "cited"),
            TcFact(f"tc of {n - 3} points in the twice-punctured plane "
                   f"is 2({n - 3}) + 1 = {2 * n - 5}", 2 * n - 5, "cited"),
            TcFact(f"frame splitting: tc <= 4 + {2 * n - 5} - 1",
                   2 * n - 2, "product"),
        ]
        return 2 * n - 2, chain, ("sphere-mod2", {"n": n})
    if m == 0 and g == 1:
        chain = [TcFact("tc of the torus = 3", 3, "cited")]
        if n > 1:
            chain += _dim_facts(
                f"configurations of {n - 1} points on the once-punctured torus",
                n - 1)
            chain.append(TcFact(
                f"bundle splitting over the torus: tc <= 3 + {2 * n - 1} - 1",
                2 * n + 1, "product"))
        return 2 * n + 1, chain, ("totaro", {"g": 1, "n": n})
    if m == 0:
        chain = _dim_facts(f"configurations of {n} points on a genus-{g} surface",
                           n + 1)
        return 2 * n + 3, chain, ("b-sigma", {"g": g, "n": n})
    if g == 0 and m == 1:
        if n == 1:
            return 1, _dim_facts("the plane (contractible)", 0), ("arnold", {"n": 1})
        chain = [TcFact(f"tc of {n} points in the plane is 2n - 2",
                        2 * n - 2, "cited")]
        return 2 * n - 2, chain, ("arnold", {"n": n})
    if g == 0 and m == 2:
        chain = [TcFact(f"tc of {n} points in the once-punctured plane is 2n",
                        2 * n, "cited")]
        return 2 * n, chain, ("punctured-plane", {"n": n, "punctures": 1})
    chain = _dim_facts(f"configurations of {n} points on an open surface", n)
    if g == 0 and m == 3:
        return 2 * n + 1, chain, ("punctured-plane", {"n": n, "punctures": 2})
    return 2 * n + 1, chain, None


def upper_bound(g: int, n: int, m: int = 0):
    """Best encoded upper bound and the fact chain that produces it."""
    chain = _family(g, n, m)[1]
    return chain[-1].value, chain


def _lower(theorem: int, model, method: str):
    """(zcl lower bound, facts) on the family's (token, options) model,
    by zcl_bound: uncapped when exact, so the bound order is checked; a
    search asks for at most tc - 1 bars and may fall short, a gap."""
    token, given = model
    cap = None if method == "exact" else theorem - 1
    result = zcl_bound(token, given, method, cap)
    if method == "exact":
        z = result.value
        text = f"zcl({result.algebra}) = {z} by exact power iteration"
    else:
        z = result.certified_length
        text = (f"nonzero {z}-fold zero-divisor product on {result.algebra} "
                f"(coefficient {result.coefficient})")
    return z, [TcFact(text, z, "derived"), TcFact("tc >= zcl + 1", z + 1, "derived")]


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
    theorem, chain, model = _family(g, n, m)
    ptc = product_space_tc(g, n)
    if method not in ("certificate", "exact"):
        raise AlgebraError(f"unknown method: {method}")
    if model is None:
        return _row_without_lower(g, n, m, "unverified", "unverified",
                                  "no model algebra is wired for this input")
    zlow, lfacts = _lower(theorem, model, method)
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
    theorem, chain, _ = _family(g, n, m)
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
