"""Exact-arithmetic cohomology models and topological-complexity bounds
for configuration spaces of surfaces.

The package builds presented graded-commutative algebras over Q or GF(2),
takes quotients with exact linear algebra, and extracts cup-length style
invariants: zero-divisor cup length (zcl) lower bounds for tc, certified
by explicit nonzero products, cross-checked against closed-form tables,
Hilbert series oracles, and a Groebner-basis verification of the torus
relation ideal.
"""

from .errors import (AlgebraError, CertificateError, HomogeneityError,
                     MismatchError, ModelInconsistencyError,
                     NotPoincareDualityError, ResourceBudgetError,
                     TruncationError, UnsupportedModelError)
from .fields import GF2, QQ
from .exterior import Element, FreeAlgebra
from .presentation import (AlgebraPresentation, DualityData, QuotientAlgebra,
                           TensorSquareAlgebra, convolve, diagonal_class,
                           duality_data, hilbert_series, quotient,
                           tensor_square)
from .models import (ReducedGenerators, arnold_algebra, genus2_B_algebra,
                     punctured_plane_algebra, reduced_generators,
                     resolve_model, so3_mod2_algebra, sphere_mod2_model,
                     surface_cohomology, surface_diagonal, totaro_algebra)
from .zcl import (BoundReport, E2Report, ZclCertificate,
                  bar_product_certificate, bar_generators, case_certificate,
                  certificate_product, cup_length, e2_probe,
                  mod_ideal_quotient, zcl_exact)
from .groebner import (GbReport, TermOrder, buchberger_check, gb_hilbert,
                       reduce_element, s_polynomial, torus_ideal,
                       torus_ideal_check)
from .tcreport import (TcFact, TcReport, all_tight, product_space_tc, sweep,
                       tc_report, tc_theorem, upper_bound)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "CertificateError", "HomogeneityError", "MismatchError",
    "ModelInconsistencyError", "NotPoincareDualityError",
    "ResourceBudgetError", "TruncationError", "UnsupportedModelError",
    "GF2", "QQ", "Element", "FreeAlgebra",
    "AlgebraPresentation", "DualityData", "QuotientAlgebra",
    "TensorSquareAlgebra", "convolve", "diagonal_class", "duality_data",
    "hilbert_series", "quotient", "tensor_square",
    "ReducedGenerators", "arnold_algebra", "genus2_B_algebra",
    "punctured_plane_algebra", "reduced_generators", "resolve_model",
    "so3_mod2_algebra", "sphere_mod2_model", "surface_cohomology",
    "surface_diagonal", "totaro_algebra",
    "BoundReport", "E2Report", "ZclCertificate", "bar_product_certificate",
    "bar_generators", "case_certificate", "certificate_product",
    "cup_length", "e2_probe", "mod_ideal_quotient",
    "zcl_exact",
    "GbReport", "TermOrder", "buchberger_check", "gb_hilbert",
    "reduce_element", "s_polynomial", "torus_ideal", "torus_ideal_check",
    "TcFact", "TcReport", "all_tight", "product_space_tc", "sweep",
    "tc_report", "tc_theorem", "upper_bound",
]
