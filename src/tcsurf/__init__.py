"""Exact-arithmetic cohomology models and topological-complexity bounds
for configuration spaces of surfaces.

The package builds presented graded-commutative algebras over Q or GF(2),
takes quotients with exact linear algebra, and extracts cup-length style
invariants: zero-divisor cup length (zcl) lower bounds for tc, certified
by explicit nonzero products, cross-checked against closed-form tables,
Hilbert series oracles, and a Groebner-basis verification of the torus
relation ideal.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, under the module that defines it.  A name is imported
# from its module on first use (PEP 562), so `import tcsurf` loads no
# submodule and each command line pays only for the layers it runs.
_EXPORTS = {
    "errors": ("AlgebraError", "CertificateError", "HomogeneityError",
               "MismatchError", "ModelInconsistencyError",
               "ResourceBudgetError", "UnsupportedModelError"),
    "fields": ("GF2", "QQ"),
    "exterior": ("Element", "FreeAlgebra"),
    "presentation": ("AlgebraPresentation", "QuotientAlgebra",
                     "TensorSquareAlgebra", "WeightBlock", "block_reduce",
                     "convolve", "hilbert_series", "quotient",
                     "tensor_square", "weight_block", "weight_blocks"),
    "models": ("ReducedGenerators", "arnold_algebra", "genus2_B_algebra",
               "genus2_B_presentation", "mod_ideal_presentation",
               "punctured_plane_algebra", "reduced_generators",
               "resolve_model", "so3_mod2_algebra", "sphere_mod2_model",
               "surface_cohomology", "surface_diagonal", "totaro_algebra",
               "totaro_presentation"),
    "zcl": ("BoundReport", "E2Report", "ZclCertificate",
            "bar_product_certificate", "bar_generators", "case_certificate",
            "certificate_product", "cup_length", "e2_probe",
            "mod_ideal_quotient", "zcl_exact"),
    "groebner": ("GbReport", "TermOrder", "buchberger_check", "gb_hilbert",
                 "reduce_element", "s_polynomial", "torus_ideal",
                 "torus_ideal_check"),
    "tcreport": ("TcFact", "TcReport", "all_tight", "product_space_tc",
                 "sweep", "tc_report", "tc_theorem", "upper_bound"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
