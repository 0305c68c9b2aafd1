"""Run one tcsurf CLI job with spans around the public functions of each module.

    PYTHONPATH=src python bench/trace_job.py TRACE.json tc --sweep 2 4 0 --json

The job prints what `python -m tcsurf` would print and exits with the same
code.  TRACE.json receives the spans, their per-name summary and the counts.
`layer_metrics` turns summaries and counts summed over a pass into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, patch_function  # noqa: E402

FIELDS = ("q", "gf2")
MODEL_BUILDERS = ("surface_cohomology", "arnold_algebra",
                  "punctured_plane_algebra", "totaro_algebra",
                  "genus2_B_algebra", "so3_mod2_algebra", "sphere_mod2_model")


def _field_tag(field) -> str:
    return "gf2" if field.char == 2 else "q"


def install(tracer: Tracer):
    """Wrap the traced functions and methods.

    Returns the wrapped cli.main and the lru_cache'd model builders.

    fields is not wrapped: its calls are too fine to time without distorting
    the timings.  Its cost shows in the linalg.q / linalg.gf2 split and in
    presentation.tensor_multiply.
    """
    import tcsurf  # noqa: F401  (imports every module, so all bindings exist)
    from tcsurf import (cli, exterior, groebner, linalg, models, presentation,
                        tcreport, zcl)

    def fn(module, attr, name, observe=None):
        patch_function("tcsurf", module, attr,
                       tracer.timed(getattr(module, attr), name, observe))

    def method(cls, attr, name, observe=None):
        setattr(cls, attr, tracer.timed(getattr(cls, attr), name, observe))

    def quotient_built(t, args, _):
        q = args[0]
        t.add("presentation.free_monomials", sum(len(ix) for ix in q.index))
        t.add("presentation.basis_dims", sum(q.dims))

    cached = [getattr(models, b) for b in MODEL_BUILDERS
              if hasattr(getattr(models, b), "cache_info")]

    fn(cli, "main", "cli.main")
    fn(tcreport, "tc_report", "tcreport.tc_report",
       lambda t, a, r: t.add("tcreport.rows_tight", int(r.status == "tight")))
    for b in MODEL_BUILDERS:
        fn(models, b, "models.build")
    # a model builder that lives in zcl: counted with the builders
    fn(zcl, "mod_ideal_quotient", "models.build")
    method(presentation.QuotientAlgebra, "__init__", "presentation.quotient",
           quotient_built)
    method(presentation.QuotientAlgebra, "reduce_free",
           "presentation.reduce_free")
    method(presentation.TensorSquareAlgebra, "__init__",
           "presentation.tensor_square",
           lambda t, a, r: t.add("presentation.tensor_pairs", sum(a[0].dims)))
    method(presentation.TensorSquareAlgebra, "multiply",
           "presentation.tensor_multiply")
    fn(linalg, "echelonize",
       lambda args: f"linalg.{_field_tag(args[0])}.echelonize")
    for tag, cls in (("q", linalg.RationalSubspace), ("gf2", linalg.Gf2Subspace)):
        method(cls, "insert", f"linalg.{tag}.insert",
               lambda t, a, r, tag=tag: t.add(f"linalg.{tag}.rank_total",
                                              int(bool(r))))
        method(cls, "finalize", f"linalg.{tag}.finalize")
        method(cls, "reduce", f"linalg.{tag}.reduce")
    method(exterior.FreeAlgebra, "monomials_of_degree",
           "exterior.monomials_of_degree")
    method(exterior.FreeAlgebra, "multiply", "exterior.multiply")
    setattr(exterior.FreeAlgebra, "mul_mon", tracer.counted(
        exterior.FreeAlgebra.mul_mon, "exterior.mul_mon_calls"))
    fn(zcl, "zcl_exact", "zcl.zcl_exact")
    for attr in ("case_certificate", "bar_product_certificate"):
        fn(zcl, attr, "zcl.certificate",
           lambda t, a, r: t.add("zcl.certified_length", r.certified_length))
    fn(groebner, "buchberger_check", "groebner.buchberger_check",
       lambda t, a, r: t.add("groebner.spairs", len(r.spair_log)))
    fn(groebner, "reduce_element", "groebner.reduce_element")
    fn(groebner, "s_polynomial", "groebner.s_polynomial")
    return cli.main, cached


# -- per-layer metrics -------------------------------------------------------

_NONE = (0, 0.0, 0.0)


def _calls(span):
    return lambda spans, counts: spans.get(span, _NONE)[0]


def _self_s(span):
    return lambda spans, counts: spans.get(span, _NONE)[1]


def _total_s(span):
    return lambda spans, counts: spans.get(span, _NONE)[2]


def _count(key):
    return lambda spans, counts: counts.get(key, 0)


def _ratio(num, den):
    def get(spans, counts):
        d = den(spans, counts)
        return num(spans, counts) / d if d else 0.0
    return get


def _layer_table():
    """(metric, unit, better, getter) for every per-layer metric but overhead."""
    t = [
        ("cli.main_s", "s", "lower", _total_s("cli.main")),
        ("cli.self_s", "s", "lower", _self_s("cli.main")),
        ("tcreport.tc_report_calls", "count", "lower", _calls("tcreport.tc_report")),
        ("tcreport.tc_report_s", "s", "lower", _self_s("tcreport.tc_report")),
        ("tcreport.rows_tight", "count", "higher", _count("tcreport.rows_tight")),
        ("models.build_calls", "count", "lower", _calls("models.build")),
        ("models.build_s", "s", "lower", _self_s("models.build")),
        ("models.cache_hits", "count", "higher", _count("models.cache_hits")),
        ("models.cache_hit_ratio", "1", "higher",
         _ratio(_count("models.cache_hits"), lambda s, c: (
             c.get("models.cache_hits", 0) + c.get("models.cache_misses", 0)))),
        ("presentation.quotient_calls", "count", "lower",
         _calls("presentation.quotient")),
        ("presentation.quotient_s", "s", "lower", _self_s("presentation.quotient")),
        ("presentation.free_monomials", "count", "lower",
         _count("presentation.free_monomials")),
        ("presentation.basis_per_free", "1", "higher",
         _ratio(_count("presentation.basis_dims"),
                _count("presentation.free_monomials"))),
        ("presentation.tensor_square_s", "s", "lower",
         _self_s("presentation.tensor_square")),
        ("presentation.tensor_pairs", "count", "lower",
         _count("presentation.tensor_pairs")),
        ("presentation.tensor_multiply_calls", "count", "lower",
         _calls("presentation.tensor_multiply")),
        ("presentation.tensor_multiply_s", "s", "lower",
         _self_s("presentation.tensor_multiply")),
        ("presentation.reduce_free_calls", "count", "lower",
         _calls("presentation.reduce_free")),
        ("presentation.reduce_free_s", "s", "lower",
         _self_s("presentation.reduce_free")),
    ]
    for f in FIELDS:
        p = f"linalg.{f}."
        t += [
            (p + "echelonize_calls", "count", "lower", _calls(p + "echelonize")),
            (p + "finalize_calls", "count", "lower", _calls(p + "finalize")),
            (p + "finalize_s", "s", "lower", _self_s(p + "finalize")),
            (p + "insert_calls", "count", "lower", _calls(p + "insert")),
            (p + "insert_s", "s", "lower", _self_s(p + "insert")),
            (p + "insert_useful_ratio", "1", "higher",
             _ratio(_count(p + "rank_total"), _calls(p + "insert"))),
            (p + "reduce_calls", "count", "lower", _calls(p + "reduce")),
            (p + "reduce_s", "s", "lower", _self_s(p + "reduce")),
            (p + "rank_total", "count", "lower", _count(p + "rank_total")),
        ]
    t += [
        ("exterior.monomials_of_degree_calls", "count", "lower",
         _calls("exterior.monomials_of_degree")),
        ("exterior.monomials_of_degree_s", "s", "lower",
         _self_s("exterior.monomials_of_degree")),
        ("exterior.multiply_s", "s", "lower", _self_s("exterior.multiply")),
        ("exterior.mul_mon_calls", "count", "lower",
         _count("exterior.mul_mon_calls")),
        ("zcl.zcl_exact_calls", "count", "lower", _calls("zcl.zcl_exact")),
        ("zcl.zcl_exact_s", "s", "lower", _self_s("zcl.zcl_exact")),
        ("zcl.certificate_calls", "count", "lower", _calls("zcl.certificate")),
        ("zcl.certificate_s", "s", "lower", _self_s("zcl.certificate")),
        ("zcl.certified_length", "count", "higher", _count("zcl.certified_length")),
        ("groebner.buchberger_check_s", "s", "lower",
         _self_s("groebner.buchberger_check")),
        ("groebner.reduce_element_calls", "count", "lower",
         _calls("groebner.reduce_element")),
        ("groebner.reduce_element_s", "s", "lower",
         _self_s("groebner.reduce_element")),
        ("groebner.s_polynomial_calls", "count", "lower",
         _calls("groebner.s_polynomial")),
        ("groebner.spairs", "count", "lower", _count("groebner.spairs")),
    ]
    return t


LAYER_METRICS = _layer_table()


def layer_metrics(spans, counts):
    """Per-layer metric values from summaries and counts summed over a pass."""
    return {name: get(spans, counts) for name, _, _, get in LAYER_METRICS}


def merge_into(total, trace):
    """Add one job's trace summary and counts into a pass total."""
    spans, counts = total
    for name, (calls, self_s, total_s) in trace["summary"].items():
        row = spans.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += self_s
        row[2] += total_s
    for name, k in trace["counts"].items():
        counts[name] = counts.get(name, 0) + k


def main(argv):
    out_path, job_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli_main, cached = install(tracer)
    rc = None
    try:
        rc = cli_main(job_argv)
    finally:
        for builder in cached:
            info = builder.cache_info()
            tracer.add("models.cache_hits", info.hits)
            tracer.add("models.cache_misses", info.misses)
        with open(out_path, "w") as fh:
            json.dump({"exit": rc, "summary": tracer.summary(),
                       "counts": tracer.counts, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
