"""Command-line interface.

Subcommands:
  build           construct a model algebra, print its Hilbert series,
                  optionally dump or consume a presentation JSON file
  zcl             zero-divisor cup length, exact or by certificate search
  groebner-check  Buchberger verification of the torus relation ideal
  tc              topological-complexity report rows, single or swept

Exit codes: build/zcl return 0 on success; groebner-check returns 1 when
the set is not a Groebner basis; tc returns 1 when any computed row is not
tight (unverified and over-budget rows do not fail a sweep); usage and model
errors, and presentation files that cannot be read or parsed, return 2.

Each subcommand imports the layers it runs when it runs, and build and zcl
declare their options, whose model tokens and help come from MODELS, when
they parse: `tcsurf --help`, tc and groebner-check never load MODELS.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AlgebraError
from .fields import field_from_name

_FIELD_ALIASES = {"q": "Q", "qq": "Q", "rational": "Q",
                  "gf2": "GF2", "f2": "GF2", "mod2": "GF2"}


def _field_arg(tok):
    if tok is None:
        return None
    return field_from_name(_FIELD_ALIASES.get(tok.lower(), tok))


class _LazyParser(argparse.ArgumentParser):
    """A subcommand parser that runs declare(self) before its first parse."""

    def __init__(self, *args, declare=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            declare, self._declare = self._declare, None
            declare(self)
        return super().parse_known_args(args, namespace)


def _model_args(p: argparse.ArgumentParser, required: bool):
    from .models import MODELS

    def takers(option):
        return ", ".join(t for t, spec in MODELS.items() if option in spec.defaults)

    p.add_argument("--model", required=required, choices=tuple(MODELS))
    p.add_argument("--g", type=int, default=None, help="genus")
    p.add_argument("--n", type=int, default=None, help="number of points")
    p.add_argument("--punctures", type=int, default=None,
                   help=f"punctures of the plane ({takers('punctures')} only)")
    p.add_argument("--field", default=None,
                   help=f"q or gf2 ({takers('field')} only)")


def _build_args(b):
    # --model is not required when a file is given
    _model_args(b, required=False)
    b.add_argument("--presentation", default=None, metavar="FILE",
                   help="load a presentation JSON file instead of a builder")
    b.add_argument("--dump-presentation", default=None, metavar="FILE",
                   help="write the presentation JSON ('-' for stdout)")
    b.add_argument("--json", action="store_true")


def _zcl_args(z):
    _model_args(z, required=True)
    z.add_argument("--method", choices=("exact", "certificate"),
                   default="exact")
    z.add_argument("--cap", type=int, default=None,
                   help="stop the iteration or search at this length")
    z.add_argument("--json", action="store_true")


def _given(args):
    """The model options on the command line, None where absent."""
    return {"g": args.g, "n": args.n, "punctures": args.punctures,
            "field": _field_arg(args.field)}


def _cmd_build(args):
    from .models import resolve_model
    from .presentation import AlgebraPresentation, quotient

    given = _given(args)
    if args.presentation:
        if args.model or any(v is not None for v in given.values()):
            raise AlgebraError("--presentation takes no --model, --g, --n, "
                               "--punctures or --field")
        A = quotient(AlgebraPresentation.load(args.presentation))
    elif args.model is None:
        raise AlgebraError("build needs --model or --presentation")
    else:
        A = resolve_model(args.model, **given)
    pres = A.presentation
    if args.dump_presentation == "-":
        print(json.dumps(pres.to_json(), indent=2))
    elif args.dump_presentation:
        pres.dump(args.dump_presentation)
    info = {
        "model": "file" if args.presentation else args.model,
        "label": A.label,
        "field": A.field.name,
        "generators": [{"name": nm, "degree": dg}
                       for nm, dg in zip(A.free.names, A.free.degrees)],
        "relations": len(pres.relations),
        "hilbert": A.hilbert(),
        "total_dimension": sum(A.hilbert()),
        "exhaustive": A.exhaustive,
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"{info['label']}: field {info['field']}, "
              f"{len(info['generators'])} generators, "
              f"{info['relations']} relations")
        print(f"hilbert series: {info['hilbert']} "
              f"(total {info['total_dimension']})")
    return 0


def _cmd_zcl(args):
    from .zcl import zcl_bound

    report = zcl_bound(args.model, _given(args), args.method, args.cap).to_json()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        tag = "=" if report["exact"] else ">="
        print(f"zcl({report['algebra']}) {tag} {report['value']} "
              f"({report['method']})")
    return 0


def _cmd_groebner(args):
    from .groebner import gb_hilbert, torus_ideal_check

    rep = torus_ideal_check(args.n, args.order)
    if args.json:
        out = rep.to_json()
        if rep.is_groebner:
            out["hilbert"] = gb_hilbert(rep)
        print(json.dumps(out, indent=2))
    else:
        print(f"torus ideal n={args.n}, order {rep.order.describe()}")
        print(f"is_groebner: {rep.is_groebner} "
              f"({len(rep.spair_log)} S-pair reductions)")
        if rep.is_groebner:
            print(f"normal monomial counts: {gb_hilbert(rep)}")
    return 0 if rep.is_groebner else 1


def _print_tc_rows(rows, as_json):
    if as_json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        for r in rows:
            print(r.table_row())


def _cmd_tc(args):
    from .tcreport import all_tight, sweep, tc_report

    if args.sweep:
        if (args.g, args.n, args.m) != (None, None, None):
            raise AlgebraError("--sweep takes no --g, --n or --m")
        gmax, nmax, mmax = args.sweep
        rows = sweep(gmax, nmax, mmax, method=args.method)
    else:
        if args.n is None:
            raise AlgebraError("tc needs --n (and optionally --g, --m)")
        rows = [tc_report(args.g or 0, args.n, args.m or 0, method=args.method)]
    _print_tc_rows(rows, args.json)
    return 0 if all_tight(rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tcsurf",
        description="Exact cohomology models and topological-complexity "
                    "certificates for surface configuration spaces.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_LazyParser)

    b = sub.add_parser("build", help="construct a model algebra",
                       declare=_build_args)
    b.set_defaults(run=_cmd_build)

    z = sub.add_parser("zcl", help="zero-divisor cup length",
                       declare=_zcl_args)
    z.set_defaults(run=_cmd_zcl)

    gb = sub.add_parser("groebner-check", help="verify a Groebner basis")
    gb.add_argument("--model", default="torus-ideal", choices=("torus-ideal",))
    gb.add_argument("--n", type=int, required=True)
    gb.add_argument("--order", choices=("default", "reversed"),
                    default="default")
    gb.add_argument("--json", action="store_true")
    gb.set_defaults(run=_cmd_groebner)

    t = sub.add_parser("tc", help="topological-complexity report")
    t.add_argument("--g", type=int, default=None)
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--m", type=int, default=None)
    t.add_argument("--method", choices=("exact", "certificate"),
                   default="certificate")
    t.add_argument("--sweep", nargs=3, type=int, default=None,
                   metavar=("GMAX", "NMAX", "MMAX"))
    t.add_argument("--json", action="store_true")
    t.set_defaults(run=_cmd_tc)

    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (AlgebraError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
