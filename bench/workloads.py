"""Workloads of the tcsurf benchmark: fixed CLI job lists and their answers.

Every job is one `python -m tcsurf <argv> --json` invocation.  Each job
carries a frozen answer, and `check` compares the job's JSON with it and
with the closed forms below.  The closed forms are copied here rather than
imported from the package, so that a change to the package cannot move the
yardstick it is measured with; `test_selftest.py` checks that this copy
agrees with `tcsurf.tcreport.tc_theorem`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb


def tc_closed(g: int, n: int, m: int = 0) -> int:
    """Closed-form tc of F(Sigma_g minus m points, n), the paper's table."""
    if m == 0:
        if g == 0:
            return 3 if n <= 2 else 2 * n - 2
        return 2 * n + 1 if g == 1 else 2 * n + 3
    if g == 0:
        if m == 1:
            return 1 if n == 1 else 2 * n - 2
        if m == 2:
            return 2 * n
    return 2 * n + 1


def torus_ideal_hilbert(n: int) -> list:
    """Coefficients of (1 + t)^n (1 + n t), the torus-ideal quotient series."""
    return [comb(n, d) + n * (comb(n, d - 1) if d else 0) for d in range(n + 2)]


@dataclass(frozen=True)
class Job:
    """One CLI invocation (without `--json`) and the answer it must give."""
    argv: tuple
    kind: str       # tc-rows | zcl | certificate | groebner
    expected: object
    closed: object  # the same answer derived from the closed forms

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _tc_rows(gmax, nmax, mmax):
    """Frozen-format rows (g, n, m, lower, upper, theorem, status)."""
    return [(g, n, m, t, t, t, "tight")
            for g in range(gmax + 1) for n in range(1, nmax + 1)
            for m in range(mmax + 1) for t in [tc_closed(g, n, m)]]


# Frozen answers, written out as the seed commit printed them.  Every one is
# also derived from the closed forms (the `closed` field of each job).
TC_SWEEP_2_4_0 = [
    (0, 1, 0, 3, 3, 3, "tight"), (0, 2, 0, 3, 3, 3, "tight"),
    (0, 3, 0, 4, 4, 4, "tight"), (0, 4, 0, 6, 6, 6, "tight"),
    (1, 1, 0, 3, 3, 3, "tight"), (1, 2, 0, 5, 5, 5, "tight"),
    (1, 3, 0, 7, 7, 7, "tight"), (1, 4, 0, 9, 9, 9, "tight"),
    (2, 1, 0, 5, 5, 5, "tight"), (2, 2, 0, 7, 7, 7, "tight"),
    (2, 3, 0, 9, 9, 9, "tight"), (2, 4, 0, 11, 11, 11, "tight"),
]
TC_SWEEP_0_4_3 = [
    (0, 1, 0, 3, 3, 3, "tight"), (0, 1, 1, 1, 1, 1, "tight"),
    (0, 1, 2, 2, 2, 2, "tight"), (0, 1, 3, 3, 3, 3, "tight"),
    (0, 2, 0, 3, 3, 3, "tight"), (0, 2, 1, 2, 2, 2, "tight"),
    (0, 2, 2, 4, 4, 4, "tight"), (0, 2, 3, 5, 5, 5, "tight"),
    (0, 3, 0, 4, 4, 4, "tight"), (0, 3, 1, 4, 4, 4, "tight"),
    (0, 3, 2, 6, 6, 6, "tight"), (0, 3, 3, 7, 7, 7, "tight"),
    (0, 4, 0, 6, 6, 6, "tight"), (0, 4, 1, 6, 6, 6, "tight"),
    (0, 4, 2, 8, 8, 8, "tight"), (0, 4, 3, 9, 9, 9, "tight"),
]
GB_HILBERT_9 = [1, 18, 117, 408, 882, 1260, 1218, 792, 333, 82, 9]
GB_HILBERT_8 = [1, 16, 92, 280, 518, 616, 476, 232, 65, 8]


def _zcl(argv, value, closed):
    return Job(tuple(argv), "zcl", {"value": value, "exact": True},
               {"value": closed, "exact": True})


# Sizes sit at the frontier edge and not past it: sphere_mod2_model(7) is
# killed for memory, and `tc --sweep 0 5 3` runs for more than ten minutes.
WORKLOADS = {
    "tc-table": {
        "why": ("the paper's deliverable through the user path: quotient "
                "construction (linalg finalize over Q and GF(2)) dominates, "
                "many models are built in one process, and "
                "mod-ideal n=5 sets the memory peak"),
        "jobs": [
            Job(("tc", "--sweep", "2", "4", "0"), "tc-rows",
                TC_SWEEP_2_4_0, _tc_rows(2, 4, 0)),
            Job(("tc", "--sweep", "0", "4", "3"), "tc-rows",
                TC_SWEEP_0_4_3, _tc_rows(0, 4, 3)),
            # case_certificate's punctured-mod-ideal family has length 2n
            Job(("zcl", "--model", "mod-ideal", "--n", "5",
                 "--method", "certificate"), "certificate",
                {"value": 10, "exact": False}, {"value": 2 * 5, "exact": False}),
        ],
    },
    "zcl-exact": {
        "why": ("tensor-square power iteration (TensorSquareAlgebra.multiply "
                "and Fraction) on tiny models; linalg is used by incremental "
                "insert, not batch finalize: the no-change workload for "
                "echelon work"),
        "jobs": [
            # zcl = tc - 1 on each of these models
            _zcl(("zcl", "--model", "totaro", "--g", "1", "--n", "4"), 8,
                 tc_closed(1, 4) - 1),
            _zcl(("zcl", "--model", "b-sigma", "--n", "3"), 8,
                 tc_closed(2, 3) - 1),
            _zcl(("zcl", "--model", "totaro", "--g", "2", "--n", "2"), 6,
                 tc_closed(2, 2) - 1),
            # the plane minus 2 points is the sphere minus 3 points
            _zcl(("zcl", "--model", "punctured-plane", "--n", "3",
                  "--punctures", "2"), 6, tc_closed(0, 3, 3) - 1),
        ],
    },
    "groebner": {
        "why": ("only groebner and exterior monomial enumeration, with no "
                "quotient, tensor or linalg work: the no-change workload for "
                "everything the other two exercise"),
        "jobs": [
            Job(("groebner-check", "--model", "torus-ideal", "--n", "9"),
                "groebner", GB_HILBERT_9, torus_ideal_hilbert(9)),
            Job(("groebner-check", "--model", "torus-ideal", "--n", "8"),
                "groebner", GB_HILBERT_8, torus_ideal_hilbert(8)),
        ],
    },
}


def _answer(kind: str, out):
    """The part of a job's JSON output that its frozen answer covers."""
    if kind == "tc-rows":
        return [(r["g"], r["n"], r["m"], r["lower"], r["upper"],
                 r["theorem"], r["status"]) for r in out]
    if kind in ("zcl", "certificate"):
        if out["quantity"] != "zcl":
            raise ValueError(f"quantity {out['quantity']!r}, expected 'zcl'")
        if kind == "certificate" and Fraction(out["coefficient"]) == 0:
            raise ValueError("certificate with a zero witness coefficient")
        return {"value": out["value"], "exact": out["exact"]}
    if kind == "groebner":
        if out["is_groebner"] is not True:
            raise ValueError("is_groebner is not true")
        return out["hilbert"]
    raise ValueError(f"unknown job kind {kind!r}")


def check(job: Job, stdout: str):
    """None when the output is right, else a one-line reason.

    Never raises: malformed output is a failed job, not a harness crash.
    """
    try:
        got = _answer(job.kind, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    expected = job.expected
    if job.kind == "tc-rows":
        expected = [tuple(r) for r in expected]
    if got != expected:
        return f"answer {got!r} differs from the frozen answer {expected!r}"
    if got != job.closed:
        return f"answer {got!r} differs from the closed form {job.closed!r}"
    return None
