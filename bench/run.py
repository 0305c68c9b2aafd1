"""The tcsurf benchmark.

    python3 bench/run.py --workload tc-table --seed 1 --seconds 30 --trace 0

A closed loop with one client: this harness starts one `python -m tcsurf ...
--json` job at a time (PYTHONPATH=src) and waits for it, so each job pays
interpreter start-up and rebuilds the lru_cache'd models the way a CLI user
does.  A pass runs every job of the workload once, in an order shuffled by
the seed; passes repeat while the next one still fits in --seconds (at least
one pass).  Each job's JSON is checked against its frozen answer (see
workloads.py); a wrong answer, wrong exit code, traceback or timeout is a
failed job and never stops the harness.

--trace 0 reports the end-to-end metrics, each the median over passes:
  wall_s       wall time of the jobs of one pass
  cpu_s        user + system CPU of the job processes of one pass
  peak_rss_mb  largest max-RSS of any job process of the pass
  setup_s      start-up cost every job pays: before each job a fresh
               interpreter runs `python -m tcsurf --help`; summed per pass
  ok_ratio     jobs whose output was right / jobs attempted in the run
               (1 - fail_ratio; fail_ratio is printed in the summary)
--trace 1 alternates an untraced pass with a traced one, in which every job
runs under trace_job.py, and reports the per-layer metrics (medians over
traced passes) and tracing_overhead_s, the traced minus the untraced wall_s.

Times are in reference-speed seconds.  The speed of a shared machine drifts
by tens of percent within seconds to minutes, so a fixed reference program
(calibrate.py) runs in a fresh interpreter before each pass and once per
REF_EVERY_S seconds of job time.  Every time of a run is multiplied by REF_S
over the mean reference time of that run.  The summary line also prints the
unscaled wall time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from trace_job import LAYER_METRICS, layer_metrics, merge_into  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_ratio", "1"))
# About the mean time of one reference run on the machine the baseline was
# taken on (2-CPU x86-64 KVM guest, Python 3.11.7).
REF_S = 0.6
REF_EVERY_S = 4.0
# A run must exit within 180 s; no job is started or kept running past this.
DEADLINE_S = 170.0


class HarnessError(Exception):
    """The benchmark itself cannot measure: no result is printed."""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    timed_out: bool


@dataclass
class JobRun:
    wall: float
    cpu: float
    rss_mb: float
    error: str | None
    trace: dict | None = None


class Runner:
    """Starts the processes of one benchmark run, one at a time."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.seq = 0
        self.reference_walls = []

    def _base(self) -> Path:
        self.seq += 1
        return self.workdir / f"p{self.seq:05d}"

    def spawn(self, cmd, base: Path = None) -> tuple:
        """Run cmd to completion; returns (Proc, stdout path, stderr path)."""
        base = base or self._base()
        out_path, err_path = base.with_suffix(".out"), base.with_suffix(".err")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Proc(0.0, 0.0, 0.0, -1, True), out_path, err_path
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            killed = []
            timer = threading.Timer(timeout, lambda: (killed.append(1),
                                                      proc.kill()))
            timer.start()
            try:
                # wait4 gives this child's own CPU time and max-RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (Proc(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, proc.returncode, bool(killed)),
                out_path, err_path)

    def reference(self, count=1):
        for _ in range(count):
            p, _, _ = self.spawn([sys.executable, str(BENCH / "calibrate.py")])
            if p.timed_out:  # past the deadline: the run is ending anyway
                return
            if p.exit != 0:
                raise HarnessError(f"reference run exited with {p.exit}")
            self.reference_walls.append(p.wall)

    def speed_scale(self) -> float:
        return REF_S / statistics.mean(self.reference_walls)

    def setup_probe(self) -> Proc:
        return self.spawn([sys.executable, "-m", "tcsurf", "--help"])[0]

    def job(self, job, traced: bool) -> JobRun:
        argv = [*job.argv, "--json"]
        base = self._base()
        trace_path = base.with_suffix(".trace.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_job.py"), str(trace_path),
                   *argv]
        else:
            cmd = [sys.executable, "-m", "tcsurf", *argv]
        p, out, err = self.spawn(cmd, base)
        if p.timed_out:
            error = "timed out"
        elif p.exit != 0:
            error = f"exit code {p.exit}"
        elif "Traceback (most recent call last)" in err.read_text(
                errors="replace"):
            error = "traceback on stderr"
        else:
            error = check(job, out.read_text(errors="replace"))
        trace = None
        if traced and error is None:
            try:
                trace = json.loads(trace_path.read_text())
                trace["path"] = trace_path
            except (OSError, ValueError) as e:
                error = f"no trace: {e}"
        return JobRun(p.wall, p.cpu, p.rss_mb, error, trace)


@dataclass
class Pass:
    """Unscaled totals of one pass."""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def run_pass(runner: Runner, jobs, rng: random.Random, traced=False,
             setup=True) -> Pass:
    order = list(jobs)
    rng.shuffle(order)
    p = Pass()
    runner.reference()
    owed = 0.0  # job time since the last reference run
    for job in order:
        probe = runner.setup_probe() if setup else None
        p.attempted += 1
        run = runner.job(job, traced)
        owed += run.wall
        due = int(owed // REF_EVERY_S)
        runner.reference(due)
        owed -= due * REF_EVERY_S
        if probe is not None:
            p.setup_s += probe.wall
            if probe.exit != 0:
                run.error = run.error or f"setup probe exit code {probe.exit}"
        p.wall_s += run.wall
        p.cpu_s += run.cpu
        p.peak_rss_mb = max(p.peak_rss_mb, run.rss_mb)
        if run.error is not None:
            p.failed += 1
            p.errors.append(f"{job.label}: {run.error}")
        elif run.trace is not None:
            p.traces.append(run.trace)
    return p


def repeat(step, seconds: float, deadline: float):
    """Run step() until the next one would end past --seconds or the deadline."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        took = time.perf_counter() - t0
        now = time.perf_counter()
        if now - start + took > seconds or now + took > deadline:
            return out


def _median(values, unit, scale=1.0):
    """(median, unit, values), times multiplied by the run's speed scale."""
    if unit == "s":
        values = [v * scale for v in values]
    return statistics.median(values), unit, values


def untraced(runner, jobs, rng, seconds, deadline):
    passes = repeat(lambda: run_pass(runner, jobs, rng), seconds, deadline)
    scale = runner.speed_scale()
    metrics = {name: _median([getattr(p, name) for p in passes], unit, scale)
               for name, unit in END_TO_END[:-1]}
    return passes, metrics


def traced(runner, jobs, rng, seconds, deadline, spans_dir: Path):
    pairs = repeat(lambda: (run_pass(runner, jobs, rng, setup=False),
                            run_pass(runner, jobs, rng, traced=True,
                                     setup=False)),
                   seconds, deadline)
    scale = runner.speed_scale()
    per_pass = []
    for _, t in pairs:
        if t.failed:
            continue
        total = ({}, {})
        for trace in t.traces:
            merge_into(total, trace)
        per_pass.append(layer_metrics(*total))
    metrics = {}
    if per_pass:
        for name, unit, _, _ in LAYER_METRICS:
            metrics[name] = _median([m[name] for m in per_pass], unit, scale)
    metrics["tracing_overhead_s"] = _median(
        [t.wall_s - u.wall_s for u, t in pairs], "s", scale)
    # keep the spans of the last traced pass for inspection
    last = pairs[-1][1].traces
    if last:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        for i, trace in enumerate(last):
            os.replace(trace["path"], spans_dir / f"job{i}.json")
    return [p for pair in pairs for p in pair], metrics


def preflight(runner: Runner):
    if not (ROOT / "src" / "tcsurf" / "__main__.py").is_file():
        raise HarnessError(f"no tcsurf package under {ROOT / 'src'}")
    probe = runner.setup_probe()  # also compiles the bytecode once
    if probe.exit != 0:
        raise HarnessError(f"`python -m tcsurf --help` exited with {probe.exit}")
    runner.reference()
    runner.reference_walls.clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="shuffles the job order of every pass")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    out_dir = ROOT / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, deadline)
        preflight(runner)
        jobs = WORKLOADS[args.workload]["jobs"]
        rng = random.Random(args.seed)
        if args.trace:
            passes, metrics = traced(runner, jobs, rng, args.seconds, deadline,
                                     out_dir / "spans" / args.workload)
        else:
            passes, metrics = untraced(runner, jobs, rng, args.seconds,
                                       deadline)
    except HarnessError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not args.trace:
        metrics["ok_ratio"] = _median([(attempted - failed) / attempted], "1")
    for p in passes:
        for e in p.errors:
            print(f"FAILED {e}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4g}  speed scale "
          f"{runner.speed_scale():.4f}  unscaled wall per pass "
          f"{statistics.median(p.wall_s for p in passes):.6g} s")
    for name, (value, unit, values) in metrics.items():
        lo, hi = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
                  else (value, value))
        print(f"  {name:38s} {value:14.6g} {unit:6s} "
              f"(median of {len(values)}, quartiles {lo:.6g} .. {hi:.6g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still kills its job and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
