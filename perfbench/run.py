#!/usr/bin/env python3
"""parax benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload {eta_study,pic_beam,cli_outputs}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Every
unit (set-up, one run of the workload, checks) happens in a fresh process,
as a user's `parax` invocation does, with BLAS/OpenMP threads and
PARAX_THREADS pinned to 1.

--trace 0 runs units while the next one still fits in --seconds (at least
one), then launches set-up-only processes until MIN_SETUPS set-ups were
timed.  --trace 1 runs one untraced and one traced unit; per-layer numbers
come from the traced one, step and output rates from the untraced one, and
trace.overhead_s is the difference of their wall times.  Times are in
quiet-host seconds: each unit times a small probe kernel all through its run
and rescales its spans by the probe's speed (tracer.QuietClock, README.md).

Output: one line {"environment": ...}, then the result line
{"correct", "attempted", "failed", "metrics"} whose metrics are the
end_to_end (or per_layer) entries of BENCHMARK.json, with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.stats.mstats import hdquantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("eta_study", "pic_beam", "cli_outputs")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PARAX_THREADS": "1",
}
MIN_SETUPS = 15
# the whole run, child processes included, may take --seconds plus this: room
# for the set-up-only units and for one unit that overruns its estimate
DEADLINE_MARGIN_S = 115.0


class UnitFailed(RuntimeError):
    pass


class Runner:
    """Launches unit processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, work: Path, seconds: float,
                 small: bool = False):
        self.workload, self.seed, self.work, self.small = workload, seed, work, small
        self.deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
        self.env = {**os.environ, **THREAD_PINS}
        self.launched = 0

    def unit(self, mode: str) -> dict:
        self.launched += 1
        out = self.work / f"unit{self.launched}"
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise UnitFailed("run deadline reached")
        cmd = [sys.executable, str(BENCH_DIR / "unit.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(out)]
        if self.small:
            cmd.append("--small")
        cmd += ["--launched-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise UnitFailed(f"{mode} unit timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise UnitFailed(f"{mode} unit exited with status {proc.returncode}")
        try:
            return json.loads(lines[-1])
        except ValueError as exc:
            raise UnitFailed(f"{mode} unit printed no result") from exc


def _median(values):
    return statistics.median(values) if values else 0.0


def _ops(units) -> tuple[int, int]:
    ops = [ok for u in units for _, ok in u["ops"]]
    return len(ops), sum(1 for ok in ops if not ok)


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics, steadier than the middle sample when the samples fall
    in a few clusters (hierarchy solves differ by their fixed-point sweeps)."""
    return float(hdquantiles(values, prob=[0.5])[0]) if values else 0.0


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(samples) -> dict:
    """The highest whole percentile with at least ten samples above it.

    Only a percentile at or above the median is reported, which needs 21
    samples or more.
    """
    n = len(samples)
    q = 100 * (n - 11) // (n - 1) if n > 11 else 0
    if q < 50:
        return {"samples": n}
    return {"percentile": q, "value": _percentile(samples, q), "samples": n}


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict, dict]:
    units = []
    t0 = time.monotonic()
    while True:
        units.append(runner.unit("plain"))
        per_unit = (time.monotonic() - t0) / len(units)
        if time.monotonic() - t0 + per_unit > seconds:
            break
    setups = units[:]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.unit("setup"))
    solves = [s for u in units for s in u["solve_s"]]
    metrics = {
        "setup_s": _median([u["setup_s"] for u in setups]),
        "wall_s": _median([u["wall_s"] for u in units]),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        "hierarchy_solve_s_p50": hd_median(solves),
    }
    return units, metrics, {
        "unit_wall_s": [u["wall_s"] for u in units],
        "unit_wall_s_measured": [u["wall_s_measured"] for u in units],
        "setup_s_measured": [u["setup_s_measured"] for u in setups],
        "probes": [u["probes"] for u in units],
        "hierarchy_solve_s_tail": tail_percentile(solves)}


def per_layer(runner: Runner) -> tuple[list[dict], dict, list[str]]:
    plain = runner.unit("plain")
    traced = runner.unit("trace")
    metrics = dict(traced["layers"])
    steps = plain["step_s"]
    attempted, failed = _ops([plain, traced])
    metrics.update({
        "pic.steps": len(steps),
        "pic_step_s_p50": _percentile(steps, 50),
        "pic_step_s_p90": _percentile(steps, 90),
        "particle_steps_per_s": plain["particle_steps"] / sum(steps) if steps else 0.0,
        "output_mb_per_s": plain["output_bytes"] / 1e6 / plain["wall_s"],
        "ops_failed_fraction": failed / attempted,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    return [plain, traced], metrics, traced["absent"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, units) -> dict:
    first = units[0]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(units),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": first["versions"]["numpy"], "scipy": first["versions"]["scipy"],
        "git_sha": _git_sha(), "thread_pins": THREAD_PINS,
        "solver_tolerance": first["tolerance"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the unit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "parax" / "__init__.py").is_file():
        print(f"error: no parax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work, args.seconds)
    try:
        if args.trace:
            units, values, absent = per_layer(runner)
            extra = {}
            declared = spec["per_layer"]
        else:
            units, values, extra = end_to_end(runner, args.seconds)
            absent = []
            declared = spec["end_to_end"]
    except UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed = _ops(units)
    env = {**environment(args, units), **extra}
    env["absent_metrics"] = absent + [m["name"] for m in declared if m["name"] not in values]
    print(json.dumps({"environment": env}))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
