#!/usr/bin/env python3
"""Self-test of the benchmark on small instances of each workload.

    python3 perfbench/selftest.py

Shows that (1) a traced unit of each workload gives a non-zero value for
every layer metric layers.json assigns to it, and every metric BENCHMARK.json
declares is produced; (2) a slope below its gate, a non-finite residual, a
truncated CSV, a deposit that loses weight and a non-finite particle push
are each counted as failed operations; (3) a wrapped name that no longer
exists is reported absent instead of failing the run; (4) the quiet clock
rescales time by the probes' speed.  Exits non-zero on the
first broken expectation.  Takes about half a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def failed(ops) -> list[str]:
    return [name for name, ok in ops if not ok]


def layer_coverage(work) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    nonzero = json.loads((run.BENCH_DIR / "layers.json").read_text())["nonzero"]
    for workload in run.WORKLOADS:
        runner = run.Runner(workload, seed=1, work=work / workload, seconds=0, small=True)
        _, values, absent = run.per_layer(runner)
        expect(set(values) == declared, f"{workload}: produces exactly the declared per-layer metrics")
        expect(not absent, f"{workload}: no absent metrics")
        zero = [m for m in nonzero[workload] if not values.get(m)]
        expect(not zero, f"{workload}: mapped layer metrics are non-zero {zero or ''}")
        expect(values["ops_failed_fraction"] == 0, f"{workload}: no failed operations")


def eta_gate_failures(work) -> None:
    def study(slope0, slope1, residual):
        data = {"coarse": [0.1, 0.2], "fine": [0.1, residual], "corrected": [0.1, 0.2]}
        results = {"n_max_0": {"report": {"slope": slope0}, "data": data},
                   "n_max_1": {"report": {"slope": slope1}, "data": data}}
        d = tempfile.mkdtemp(dir=work)
        with open(os.path.join(d, "eta_study.json"), "w") as fh:
            json.dump(results, fh)
        return wl.check_eta_study(d)

    expect(failed(study(1.0, 2.0, 0.2)) == [], "eta_study: slopes above the gates pass")
    expect(len(failed(study(1.0, 1.7, 0.2))) == 1, "eta_study: slope 1.7 < 1.8 is one failed op")
    expect(len(failed(study(0.79, 2.0, 0.2))) == 1, "eta_study: slope 0.79 < 0.8 is one failed op")
    expect(len(failed(study(1.0, 2.0, float("nan")))) == 2,
           "eta_study: a NaN residual fails the finite check of each order")
    expect(len(failed(wl.check_eta_study(str(work / "missing")))) == 4,
           "eta_study: a missing study file fails every op")


def _truncate(path: str, keep: float) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: int(len(data) * keep)])


def csv_truncation_failures(work) -> None:
    cli = wl.WORKLOADS["cli_outputs"]
    cfgs = cli.setup(seed=1, small=True)
    out = str(work / "cli")
    cli.run(cfgs, out, None)
    expect(failed(cli.check(cfgs, out, {})) == [], "cli_outputs: untouched outputs pass")
    fields_dir, pic_dir = cli.dirs(out)
    _truncate(os.path.join(fields_dir, "Eperp_1_1.csv"), 0.5)
    bad = failed(cli.check(cfgs, out, {}))
    expect(bad == ["Eperp_1_1.csv"], f"cli_outputs: truncated field CSV is one failed op {bad}")
    _truncate(os.path.join(pic_dir, "particles_0_2.csv"), 0.7)
    bad = failed(cli.check(cfgs, out, {}))
    expect(len(bad) == 2 and "particles_0_2.csv" in bad,
           f"cli_outputs: truncated particle CSV is one more failed op {bad}")
    os.remove(os.path.join(pic_dir, "manifest.json"))
    expect(len(failed(cli.check(cfgs, out, {}))) == 3,
           "cli_outputs: a missing manifest is one more failed op")


def pic_step_failures() -> None:
    pic = wl.WORKLOADS["pic_beam"]
    inputs = pic.setup(seed=1, small=True)
    p, mesh = inputs["particles"], inputs["mesh"]
    expect(failed(wl.check_pic_step(0, p, mesh)) == [], "pic_beam: sampled beam passes")
    exact = wl._deposit_sources

    def lossy(parts, mesh, n_chunks=1):
        q = parts.copy()
        q.weight[0] *= 0.5
        return exact(q, mesh, n_chunks=n_chunks)

    wl._deposit_sources = lossy
    try:
        expect(failed(wl.check_pic_step(0, p, mesh)) == ["step 0 charge"],
               "pic_beam: a deposit that loses weight is one failed op")
    finally:
        wl._deposit_sources = exact
    p.vx[7] = np.nan
    expect(failed(wl.check_pic_step(0, p, mesh)) == ["step 0 charge", "step 0 finite"],
           "pic_beam: a non-finite velocity fails the finite and charge ops")


def missing_names_are_absent() -> None:
    import parax.cli

    import tracer as tr

    saved = parax.cli._write_particles
    del parax.cli._write_particles
    try:
        t = tr.install(tr.Tracer(), full=True)
        t.uninstall()
    finally:
        parax.cli._write_particles = saved
    _, absent = tr.layer_metrics(t)
    expect(sorted(absent) == ["cli.write_particles.bytes", "cli.write_particles.calls",
                              "cli.write_particles.s"],
           f"tracer: a vanished private name is reported absent {absent}")


def quiet_clock() -> None:
    import tracer as tr

    knots = (0.0, 1.0, 2.0, 3.0)
    steady = tr.QuietClock([(t, tr.QUIET_PROBE_S) for t in knots], tr.QUIET_PROBE_S)
    expect(abs(steady(2.5) - steady(0.5) - 2.0) < 1e-12,
           "quiet clock: probes at the quiet time leave time unchanged")
    slow = tr.QuietClock([(t, 2 * tr.QUIET_PROBE_S) for t in knots], tr.QUIET_PROBE_S)
    expect(abs(slow(3.5) - slow(-0.5) - 2.0) < 1e-12,
           "quiet clock: probes twice as slow halve the time, before and after the probes too")


def main() -> int:
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        missing_names_are_absent()
        quiet_clock()
        eta_gate_failures(work)
        pic_step_failures()
        csv_truncation_failures(work)
        layer_coverage(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
