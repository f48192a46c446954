"""One benchmark unit in a fresh process: set up, run once, check.

Started by run.py, never by hand.  Prints one JSON line: the set-up time
(from the parent's launch timestamp, so interpreter start and imports
count), the unit's wall time, peak RSS, hierarchy solve durations, the
checked operations and, for a traced unit, the per-layer numbers.  Times
are in quiet-host seconds (tracer.QuietClock); set-up and wall time are
also given as measured.

    python3 perfbench/unit.py --workload NAME --seed N --mode {setup,plain,trace}
        --out DIR --launched-at MONOTONIC [--small]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# probes run right after set-up
SETUP_PROBES = 40


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from parax import SolverSettings

    import tracer as tr
    from workloads import WORKLOADS, _dir_bytes

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.small)
    setup_s = time.monotonic() - args.launched_at
    # the host's speed just after set-up rescales the set-up time
    probe = tr.Probe(wl.STREAM_PROBE)
    setup_probe_s = statistics.median(probe.run() for _ in range(SETUP_PROBES))
    result = {
        "setup_s": setup_s * probe.quiet_s / setup_probe_s,
        "setup_s_measured": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "tolerance": SolverSettings().tolerance,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = tr.install(tr.Tracer(wl.STREAM_PROBE), full=args.mode == "trace")
    os.makedirs(args.out, exist_ok=True)
    try:
        t0 = tracer.now()
        info = wl.run(inputs, args.out, tracer)
        t1 = tracer.now()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s_measured = t1 - t0 - sum(tracer.durations(tr.CHECK))
    clock = tracer.to_quiet()
    wall_s = clock(t1) - clock(t0) - sum(tracer.durations(tr.CHECK))
    ops = wl.check(inputs, args.out, info)
    output_bytes = _dir_bytes(args.out)
    shutil.rmtree(args.out, ignore_errors=True)

    result.update(
        wall_s=wall_s,
        wall_s_measured=wall_s_measured,
        probes=len(tracer.probes),
        peak_rss_mb=peak_rss_mb,
        solve_s=tracer.durations("hierarchy.solve_hierarchy"),
        step_s=tracer.steps.step_s,
        particle_steps=tracer.steps.particle_steps,
        output_bytes=output_bytes,
        ops=[(name, bool(ok)) for name, ok in ops],
    )
    if args.mode == "trace":
        values, absent = tr.layer_metrics(tracer)
        result.update(layers=values, absent=absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
