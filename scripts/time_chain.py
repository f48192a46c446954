#!/usr/bin/env python3
"""Raw timing of the field-chain solves of the default eta study.

`parax convergence` at its defaults solves one manufactured timeline on the
33^2x17 and 65^2x33 grids, three snapshots each, to orders 0, 1 and 1: six
`HierarchySolver.solve_hierarchy` calls.  This script runs those six solves
--repeat times and prints each one's median `time.perf_counter` duration,
with no benchmark clock scaling in between.  Pin the BLAS threads
(OPENBLAS_NUM_THREADS=1) to compare runs with the benchmark's.

Usage: python scripts/time_chain.py [--repeat 9]
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from parax.config import RunConfig  # noqa: E402
from parax.mesh import build_mesh  # noqa: E402
from parax.verify import ETA_STUDY_DT, ETA_STUDY_KNOBS, QuasiStaticMode, solve_timeline  # noqa: E402

GRIDS = ((33, 33, 17), (65, 65, 33))
SNAPSHOTS = 3


def time_solves(grid, beta: float) -> list[tuple[int, float]]:
    """(order, seconds) of each snapshot solve of the eta-study timeline on
    ``grid``; the order is the one the solved snapshot holds."""
    nx, ny, nz = grid
    mesh = build_mesh(1.0, 1.0, 2.0, nx, ny, nz)
    case = QuasiStaticMode(mesh=mesh, beta=beta, dt_hist=ETA_STUDY_DT, **ETA_STUDY_KNOBS)
    timeline = solve_timeline(case, 1, SNAPSHOTS, residual_only=True)
    solves = []
    while True:
        start = time.perf_counter()
        pair = next(timeline, None)
        seconds = time.perf_counter() - start
        if pair is None:
            return solves
        solves.append((pair[1].n_max, seconds))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=9)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    beta = RunConfig().scaling.beta
    runs = {grid: [time_solves(grid, beta) for _ in range(args.repeat)] for grid in GRIDS}
    print(f"median of {args.repeat} runs, raw perf_counter ms")
    for grid, samples in runs.items():
        for k, (order, _) in enumerate(samples[0]):
            ms = statistics.median(run[k][1] for run in samples) * 1e3
            print(f"{grid[0]}^2x{grid[2]} snapshot {k} (order {order}): {ms:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
