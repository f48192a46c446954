#!/usr/bin/env python3
"""Raw timing of the particle loop's three particle layers.

The benchmark's `pic_beam` workload runs `run_pic` on a 17^2x9 mesh with
400k Gaussian particles at n_max 1.  This script builds the same beam (or
one of the given mesh and particle count), solves its fields once, then
calls `deposit_sources`, `assemble_force` and `push_particles` --repeat
times each and prints each one's median `time.perf_counter` duration, with
no benchmark clock scaling in between.  The push updates its ensemble in
place, so each timed push gets a fresh copy, made outside the timer.  With
--steps N it then runs `run_pic` for N steps and prints its raw wall time,
and from a second run its `tracemalloc` peak above the input ensemble.  Pin
the BLAS threads (OPENBLAS_NUM_THREADS=1) to compare runs with the
benchmark's, and run it under `taskset -c 0` for one-CPU numbers.

Usage: python scripts/time_pic.py [--mesh 17,17,9] [--particles 400000]
                                  [--n-max 1] [--repeat 9] [--steps N]
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from parax.hierarchy import ExternalField, HierarchySolver  # noqa: E402
from parax.mesh import build_mesh  # noqa: E402
from parax.pic import (  # noqa: E402
    ARRAYS,
    assemble_force,
    deposit_sources,
    push_particles,
    run_pic,
    sample_initial_distribution,
)

# the pic_beam workload's beam and loop settings
BETA, ETA, DT, BZ, SEED = 0.5, 0.1, 0.05, 0.2, 1


def median_ms(call, repeat: int, setup=tuple) -> float:
    """Median duration of ``call(*setup())``; ``setup`` runs untimed."""
    seconds = []
    for _ in range(repeat):
        args = setup()
        start = time.perf_counter()
        call(*args)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds) * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mesh", default="17,17,9", help="nx,ny,nzeta")
    ap.add_argument("--particles", type=int, default=400_000)
    ap.add_argument("--n-max", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=9)
    ap.add_argument("--steps", type=int, default=0,
                    help="also time one run_pic of this many steps")
    args = ap.parse_args()
    try:
        nx, ny, nz = (int(v) for v in args.mesh.split(","))
    except ValueError:
        ap.error("--mesh takes three integers, nx,ny,nzeta")
    if args.repeat < 1 or args.particles < 1 or args.n_max < 0 or args.steps < 0:
        ap.error("--repeat and --particles must be >= 1, --n-max and --steps >= 0")

    mesh = build_mesh(2.0, 2.0, 2.0, nx, ny, nz)
    p = sample_initial_distribution(mesh, "gaussian", args.particles, SEED, total_weight=5.0,
                                    sigma=0.3, zeta_width=0.5, vth=0.05)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=BZ))
    h = solver.solve_hierarchy(args.n_max, deposit_sources(p, mesh), time=0.0)
    force = assemble_force(args.n_max, h, p, ETA)
    layers = {
        "deposit_sources": (lambda: deposit_sources(p, mesh), tuple),
        "assemble_force": (lambda: assemble_force(args.n_max, h, p, ETA), tuple),
        "push_particles": (lambda q: push_particles(q, force, DT, mesh), lambda: (p.copy(),)),
    }
    print(f"{nx}x{ny}x{nz}, {args.particles} particles, n_max {args.n_max}: "
          f"median of {args.repeat} calls, raw perf_counter ms")
    for name, (call, setup) in layers.items():
        print(f"{name:16s} {median_ms(call, args.repeat, setup):8.2f}")
    if args.steps:
        del h, force

        def loop():
            return run_pic(mesh, BETA, ETA, p, n_max=args.n_max, dt=DT, steps=args.steps,
                           external=ExternalField(bz=BZ))

        start = time.perf_counter()
        loop()
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            loop()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ensemble = sum(getattr(p, name).nbytes for name in ARRAYS)
        print(f"run_pic, {args.steps} steps: {wall * 1e3:.1f} ms raw perf_counter; "
              f"tracemalloc peak above the input {peak / 2**20:.1f} MiB "
              f"({peak / ensemble:.2f} ensembles of {ensemble / 2**20:.1f} MiB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
