#!/usr/bin/env python3
"""Raw timing of the particle loop's three particle layers.

The benchmark's `pic_beam` workload runs `run_pic` on a 17^2x9 mesh with
400k Gaussian particles at n_max 1.  This script builds the same beam (or
one of the given mesh and particle count), solves its fields once, then
calls `deposit_sources`, `assemble_force` and `push_particles` --repeat
times each and prints each one's median `time.perf_counter` duration, with
no benchmark clock scaling in between.  Pin the BLAS threads
(OPENBLAS_NUM_THREADS=1) to compare runs with the benchmark's, and run it
under `taskset -c 0` for one-CPU numbers.

Usage: python scripts/time_pic.py [--mesh 17,17,9] [--particles 400000]
                                  [--n-max 1] [--repeat 9]
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from parax.hierarchy import ExternalField, FieldHistory, HierarchySolver  # noqa: E402
from parax.mesh import build_mesh  # noqa: E402
from parax.pic import (  # noqa: E402
    assemble_force,
    deposit_sources,
    push_particles,
    sample_initial_distribution,
)

# the pic_beam workload's beam and loop settings
BETA, ETA, DT, BZ, SEED = 0.5, 0.1, 0.05, 0.2, 1


def median_ms(call, repeat: int) -> float:
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds) * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mesh", default="17,17,9", help="nx,ny,nzeta")
    ap.add_argument("--particles", type=int, default=400_000)
    ap.add_argument("--n-max", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=9)
    args = ap.parse_args()
    try:
        nx, ny, nz = (int(v) for v in args.mesh.split(","))
    except ValueError:
        ap.error("--mesh takes three integers, nx,ny,nzeta")
    if args.repeat < 1 or args.particles < 1 or args.n_max < 0:
        ap.error("--repeat and --particles must be >= 1, --n-max >= 0")

    mesh = build_mesh(2.0, 2.0, 2.0, nx, ny, nz)
    p = sample_initial_distribution(mesh, "gaussian", args.particles, SEED, total_weight=5.0,
                                    sigma=0.3, zeta_width=0.5, vth=0.05)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=BZ))
    h = solver.solve_hierarchy(args.n_max, deposit_sources(p, mesh), FieldHistory(), time=0.0)
    force = assemble_force(args.n_max, h, p, ETA)
    layers = {
        "deposit_sources": lambda: deposit_sources(p, mesh),
        "assemble_force": lambda: assemble_force(args.n_max, h, p, ETA),
        "push_particles": lambda: push_particles(p, force, DT, mesh),
    }
    print(f"{nx}x{ny}x{nz}, {args.particles} particles, n_max {args.n_max}: "
          f"median of {args.repeat} calls, raw perf_counter ms")
    for name, call in layers.items():
        print(f"{name:16s} {median_ms(call, args.repeat):8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
