"""The benchmark workloads: inputs from a seed, one measured unit, checks.

Each workload has ``setup(seed, small)`` which builds the inputs,
``run(inputs, out_dir, tracer)`` which is the measured unit, and
``check(inputs, out_dir, info)`` which returns the unit's operations as
``(name, ok)`` pairs.  Checks test properties of the output, never exact
solver digits, so a rewritten solver that meets the same gates passes them.
``small=True`` gives the reduced instance the self-test runs.
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

import parax.pic
from parax.cli import run_command
from parax.config import RunConfig
from parax.fields import read_field_csv
from parax.hierarchy import ExternalField
from parax.mesh import build_mesh

import tracer as tr

# bound here, before any tracer wraps parax.pic, so the charge check's own
# deposits never count as pic.deposit work
_deposit_sources = parax.pic.deposit_sources

N_CHUNKS = 1


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, "**", "*"),
                                                      recursive=True)
               if os.path.isfile(f))


# -- eta_study ----------------------------------------------------------------

# acceptance criterion 5: minimum eta slope per n_max
ETA_SLOPE_GATES = {0: 0.8, 1: 1.8}


def check_eta_study(out_dir: str) -> list[tuple[str, bool]]:
    try:
        with open(os.path.join(out_dir, "eta_study.json")) as fh:
            results = json.load(fh)
    except (OSError, ValueError):
        results = {}
    ops = []
    for n_max, gate in ETA_SLOPE_GATES.items():
        entry = results.get(f"n_max_{n_max}", {})
        slope = entry.get("report", {}).get("slope")
        ops.append((f"slope n_max={n_max} >= {gate}",
                    isinstance(slope, (int, float)) and slope >= gate))
        data = entry.get("data", {})
        values = [v for key in ("coarse", "fine", "corrected") for v in data.get(key, [])]
        ops.append((f"residuals finite n_max={n_max}",
                    bool(values) and all(math.isfinite(v) for v in values)))
    return ops


class EtaStudy:
    """`parax convergence` with the default study (criterion 5)."""

    # most of the time is numpy work on vectors of 1 MB and more (Jacobi-CG),
    # which the Python-only probe follows less well
    STREAM_PROBE = True

    def setup(self, seed: int, small: bool):
        cfg = RunConfig()
        if small:
            cfg.study.grids = "17,33"
        return cfg

    def run(self, cfg, out_dir, tracer) -> dict:
        run_command("convergence", cfg, out_dir=out_dir, quiet=True, n_chunks=N_CHUNKS)
        return {}

    def check(self, cfg, out_dir, info) -> list[tuple[str, bool]]:
        return check_eta_study(out_dir)


# -- pic_beam -----------------------------------------------------------------

def check_pic_step(step: int, particles, mesh) -> list[tuple[str, bool]]:
    """Deposited charge equals the remaining weight; the push stayed finite."""
    finite = all(np.isfinite(a).all() for a in
                 (particles.x, particles.y, particles.zeta,
                  particles.vx, particles.vy, particles.vzeta))
    weight = float(np.sum(particles.weight))
    # worst-case rounding of a sum over every particle
    tol = max(len(particles), 1) * np.finfo(float).eps * max(weight, 1.0)
    try:
        rho = _deposit_sources(particles, mesh, n_chunks=N_CHUNKS).rho.values
        charge_ok = abs(float(np.sum(rho * mesh.dual_volume_3d)) - weight) <= tol
    except ValueError:  # parax refuses non-finite moments
        charge_ok = False
    return [(f"step {step} charge", bool(charge_ok)),
            (f"step {step} finite", bool(finite))]


class PicBeam:
    """Library `run_pic` on a Gaussian beam; no file output."""

    BETA, ETA, N_MAX, DT, BZ = 0.5, 0.1, 1, 0.05, 0.2
    STREAM_PROBE = False

    def setup(self, seed: int, small: bool):
        mesh = build_mesh(2.0, 2.0, 2.0, 17, 17, 9)
        particles = parax.pic.sample_initial_distribution(
            mesh, "gaussian", 100_000 if small else 400_000, seed,
            total_weight=5.0, sigma=0.3, zeta_width=0.5, vth=0.05,
        )
        return {"mesh": mesh, "particles": particles, "steps": 4 if small else 10}

    def run(self, inputs, out_dir, tracer) -> dict:
        mesh = inputs["mesh"]
        ops = []

        def on_step(step, particles, hierarchy, record):
            with tracer.span(tr.CHECK):
                ops.extend(check_pic_step(step, particles, mesh))

        parax.pic.run_pic(
            mesh, self.BETA, self.ETA, inputs["particles"], n_max=self.N_MAX,
            dt=self.DT, steps=inputs["steps"], external=ExternalField(bz=self.BZ),
            n_chunks=N_CHUNKS, on_step=on_step,
        )
        return {"ops": ops}

    def check(self, inputs, out_dir, info) -> list[tuple[str, bool]]:
        ops = info["ops"]
        # two checks per callback, one callback per step and one before the first
        ops.append(("steps completed", len(ops) == 2 * (inputs["steps"] + 1)))
        return ops


# -- cli_outputs --------------------------------------------------------------

FIELD_COMPONENTS = {
    "Ez": ["Ez"], "Ecal": ["Ecal_x", "Ecal_y"], "Eperp": ["Ex", "Ey"],
    "Bperp": ["Bx", "By"], "Bz": ["Bz"],
}
PARTICLE_HEADER = "id,x,y,zeta,vx,vy,vzeta,weight"


def _field_csv_ok(path: str, n_rows: int) -> bool:
    kind = os.path.basename(path).split("_")[0]
    try:
        names, coords, data = read_field_csv(path)
    except (OSError, ValueError):
        return False
    return (names == FIELD_COMPONENTS.get(kind)
            and coords.shape == (n_rows, 3) and data.shape == (n_rows, len(names))
            and bool(np.isfinite(coords).all() and np.isfinite(data).all()))


def _particle_csv_ok(path: str, n_rows: int) -> bool:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return False
    if n_rows == 0:
        rows = rows.reshape(0, 8)
    return (header == PARTICLE_HEADER and rows.shape == (n_rows, 8)
            and bool(np.isfinite(rows).all()))


def check_cli_outputs(fields_cfg, pic_cfg, fields_dir, pic_dir) -> list[tuple[str, bool]]:
    ops = []
    m = fields_cfg.mesh
    n_field = fields_cfg.fields.snapshots * (fields_cfg.hierarchy.n_max + 1) * len(FIELD_COMPONENTS)
    field_csvs = sorted(glob.glob(os.path.join(fields_dir, "*.csv")))
    ops.append((f"{n_field} field CSVs", len(field_csvs) == n_field))
    for path in field_csvs:
        ops.append((os.path.basename(path), _field_csv_ok(path, m.nx * m.ny * m.nzeta)))

    steps = pic_cfg.pic.steps
    try:
        with open(os.path.join(pic_dir, "diagnostics.jsonl")) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError):
        records = []
    ops.append(("diagnostics.jsonl has steps+1 lines", len(records) == steps + 1))
    alive = {r.get("step"): r.get("n_particles") for r in records}
    particle_csvs = sorted(glob.glob(os.path.join(pic_dir, "particles_*.csv")))
    ops.append((f"{steps + 1} particle CSVs", len(particle_csvs) == steps + 1))
    for path in particle_csvs:
        step = int(os.path.splitext(path)[0].rsplit("_", 1)[1])
        n = alive.get(step)
        ops.append((os.path.basename(path), n is not None and _particle_csv_ok(path, n)))
    for d in (fields_dir, pic_dir):
        ops.append((f"{os.path.basename(d)} manifest.json",
                    os.path.isfile(os.path.join(d, "manifest.json"))))
    return ops


class CliOutputs:
    """`parax fields` then `parax pic`, both writing at cadence 1."""

    STREAM_PROBE = False

    def setup(self, seed: int, small: bool):
        f = RunConfig()
        f.mesh.nx = f.mesh.ny = 17 if small else 33
        f.mesh.nzeta = 9 if small else 17
        f.fields.snapshots = 2 if small else 3
        f.fields.alpha, f.fields.alpha2, f.fields.jc = 0.2, 2.0, 0.5
        f.external.bz = 0.4
        f.hierarchy.n_max = 1
        f.output.cadence = 1

        p = RunConfig()
        p.mesh.nx, p.mesh.ny, p.mesh.nzeta = 17, 17, 9
        p.pic.n_particles = 5_000 if small else 50_000
        p.pic.vth, p.pic.sigma = 0.05, 0.15
        p.pic.steps = 3 if small else 10
        p.pic.seed = seed
        p.output.cadence = 1
        return {"fields": f, "pic": p}

    @staticmethod
    def dirs(out_dir):
        return os.path.join(out_dir, "fields"), os.path.join(out_dir, "pic")

    def run(self, cfgs, out_dir, tracer) -> dict:
        fields_dir, pic_dir = self.dirs(out_dir)
        run_command("fields", cfgs["fields"], out_dir=fields_dir, quiet=True, n_chunks=N_CHUNKS)
        run_command("pic", cfgs["pic"], out_dir=pic_dir, quiet=True, n_chunks=N_CHUNKS)
        return {}

    def check(self, cfgs, out_dir, info) -> list[tuple[str, bool]]:
        return check_cli_outputs(cfgs["fields"], cfgs["pic"], *self.dirs(out_dir))


WORKLOADS = {"eta_study": EtaStudy(), "pic_beam": PicBeam(), "cli_outputs": CliOutputs()}
