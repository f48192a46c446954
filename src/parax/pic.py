"""Particle representation of the distribution function and its transport.

A single weighted macro-particle population carries the dimensionless
distribution; the truncated eta-weighted total force drives the push, which
realizes the order-n dynamics without splitting f into per-order unknowns.
Deposition and interpolation are both cloud-in-cell (trilinear), matching the
second-order field discretization.  Walls absorb: f = 0 on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, VectorField2
from .hierarchy import (
    ExternalField,
    FieldHierarchy,
    FieldHistory,
    HierarchySolver,
    SourceTerms,
)
from .mesh import Mesh
from .operators import div_perp, dzeta, norms

# a truncated Gaussian with less of its mass than this inside the domain is
# refused rather than rejection-sampled: the bunch lies outside the box
MIN_ACCEPTANCE = 1e-3


class SamplingError(ValueError):
    """The requested distribution cannot be drawn inside the domain."""


def _in_range_probability(center: float, sigma: float, lo: float, hi: float) -> float:
    """Mass of N(center, sigma^2) on (lo, hi)."""
    if sigma <= 0.0:
        return float(lo < center < hi)
    r = 1.0 / (sigma * math.sqrt(2.0))
    return 0.5 * (math.erf((hi - center) * r) - math.erf((lo - center) * r))


@dataclass
class ParticleEnsemble:
    """Macro-particles in dimensionless beam-frame phase space."""

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    zeta: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vzeta: np.ndarray
    weight: np.ndarray
    absorbed_total: int = 0

    def __post_init__(self):
        n = len(self.ids)
        for name in ("x", "y", "zeta", "vx", "vy", "vzeta", "weight"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"particle array {name} has wrong length")
        if np.any(self.weight <= 0):
            raise ValueError("macro-particle weights must be positive")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.ids.copy(), self.x.copy(), self.y.copy(), self.zeta.copy(),
            self.vx.copy(), self.vy.copy(), self.vzeta.copy(), self.weight.copy(),
            self.absorbed_total,
        )


def sample_initial_distribution(
    mesh: Mesh,
    family: str,
    n: int,
    seed: int,
    total_weight: float = 1.0,
    center: tuple[float, float] | None = None,
    radius: tuple[float, float] | float = 0.25,
    sigma: tuple[float, float] | float = 0.1,
    zeta_center: float | None = None,
    zeta_width: float | None = None,
    vth: float = 0.0,
    vzeta_mean: float = 0.0,
    vzeta_th: float = 0.0,
) -> ParticleEnsemble:
    """Draw a deterministic macro-particle sample of a named family.

    Families: "uniform" (ellipse, uniform zeta slab), "gaussian" (separable,
    rejection-truncated to the domain), "cold" (uniform ellipse, zero
    transverse velocity spread).
    """
    if n <= 0:
        raise ValueError("need at least one particle")
    rng = np.random.default_rng(seed)
    cx = mesh.x0 + mesh.a / 2.0 if center is None else center[0]
    cy = mesh.y0 + mesh.b / 2.0 if center is None else center[1]
    zc = mesh.zlen / 2.0 if zeta_center is None else zeta_center
    zw = mesh.zlen / 4.0 if zeta_width is None else zeta_width

    if family in ("uniform", "cold"):
        rx, ry = (radius, radius) if np.isscalar(radius) else radius
        r = np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        x = cx + rx * r * np.cos(th)
        y = cy + ry * r * np.sin(th)
        zeta = zc + zw * (rng.uniform(size=n) - 0.5)
    elif family == "gaussian":
        sx, sy = (sigma, sigma) if np.isscalar(sigma) else sigma
        accept = (
            _in_range_probability(cx, sx, mesh.x0, mesh.x0 + mesh.a)
            * _in_range_probability(cy, sy, mesh.y0, mesh.y0 + mesh.b)
            * _in_range_probability(zc, zw, 0.0, mesh.zlen)
        )
        if accept < MIN_ACCEPTANCE:
            raise SamplingError(
                f"gaussian bunch at ({cx:g}, {cy:g}, {zc:g}) has {accept:.3g} of its "
                f"mass inside the domain (< {MIN_ACCEPTANCE:g}); move it into the box"
            )
        # a round lands each missing particle inside with probability accept,
        # so one is still missing after 60/accept rounds with odds below e^-60
        max_rounds = int(60.0 / accept) + 1
        x = np.empty(n)
        y = np.empty(n)
        zeta = np.empty(n)
        filled = rounds = 0
        while filled < n:
            if rounds == max_rounds:
                raise SamplingError(
                    f"rejection sampling drew {filled} of {n} particles in {rounds} rounds"
                )
            rounds += 1
            m = n - filled
            xs = rng.normal(cx, sx, size=m)
            ys = rng.normal(cy, sy, size=m)
            zs = rng.normal(zc, zw, size=m)
            ok = (
                (xs > mesh.x0) & (xs < mesh.x0 + mesh.a)
                & (ys > mesh.y0) & (ys < mesh.y0 + mesh.b)
                & (zs > 0.0) & (zs < mesh.zlen)
            )
            k = int(ok.sum())
            x[filled:filled + k] = xs[ok]
            y[filled:filled + k] = ys[ok]
            zeta[filled:filled + k] = zs[ok]
            filled += k
    else:
        raise ValueError(f"unknown distribution family {family!r}")

    if family == "cold" or vth == 0.0:
        vx = np.zeros(n)
        vy = np.zeros(n)
    else:
        vx = rng.normal(0.0, vth, size=n)
        vy = rng.normal(0.0, vth, size=n)
    if family == "cold" or vzeta_th == 0.0:
        vzeta = np.full(n, vzeta_mean)
    else:
        vzeta = rng.normal(vzeta_mean, vzeta_th, size=n)

    return ParticleEnsemble(
        ids=np.arange(n, dtype=np.int64),
        x=x, y=y, zeta=zeta, vx=vx, vy=vy, vzeta=vzeta,
        weight=np.full(n, total_weight / n),
    )


# -- grid coupling --------------------------------------------------------------

def _cic_indices(mesh: Mesh, x, y, zeta):
    """Cell indices and fractional offsets for trilinear weighting."""
    fx = (np.asarray(x) - mesh.x0) / mesh.hx
    fy = (np.asarray(y) - mesh.y0) / mesh.hy
    fz = np.asarray(zeta) / mesh.hzeta
    i = np.clip(fx.astype(np.int64), 0, mesh.nx - 2)
    j = np.clip(fy.astype(np.int64), 0, mesh.ny - 2)
    k = np.clip(fz.astype(np.int64), 0, mesh.nzeta - 2)
    return i, j, k, fx - i, fy - j, fz - k


def _cic_scatter(mesh: Mesh, x, y, zeta, values) -> np.ndarray:
    """Deposit per-particle values onto nodes with trilinear weights."""
    out = np.zeros((mesh.nzeta, mesh.ny, mesh.nx))
    if len(x) == 0:
        return out
    i, j, k, fx, fy, fz = _cic_indices(mesh, x, y, zeta)
    flat = out.ravel()
    sy, sx = mesh.nx * mesh.ny, mesh.nx
    base = k * sy + j * sx + i
    for dz, wz in ((0, 1.0 - fz), (1, fz)):
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                np.add.at(flat, base + dz * sy + dy * sx + dx, values * wz * wy * wx)
    return out


def deposit_sources(
    particles: ParticleEnsemble,
    mesh: Mesh,
    n_chunks: int = 1,
) -> SourceTerms:
    """Cloud-in-cell charge and current moments, dual-cell normalized.

    Splitting into chunks mimics per-thread accumulation buffers; partial
    sums are merged in fixed chunk order, so reruns with the same chunk
    count are byte-identical; different chunk counts agree to rounding.
    """
    p = particles
    moments = {
        "rho": p.weight,
        "jx": p.weight * p.vx,
        "jy": p.weight * p.vy,
        "jz": p.weight * p.vzeta,
    }
    n = len(p)
    n_chunks = max(1, min(n_chunks, max(n, 1)))
    edges = [(n * c) // n_chunks for c in range(n_chunks + 1)]
    vol = mesh.dual_volume_3d
    out = {}
    for name, values in moments.items():
        total = np.zeros((mesh.nzeta, mesh.ny, mesh.nx))
        for c in range(n_chunks):
            sl = slice(edges[c], edges[c + 1])
            total += _cic_scatter(mesh, p.x[sl], p.y[sl], p.zeta[sl], values[sl])
        out[name] = total / vol
    return SourceTerms(
        rho=ScalarField(mesh, out["rho"]),
        Jperp=VectorField2(mesh, out["jx"], out["jy"]),
        Jzeta=ScalarField(mesh, out["jz"]),
    )


def interpolate_to_particles(mesh: Mesh, arr: np.ndarray, p: ParticleEnsemble) -> np.ndarray:
    """Trilinear field values at the particle positions."""
    if len(p) == 0:
        return np.zeros(0)
    i, j, k, fx, fy, fz = _cic_indices(mesh, p.x, p.y, p.zeta)
    out = np.zeros(len(p))
    for dz, wz in ((0, 1.0 - fz), (1, fz)):
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                out += arr[k + dz, j + dy, i + dx] * wz * wy * wx
    return out


# -- forces and push -------------------------------------------------------------

@dataclass
class ForceSample:
    """Per-order forces at the particle locations plus the weighted total."""

    eta: float
    orders: list[dict]  # [{"fx": ..., "fy": ..., "fz": ...} per order]

    def total(self, n_max: int | None = None):
        n_max = len(self.orders) - 1 if n_max is None else n_max
        np_ = len(self.orders[0]["fx"])
        fx = np.zeros(np_)
        fy = np.zeros(np_)
        fz = np.zeros(np_)
        for i in range(n_max + 1):
            w = self.eta**i
            fx += w * self.orders[i]["fx"]
            fy += w * self.orders[i]["fy"]
            fz += w * self.orders[i]["fz"]
        return fx, fy, fz


def assemble_force(
    n: int,
    hierarchy: FieldHierarchy,
    particles: ParticleEnsemble,
    eta: float,
) -> ForceSample:
    """Per-order force samples through order n.

    Order i carries the pseudo-field and longitudinal electric field of
    order i plus magnetic contributions of order i-1; order 0 is purely
    electric (negative superscripts vanish).
    """
    if n > hierarchy.n_max:
        raise ValueError(f"order {n} not available (hierarchy has {hierarchy.n_max})")
    mesh = hierarchy.mesh
    orders = []
    for i in range(n + 1):
        o = hierarchy.order(i)
        ecal_x = interpolate_to_particles(mesh, o.Ecal.x, particles)
        ecal_y = interpolate_to_particles(mesh, o.Ecal.y, particles)
        ez = interpolate_to_particles(mesh, o.Ez.values, particles)
        if i == 0:
            fx, fy, fz = ecal_x, ecal_y, ez
        else:
            prev = hierarchy.order(i - 1)
            bz = interpolate_to_particles(mesh, prev.Bz.values, particles)
            bx = interpolate_to_particles(mesh, prev.Bperp.x, particles)
            by = interpolate_to_particles(mesh, prev.Bperp.y, particles)
            # (Bz v + vzeta B) x e_z and v . (B x e_z)
            fx = ecal_x + bz * particles.vy + particles.vzeta * by
            fy = ecal_y - bz * particles.vx - particles.vzeta * bx
            fz = ez + particles.vx * by - particles.vy * bx
        orders.append({"fx": fx, "fy": fy, "fz": fz})
    return ForceSample(eta=eta, orders=orders)


def push_particles(
    particles: ParticleEnsemble,
    force: tuple[np.ndarray, np.ndarray, np.ndarray],
    dt: float,
    mesh: Mesh,
) -> ParticleEnsemble:
    """Kick-drift update with wall absorption.

    v_perp += F_perp dt, v_zeta -= F_z dt (the beam-frame advection sign),
    then positions drift; particles leaving Omega x (0, Z) are absorbed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    fx, fy, fz = force
    vx = particles.vx + fx * dt
    vy = particles.vy + fy * dt
    vzeta = particles.vzeta - fz * dt
    x = particles.x + vx * dt
    y = particles.y + vy * dt
    zeta = particles.zeta + vzeta * dt

    keep = (
        (x > mesh.x0) & (x < mesh.x0 + mesh.a)
        & (y > mesh.y0) & (y < mesh.y0 + mesh.b)
        & (zeta > 0.0) & (zeta < mesh.zlen)
    )
    absorbed = int((~keep).sum())
    return ParticleEnsemble(
        ids=particles.ids[keep], x=x[keep], y=y[keep], zeta=zeta[keep],
        vx=vx[keep], vy=vy[keep], vzeta=vzeta[keep], weight=particles.weight[keep],
        absorbed_total=particles.absorbed_total + absorbed,
    )


def check_charge_conservation(
    moments_now: SourceTerms,
    moments_prev: SourceTerms,
    dt: float,
    mesh: Mesh,
) -> dict[str, float]:
    """Interior norms of d rho/dt + div Jperp + d Jzeta/dzeta (backward in t)."""
    if moments_now.rho.mesh != mesh or moments_prev.rho.mesh != mesh:
        raise ValueError("moments live on a different mesh")
    drho = (moments_now.rho.values - moments_prev.rho.values) / dt
    bal = drho + div_perp(moments_now.Jperp).values + dzeta(moments_now.Jzeta).values
    return norms(bal, mesh)


# -- the transport loop -----------------------------------------------------------

@dataclass
class PicStepRecord:
    step: int
    time: float
    n_particles: int
    absorbed_total: int
    total_weight: float
    charge_conservation: dict | None
    field_norms: dict
    fixed_point_sweeps: list[int]

    def as_dict(self) -> dict:
        return {
            "step": self.step, "time": self.time,
            "n_particles": self.n_particles,
            "absorbed_total": self.absorbed_total,
            "total_weight": self.total_weight,
            "charge_conservation": self.charge_conservation,
            "field_norms": self.field_norms,
            "fixed_point_sweeps": self.fixed_point_sweeps,
        }


def run_pic(
    mesh: Mesh,
    beta: float,
    eta: float,
    particles: ParticleEnsemble,
    n_max: int = 1,
    dt: float = 0.05,
    steps: int = 10,
    external: ExternalField | None = None,
    settings=None,
    n_chunks: int = 1,
    on_step=None,
):
    """Deposit -> solve -> push loop.

    Returns (final particles, history, records); ``on_step`` receives
    (step, particles, hierarchy, record) after each completed step, before
    the next deposit.
    """
    solver = HierarchySolver(mesh, beta, external=external, settings=settings)
    history = FieldHistory()
    records: list[PicStepRecord] = []
    prev_moments = None
    half_kicked = False

    for step in range(steps + 1):
        t = step * dt
        moments = deposit_sources(particles, mesh, n_chunks=n_chunks)
        hierarchy = solver.solve_hierarchy(n_max, moments, history, time=t)
        history.push(hierarchy)

        conservation = None
        if prev_moments is not None:
            conservation = check_charge_conservation(moments, prev_moments, dt, mesh)
        prev_moments = moments

        field_norms = {}
        for o in hierarchy.orders:
            field_norms[f"order{o.n}"] = {
                "Ez": norms(o.Ez.values, mesh)["l2"],
                "Eperp": norms(np.hypot(o.Eperp.x, o.Eperp.y), mesh)["l2"],
                "Bperp": norms(np.hypot(o.Bperp.x, o.Bperp.y), mesh)["l2"],
                "Bz": norms(o.Bz.values, mesh)["l2"],
            }
        record = PicStepRecord(
            step=step, time=t, n_particles=len(particles),
            absorbed_total=particles.absorbed_total,
            total_weight=particles.total_weight,
            charge_conservation=conservation,
            field_norms=field_norms,
            fixed_point_sweeps=[o.diagnostics.get("fixed_point_sweeps", 0)
                                for o in hierarchy.orders],
        )
        records.append(record)
        if on_step is not None:
            on_step(step, particles, hierarchy, record)
        if step == steps:
            break

        force = assemble_force(n_max, hierarchy, particles, eta)
        fx, fy, fz = force.total()
        if not half_kicked:
            # leapfrog staggering: half-step backward kick once at startup
            particles = ParticleEnsemble(
                particles.ids, particles.x, particles.y, particles.zeta,
                particles.vx - 0.5 * fx * dt, particles.vy - 0.5 * fy * dt,
                particles.vzeta + 0.5 * fz * dt, particles.weight,
                particles.absorbed_total,
            )
            half_kicked = True
        particles = push_particles(particles, (fx, fy, fz), dt, mesh)

    return particles, history, records
