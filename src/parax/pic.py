"""Particle representation of the distribution function and its transport.

A single weighted macro-particle population carries the dimensionless
distribution; the truncated eta-weighted total force drives the push, which
realizes the order-n dynamics without splitting f into per-order unknowns.
Deposition and interpolation are both cloud-in-cell (trilinear), matching the
second-order field discretization.  Walls absorb: f = 0 on the boundary.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)

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
#
# Gather and deposit walk the particles in blocks of BLOCK and form each
# block's cloud-in-cell corners once, for every component and every moment.
# The block size bounds the temporaries; the deposit scatters the blocks in
# particle order, one after the other.

BLOCK = 8192


def _cic_corners(mesh: Mesh, x, y, zeta):
    """Yield (flat node index, wz, wy, wx) for the 8 cloud-in-cell corners.

    Corners come z-outermost, x-innermost; a particle's weight on a corner
    is the product of its three axis weights.
    """
    fx = (np.asarray(x) - mesh.x0) / mesh.hx
    fy = (np.asarray(y) - mesh.y0) / mesh.hy
    fz = np.asarray(zeta) / mesh.hzeta
    i = np.clip(fx.astype(np.int64), 0, mesh.nx - 2)
    j = np.clip(fy.astype(np.int64), 0, mesh.ny - 2)
    k = np.clip(fz.astype(np.int64), 0, mesh.nzeta - 2)
    fx, fy, fz = fx - i, fy - j, fz - k
    sy, sx = mesh.nx * mesh.ny, mesh.nx
    base = k * sy + j * sx + i
    for dz, wz in ((0, 1.0 - fz), (1, fz)):
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                yield base + (dz * sy + dy * sx + dx), wz, wy, wx


def deposit_sources(
    particles: ParticleEnsemble,
    mesh: Mesh,
    n_chunks: int = 1,
) -> SourceTerms:
    """Cloud-in-cell charge and current moments, dual-cell normalized.

    The blocks are scattered in particle order.  ``n_chunks`` is accepted
    for existing callers and does not change the result.
    """
    p = particles
    total = np.zeros((4, mesh.nzeta * mesh.ny * mesh.nx))
    for s in range(0, len(p), BLOCK):
        b = slice(s, s + BLOCK)
        w = p.weight[b]
        values = (w, w * p.vx[b], w * p.vy[b], w * p.vzeta[b])
        for idx, wz, wy, wx in _cic_corners(mesh, p.x[b], p.y[b], p.zeta[b]):
            share = wz * wy
            share *= wx
            for m, v in enumerate(values):
                np.add.at(total[m], idx, v * share)
    rho, jx, jy, jz = total.reshape(4, mesh.nzeta, mesh.ny, mesh.nx) / mesh.dual_volume_3d
    return SourceTerms(
        rho=ScalarField(mesh, rho),
        Jperp=VectorField2(mesh, jx, jy),
        Jzeta=ScalarField(mesh, jz),
    )


def interpolate_to_particles(mesh: Mesh, arr: np.ndarray, p: ParticleEnsemble):
    """Trilinear values of a field stack at the particle positions.

    ``arr`` has shape (ncomp, nzeta, ny, nx); the result is a list of ncomp
    1-D arrays.  Each value is summed over the corners as
    ``value * wz * wy * wx``.
    """
    arr = np.asarray(arr, dtype=float)
    grid = (mesh.nzeta, mesh.ny, mesh.nx)
    if arr.ndim != 4 or arr.shape[1:] != grid:
        raise ValueError(f"field shape {arr.shape} is not (ncomp, *{grid})")
    table = arr.reshape(-1, mesh.nzeta * mesh.ny * mesh.nx)
    out = [np.empty(len(p)) for _ in table]
    for s in range(0, len(p), BLOCK):
        b = slice(s, s + BLOCK)
        acc = np.zeros((len(table), len(p.x[b])))
        for idx, wz, wy, wx in _cic_corners(mesh, p.x[b], p.y[b], p.zeta[b]):
            term = np.take(table, idx, axis=1)
            term *= wz
            term *= wy
            term *= wx
            acc += term
        for o, a in zip(out, acc):
            o[b] = a
    return out


# -- forces and push -------------------------------------------------------------

def assemble_force(
    n: int,
    hierarchy: FieldHierarchy,
    particles: ParticleEnsemble,
    eta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eta-truncated total force sum_{i<=n} eta^i F^i at the particles.

    Order i carries the pseudo-field and longitudinal electric field of
    order i plus magnetic contributions of order i-1; order 0 is purely
    electric (negative superscripts vanish).  The gather is linear, so the
    order sum is formed on the grid and one gather of at most six
    components serves every n.  Returns (fx, fy, fz).
    """
    if not 0 <= n <= hierarchy.n_max:
        raise ValueError(f"order {n} not available (hierarchy has {hierarchy.n_max})")
    e = hierarchy.reconstruct(eta, n)
    comps = [e.Ecal.x, e.Ecal.y, e.Ez.values]
    if n > 0:
        b = hierarchy.reconstruct(eta, n - 1)
        comps += [eta * b.Bz.values, eta * b.Bperp.x, eta * b.Bperp.y]
    ecal_x, ecal_y, ez, *magnetic = interpolate_to_particles(
        hierarchy.mesh, np.stack(comps), particles)
    if not magnetic:
        return ecal_x, ecal_y, ez
    bz, bx, by = magnetic
    p = particles
    # (Bz v + vzeta B) x e_z and v . (B x e_z)
    return (ecal_x + bz * p.vy + p.vzeta * by,
            ecal_y - bz * p.vx - p.vzeta * bx,
            ez + p.vx * by - p.vy * bx)


def push_particles(
    particles: ParticleEnsemble,
    force: tuple[np.ndarray, np.ndarray, np.ndarray],
    dt: float,
    mesh: Mesh,
    info_out: dict | None = None,
) -> ParticleEnsemble:
    """Kick-drift update with wall absorption.

    v_perp += F_perp dt, v_zeta -= F_z dt (the beam-frame advection sign),
    then positions drift; particles leaving Omega x (0, Z) are absorbed.
    ``info_out`` receives ``max_cell_displacement``, the largest drift of
    any particle along any axis, in cells.
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
    if info_out is not None:
        drift = [float(np.abs(v).max()) * dt / h
                 for v, h in ((vx, mesh.hx), (vy, mesh.hy), (vzeta, mesh.hzeta)) if len(v)]
        info_out["max_cell_displacement"] = max(drift, default=0.0)

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
    absorbed: int  # by the push that led to this step
    absorbed_total: int
    max_cell_displacement: float  # of that push, in cells along any axis
    total_weight: float
    charge_conservation: dict | None
    field_norms: dict

    def as_dict(self) -> dict:
        return {
            "step": self.step, "time": self.time,
            "n_particles": self.n_particles,
            "absorbed": self.absorbed,
            "absorbed_total": self.absorbed_total,
            "max_cell_displacement": self.max_cell_displacement,
            "total_weight": self.total_weight,
            "charge_conservation": self.charge_conservation,
            "field_norms": self.field_norms,
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
    n_chunks: int = 1,
    on_step=None,
):
    """Deposit -> solve -> push loop.

    Returns (final particles, history, records); ``on_step`` receives
    (step, particles, hierarchy, record) after each completed step, before
    the next deposit.  A push that moves a particle more than one cell, or
    that leaves no particle in the domain, logs a warning.  ``n_chunks`` is
    accepted for existing callers and changes nothing.
    """
    solver = HierarchySolver(mesh, beta, external=external)
    history = FieldHistory()
    records: list[PicStepRecord] = []
    prev_moments = None
    half_kicked = False
    push_info = {"max_cell_displacement": 0.0}
    absorbed_before = particles.absorbed_total

    for step in range(steps + 1):
        t = step * dt
        absorbed = particles.absorbed_total - absorbed_before
        absorbed_before = particles.absorbed_total
        shift = push_info["max_cell_displacement"]
        if shift > 1.0:
            log.warning("step %d: particles moved up to %.3g cells in one step; "
                        "dt = %g is too long for the mesh", step, shift, dt)
        if absorbed and not len(particles):
            log.warning("step %d: every particle has left the domain", step)

        moments = deposit_sources(particles, mesh)
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
            step=step, time=t, n_particles=len(particles), absorbed=absorbed,
            absorbed_total=particles.absorbed_total, max_cell_displacement=shift,
            total_weight=particles.total_weight,
            charge_conservation=conservation,
            field_norms=field_norms,
        )
        records.append(record)
        if on_step is not None:
            on_step(step, particles, hierarchy, record)
        if step == steps:
            break

        fx, fy, fz = assemble_force(n_max, hierarchy, particles, eta)
        if not half_kicked:
            # leapfrog staggering: half-step backward kick once at startup
            particles = ParticleEnsemble(
                particles.ids, particles.x, particles.y, particles.zeta,
                particles.vx - 0.5 * fx * dt, particles.vy - 0.5 * fy * dt,
                particles.vzeta + 0.5 * fz * dt, particles.weight,
                particles.absorbed_total,
            )
            half_kicked = True
        push_info = {}
        particles = push_particles(particles, (fx, fy, fz), dt, mesh, info_out=push_info)

    return particles, history, records
