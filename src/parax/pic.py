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

from .fields import ScalarField, VectorField2, map_blocks, require_finite
from .hierarchy import (
    ExternalField,
    FieldHierarchy,
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


# the per-particle arrays of a ParticleEnsemble, in field order
ARRAYS = ("ids", "x", "y", "zeta", "vx", "vy", "vzeta", "weight")


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
        for name in ARRAYS[1:]:
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
        return ParticleEnsemble(*(getattr(self, name).copy() for name in ARRAYS),
                                self.absorbed_total)


def sample_initial_distribution(
    mesh: Mesh,
    family: str,
    n: int,
    seed: int,
    total_weight: float = 1.0,
    center: tuple[float, float] | None = None,
    radius: float = 0.25,
    sigma: float = 0.1,
    zeta_center: float | None = None,
    zeta_width: float | None = None,
    vth: float = 0.0,
    vzeta_mean: float = 0.0,
    vzeta_th: float = 0.0,
) -> ParticleEnsemble:
    """Draw a deterministic macro-particle sample of a named family.

    Families: "uniform" (ellipse, uniform zeta slab), "gaussian" (separable,
    rejection-truncated to the domain), "cold" (uniform ellipse, zero
    transverse velocity spread).  A uniform or cold beam that reaches outside
    the box, or a gaussian one with too little mass inside it, raises
    :class:`SamplingError` before any draw.
    """
    if n <= 0:
        raise ValueError("need at least one particle")
    rng = np.random.default_rng(seed)
    cx = mesh.x0 + mesh.a / 2.0 if center is None else center[0]
    cy = mesh.y0 + mesh.b / 2.0 if center is None else center[1]
    zc = mesh.zlen / 2.0 if zeta_center is None else zeta_center
    zw = mesh.zlen / 4.0 if zeta_width is None else zeta_width

    if family in ("uniform", "cold"):
        # the deposit extrapolates the weights of a particle outside the box
        reach = [(cx, abs(radius), mesh.x0, mesh.x0 + mesh.a),
                 (cy, abs(radius), mesh.y0, mesh.y0 + mesh.b),
                 (zc, abs(zw) / 2.0, 0.0, mesh.zlen)]
        if any(c - half < lo or c + half > hi for c, half, lo, hi in reach):
            raise SamplingError(
                f"{family} beam at ({cx:g}, {cy:g}, {zc:g}) with radius {radius:g} "
                f"and zeta width {zw:g} reaches outside the domain; fit it inside the box"
            )
        r = np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        x = cx + radius * r * np.cos(th)
        y = cy + radius * r * np.sin(th)
        zeta = zc + zw * (rng.uniform(size=n) - 0.5)
    elif family == "gaussian":
        accept = (
            _in_range_probability(cx, sigma, mesh.x0, mesh.x0 + mesh.a)
            * _in_range_probability(cy, sigma, mesh.y0, mesh.y0 + mesh.b)
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
            xs = rng.normal(cx, sigma, size=m)
            ys = rng.normal(cy, sigma, size=m)
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
# Gather, deposit and push walk the particles in blocks, and all three run
# their blocks on every usable core through ``fields.map_blocks``, whose
# block bounds depend only on the particle count and the block length.
# Gather and deposit form each block's cloud-in-cell stencil once, for every
# component and every moment: the 8 corners' flat node indices and weights
# (wz * wy) * wx.  The gather and the push are elementwise, so they give the
# same bits on any number of cores.  The deposit cuts the particles into
# spans of max(BLOCK, nodes // 2) rows.  Each span lands as one (4, nodes)
# partial, one ``np.bincount`` per moment, which releases the GIL while it
# scatters; the caller adds the partials in span order.  The spans depend
# only on the particle count and the mesh, so the moments are the same bits
# on any number of cores, and they differ from a serial per-particle scatter
# (``np.add.at``) only in the order of the adds, that is by rounding: at most
# 8.3e-15 of the largest charge on 17^2 x 9 with 400k particles.  A span of at
# least nodes // 2 rows scatters at least 4 * nodes adds per moment, against
# the 2 * nodes that clearing and landing its partial cost.

BLOCK = 8192
# A push block holds only two temporaries of its own length, so it can be
# longer: fewer, longer numpy calls hand the GIL over less often.  On 400k
# particles (17^2 x 9, two CPUs of a Xeon VM) the push took a median 19 ms
# with blocks of 4 * BLOCK rows, against 23 ms with BLOCK rows.
PUSH_BLOCK = 4 * BLOCK


def _cic_stencil(mesh: Mesh, x, y, zeta) -> tuple[np.ndarray, np.ndarray]:
    """Flat node index and weight of the 8 cloud-in-cell corners, each (8, B).

    Corners come z-outermost, x-innermost; a particle's weight on a corner
    is (wz * wy) * wx, the product of its three axis weights.  The three axes
    go through each numpy call together: the blocks run on several threads,
    and fewer, longer calls hand the GIL over less often.
    """
    sy, sx = mesh.nx * mesh.ny, mesh.nx
    axis_w = np.empty((2, 3, len(x)))  # 1 - f and f, for zeta, y, x
    f = axis_w[1]
    f[0], f[1], f[2] = zeta, y, x
    f -= np.array([[0.0], [mesh.y0], [mesh.x0]])
    f /= np.array([[mesh.hzeta], [mesh.hy], [mesh.hx]])
    cell = f.astype(np.int64)
    np.clip(cell, 0, np.array([[mesh.nzeta - 2], [mesh.ny - 2], [mesh.nx - 2]]), out=cell)
    f -= cell
    base = cell[0] * sy
    base += cell[1] * sx
    base += cell[2]
    del cell
    corners = np.array([dz * sy + dy * sx + dx
                        for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)])
    idx = base + corners[:, None]
    del base
    np.subtract(1.0, f, out=axis_w[0])
    wz, wy, wx = axis_w.transpose(1, 0, 2)
    w = np.empty((2, 2, 2, len(x)))
    for dz in (0, 1):
        np.multiply((wz[dz] * wy)[:, None], wx, out=w[dz])
    return idx, w.reshape(8, -1)


def _gather(table: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the corners of table[:, idx] * w: (ncomp, B) values of a block.

    The corners are added in stencil order, one after the other.
    """
    values = np.take(table, idx, axis=1)
    values *= w
    return values.sum(axis=1)


def deposit_sources(
    particles: ParticleEnsemble,
    mesh: Mesh,
    n_chunks: int = 1,
) -> SourceTerms:
    """Cloud-in-cell charge and current moments, dual-cell normalized.

    The particles are cut into fixed spans of max(BLOCK, nodes // 2) rows,
    which run on every usable core; a span's partial is one ``np.bincount``
    per moment, and the partials are added in span order.  The moments are
    the same bits on any number of cores, and equal a serial per-particle
    scatter to rounding.  ``n_chunks`` is accepted for existing callers and
    does not change the result.
    """
    p = particles
    nodes = mesh.nzeta * mesh.ny * mesh.nx

    def span(start, stop):
        # in flight: the stencil, one weighted moment and the partial; rho
        # goes last, weighted in the stencil's own array
        b = slice(start, stop)
        idx, share = _cic_stencil(mesh, p.x[b], p.y[b], p.zeta[b])
        idx = idx.ravel()
        w = p.weight[b]
        partial = [np.bincount(idx, (share * (w * v)).ravel(), minlength=nodes)
                   for v in (p.vx[b], p.vy[b], p.vzeta[b])]
        share *= w
        return [np.bincount(idx, share.ravel(), minlength=nodes)] + partial

    total = np.zeros((4, nodes))
    for partial in map_blocks(span, len(p), max(BLOCK, nodes // 2)):
        for t, q in zip(total, partial):
            t += q
    total = total.reshape(4, mesh.nzeta, mesh.ny, mesh.nx)
    total /= mesh.dual_volume_3d
    rho, jx, jy, jz = total
    require_finite("deposit", rho=rho, Jx=jx, Jy=jy, Jzeta=jz)
    return SourceTerms(
        rho=ScalarField(mesh, rho),
        Jperp=VectorField2(mesh, jx, jy),
        Jzeta=ScalarField(mesh, jz),
    )


def interpolate_to_particles(mesh: Mesh, arr: np.ndarray, p: ParticleEnsemble):
    """Trilinear values of a field stack at the particle positions.

    ``arr`` has shape (ncomp, nzeta, ny, nx); the result is a list of ncomp
    1-D arrays.  Each value is summed over the corners as
    ``value * ((wz * wy) * wx)``; the blocks run on every usable core.
    """
    arr = np.asarray(arr, dtype=float)
    grid = (mesh.nzeta, mesh.ny, mesh.nx)
    if arr.ndim != 4 or arr.shape[1:] != grid:
        raise ValueError(f"field shape {arr.shape} is not (ncomp, *{grid})")
    table = arr.reshape(-1, mesh.nzeta * mesh.ny * mesh.nx)
    return list(_gather_blocks(mesh, table, p, np.empty((len(table), len(p)))))


def _gather_blocks(mesh: Mesh, table: np.ndarray, p: ParticleEnsemble,
                   out: np.ndarray, finish=None) -> np.ndarray:
    """Gather the (ncomp, nodes) ``table`` at the particles into ``out``.

    The blocks run on every usable core.  ``finish(b, values)``, if given,
    turns the gathered values of the particles ``b`` into their columns of
    ``out``.  Pool threads call only private functions: the benchmark's
    tracer wraps the public ones and is not thread-safe.
    """
    def block(start, stop):
        b = slice(start, stop)
        values = _gather(table, *_cic_stencil(mesh, p.x[b], p.y[b], p.zeta[b]))
        out[:, b] = values if finish is None else finish(b, values)

    for _ in map_blocks(block, len(p), BLOCK):
        pass
    return out


# -- forces and push -------------------------------------------------------------

def assemble_force(
    n: int,
    hierarchy: FieldHierarchy,
    particles: ParticleEnsemble,
    eta: float,
) -> np.ndarray:
    """The eta-truncated total force sum_{i<=n} eta^i F^i at the particles.

    Order i carries the pseudo-field and longitudinal electric field of
    order i plus magnetic contributions of order i-1; order 0 is purely
    electric (negative superscripts vanish).  The gather is linear, so the
    order sum is formed on the grid and one gather of at most six
    components serves every n.  Each block of particles is gathered and
    turned into its force at once, on every usable core.  Returns
    (fx, fy, fz) as one (3, N) array.
    """
    if not 0 <= n <= hierarchy.n_max:
        raise ValueError(f"order {n} not available (hierarchy has {hierarchy.n_max})")
    e = hierarchy.reconstruct(eta, n)
    comps = [e.Ecal.x, e.Ecal.y, e.Ez.values]
    if n > 0:
        prev = hierarchy.reconstruct(eta, n - 1)
        comps += [eta * prev.Bz.values, eta * prev.Bperp.x, eta * prev.Bperp.y]
    p = particles
    table = np.stack(comps).reshape(len(comps), -1)

    def force(b, values):
        ecal_x, ecal_y, ez, bz, bx, by = values
        vx, vy, vzeta = p.vx[b], p.vy[b], p.vzeta[b]
        # (Bz v + vzeta B) x e_z and v . (B x e_z)
        return (ecal_x + bz * vy + vzeta * by,
                ecal_y - bz * vx - vzeta * bx,
                ez + vx * by - vy * bx)

    return _gather_blocks(hierarchy.mesh, table, p, np.empty((3, len(p))),
                          force if n > 0 else None)


def push_particles(
    particles: ParticleEnsemble,
    force: tuple[np.ndarray, np.ndarray, np.ndarray] | np.ndarray,
    dt: float,
    mesh: Mesh,
) -> float:
    """Kick-drift update with wall absorption, in place; returns the largest
    drift of any particle along any axis, in cells.

    v_perp += F_perp dt, v_zeta -= F_z dt (the beam-frame advection sign),
    then positions drift; particles leaving Omega x (0, Z) are absorbed.
    ``force`` is (fx, fy, fz), as :func:`assemble_force` returns it, and is
    not written.  The ensemble is updated in place: blocks of PUSH_BLOCK
    particles run on every usable core and write their own rows of its six
    phase-space arrays, absorbed particles are squeezed out of all eight
    arrays in place, and its arrays become the survivors' leading rows.  No
    N-length array is allocated.  The update is elementwise, so the bits do
    not depend on the number of cores.  Arrays the ensemble shares with
    another ensemble are written too; push a ``copy()`` to keep the input.
    A non-finite velocity after the kick, which would otherwise leave the
    domain unnoticed, raises FieldShapeError; the ensemble is then partly
    pushed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    p = particles
    axes = ((p.x, p.vx, force[0], np.add, mesh.x0, mesh.x0 + mesh.a),
            (p.y, p.vy, force[1], np.add, mesh.y0, mesh.y0 + mesh.b),
            (p.zeta, p.vzeta, force[2], np.subtract, 0.0, mesh.zlen))

    def block(start, stop):
        # v = v +- F dt, then r = r + v dt, in the block's own rows; the
        # block's keep mask and |v| maxima go back to the caller
        b = slice(start, stop)
        keep = np.ones(stop - start, dtype=bool)
        inside = np.empty(stop - start, dtype=bool)
        step = np.empty(stop - start)  # F dt, then v dt, then |v|
        top = []
        for r, v, f, kick, lo, hi in axes:
            rb, vb = r[b], v[b]
            kick(vb, np.multiply(f[b], dt, out=step), out=vb)
            rb += np.multiply(vb, dt, out=step)
            keep &= np.greater(rb, lo, out=inside)
            keep &= np.less(rb, hi, out=inside)
            top.append(np.abs(vb, out=step).max())
        return start, stop, keep, top

    # The survivors of each finished block move left in place, in block
    # order, onto rows that no running block touches.
    arrays = [getattr(p, name) for name in ARRAYS]
    kept = 0
    top = np.zeros(3)
    for start, stop, keep, block_top in map_blocks(block, len(p), PUSH_BLOCK):
        count = int(np.count_nonzero(keep))
        if kept + count < stop:
            for r in arrays:
                r[kept:kept + count] = r[start:stop][keep]
        kept += count
        top = np.maximum(top, block_top)
    require_finite("push", vx=top[0], vy=top[1], vzeta=top[2])
    if kept < len(p):
        p.absorbed_total += len(p) - kept
        for name, r in zip(ARRAYS, arrays):
            setattr(p, name, r[:kept])
    return max(float(s) * dt / h for s, h in zip(top, (mesh.hx, mesh.hy, mesh.hzeta)))


def check_charge_conservation(
    moments_now: SourceTerms,
    moments_prev: SourceTerms,
    dt: float,
    mesh: Mesh,
) -> dict[str, float]:
    """Interior norms of d rho/dt + div Jperp + d Jzeta/dzeta (backward in t)."""
    if moments_now.rho.mesh != mesh or moments_prev.rho.mesh != mesh:
        raise ValueError("moments live on a different mesh")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt:g}")
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

    Returns (final particles, last hierarchy, records).  The loop copies
    ``particles`` once at entry and pushes that copy in place, so the
    caller's arrays are never written; the final particles are the loop's
    copy.  ``on_step`` receives (step, particles, hierarchy, record) after
    each completed step, before the next deposit; its ``particles`` are the
    loop's own and are valid only until the callback returns, so copy them
    to keep them.  A push that moves a particle more than one cell, or that
    leaves no particle in the domain, logs a warning.  ``n_chunks`` is
    accepted for existing callers and changes nothing.
    """
    particles = particles.copy()
    solver = HierarchySolver(mesh, beta, external=external)
    hierarchy = None  # the snapshot before: None is a cold start
    records: list[PicStepRecord] = []
    prev_moments = None
    shift = 0.0  # the largest drift of the last push, in cells
    absorbed_before = particles.absorbed_total

    for step in range(steps + 1):
        t = step * dt
        absorbed = particles.absorbed_total - absorbed_before
        absorbed_before = particles.absorbed_total
        if shift > 1.0:
            log.warning("step %d: particles moved up to %.3g cells in one step; "
                        "dt = %g is too long for the mesh", step, shift, dt)
        if absorbed and not len(particles):
            log.warning("step %d: every particle has left the domain", step)

        moments = deposit_sources(particles, mesh)
        hierarchy = solver.solve_hierarchy(n_max, moments, hierarchy, time=t)

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

        force = assemble_force(n_max, hierarchy, particles, eta)
        if step == 0:
            # leapfrog staggering: half-step backward kick once at startup,
            # v -+ (0.5 F) dt in place through one N-length temporary (a
            # (3, N) one raised pic_beam's peak RSS from 110.5 to 119 MiB)
            half = np.empty(len(particles))
            for v, f, kick in ((particles.vx, force[0], np.subtract),
                               (particles.vy, force[1], np.subtract),
                               (particles.vzeta, force[2], np.add)):
                np.multiply(0.5, f, out=half)
                kick(v, np.multiply(half, dt, out=half), out=v)
            del half, v, f  # f would hold the force through the next step
        shift = push_particles(particles, force, dt, mesh)
        del force  # not held through the next deposit and solve

    return particles, hierarchy, records
