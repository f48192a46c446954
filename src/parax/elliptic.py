"""Reusable elliptic kernels: 2D Poisson, 3D anisotropic Poisson, 2D div-curl.

The scalar solvers discretize  sum_d c_d d^2u/dx_d^2 = f  on the tensor grid
with per-face Dirichlet or Neumann conditions.  Dirichlet nodes drop out of
the unknowns and Neumann faces are eliminated through ghost nodes, so the
operator is a Kronecker sum of 1D second differences, one per axis, and any
mix of face kinds keeps that structure.  Each 1D operator turns symmetric
when scaled by the square root of its dual-cell weights (1/2 at end nodes);
its eigendecomposition is cached.  A solve is then one contraction per axis
into the joint eigenbasis, a division by the summed eigenvalues, and one
contraction per axis back: the fast diagonalization method (Lynch, Rice &
Thomas, Numer. Math. 6, 1964), direct and exact to rounding.  The 2D solver
runs the same kernel on the trailing two axes, so a (nzeta, ny, nx) volume
solves every transverse slice in one call.

The div-curl solver prescribes div A, curl A and the tangential trace A.tau
on Gamma.  It splits A = grad p + curl q:  q absorbs the curl source through
a homogeneous Dirichlet solve (its trace carries the full circulation by
Green's theorem; with no curl left after the corner-bilinear part, q is zero
and not solved for), and p gets Dirichlet data integrated from the remaining
tangential trace along Gamma.  A circulation, when given, is checked against
the curl source (Green's theorem), never imposed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import ScalarField, VectorField2, same_mesh
from .mesh import FACE_ORDER, Mesh, face_tangent
from .operators import (
    axis_index,
    boundary_tangential_trace,
    curl_perp_scalar,
    gamma_ccw_faces,
    grad_perp,
)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# face name -> array axis, counted from the end: (..., nzeta, ny, nx)
_FACE_AXIS = {"x_lo": -1, "x_hi": -1, "y_lo": -2, "y_hi": -2, "zeta_lo": -3, "zeta_hi": -3}
_AXIS_FACES = {-1: ("x_lo", "x_hi"), -2: ("y_lo", "y_hi"), -3: ("zeta_lo", "zeta_hi")}


class IncompatibleDataError(ValueError):
    """Boundary/source data violate the discrete solvability condition."""


@dataclass(frozen=True)
class FaceBC:
    kind: str
    value: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundarySpec:
    faces: Mapping[str, FaceBC]

    @classmethod
    def uniform(cls, kind: str, value=0.0, volumetric: bool = False) -> "BoundarySpec":
        names = _FACE_AXIS if volumetric else FACE_ORDER
        return cls({f: FaceBC(kind, value) for f in names})

    def with_face(self, name: str, bc: FaceBC) -> "BoundarySpec":
        faces = dict(self.faces)
        faces[name] = bc
        return BoundarySpec(faces)

    def kind(self, name: str) -> str:
        return self.faces[name].kind


# solvability-condition mismatch allowance of the pure-Neumann and
# circulation pre-checks, relative to the data scale
COMPAT_RTOL = 1e-2


class SolverSettings:
    """No solver takes settings.  This read-only constant remains only
    because the benchmark's environment line reads it (``perfbench/unit.py``)
    and goes when that line does."""

    __slots__ = ()
    tolerance = 1e-10


# -- the separable direct kernel ------------------------------------------------

def _unknown_range(n: int, kind_lo: str, kind_hi: str) -> slice:
    """Nodes of one axis that are unknowns: all but the Dirichlet ends."""
    return slice(1 if kind_lo == DIRICHLET else 0, n - 1 if kind_hi == DIRICHLET else n)


def _end_weights(m: int, kind_lo: str, kind_hi: str) -> np.ndarray:
    """Dual-cell weights of one axis's unknowns: 1/2 at Neumann end nodes."""
    w = np.ones(m)
    if kind_lo == NEUMANN:
        w[0] = 0.5
    if kind_hi == NEUMANN:
        w[-1] = 0.5
    return w


@functools.lru_cache(maxsize=32)
def _axis_eig(n: int, h: float, coeff: float, kind_lo: str, kind_hi: str):
    """(eigenvalues, to-eigenbasis, from-eigenbasis) of coeff * d^2/dx^2 on
    the unknowns of one axis with n nodes.

    The operator D has W D symmetric for the end weights W, so
    S = W^1/2 D W^-1/2 = Q diag(lam) Q^T gives D = (W^-1/2 Q) diag(lam) (Q^T W^1/2).
    With Neumann at both ends the constant is the zero mode; it comes last.
    """
    rng = _unknown_range(n, kind_lo, kind_hi)
    m = rng.stop - rng.start
    if m < 1:
        raise ValueError("no unknowns: all faces Dirichlet on a degenerate grid?")
    D = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    if kind_lo == NEUMANN:
        D[0, 1] = 2.0  # ghost node mirrors the inner neighbor
    if kind_hi == NEUMANN:
        D[-1, -2] = 2.0
    D *= coeff / h**2
    s = np.sqrt(_end_weights(m, kind_lo, kind_hi))
    S = s[:, None] * D / s[None, :]
    lam, Q = np.linalg.eigh(0.5 * (S + S.T))
    if kind_lo == kind_hi == NEUMANN:
        lam[-1] = 0.0
    to_modes = Q.T * s[None, :]
    from_modes = Q / s[:, None]
    for a in (lam, to_modes, from_modes):
        a.flags.writeable = False
    return lam, to_modes, from_modes


def _along(M: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Apply the square matrix M along one (negative) axis of g, as one GEMM
    or one batch of GEMMs over the leading axes."""
    g = np.ascontiguousarray(g)
    n = g.shape[axis]
    if axis == -1:
        return (g.reshape(-1, n) @ M.T).reshape(g.shape)
    lead = int(np.prod(g.shape[:axis]))
    return np.matmul(M, g.reshape(lead, n, -1)).reshape(g.shape)


def _apply(u: np.ndarray, spacings, coeffs, kinds) -> np.ndarray:
    """sum_d c_d d^2u/dx_d^2 over the trailing axes, matrix-free, with Neumann
    ends ghost-eliminated; rows at Dirichlet ends are left zero."""
    out = np.zeros_like(u)
    nd = len(spacings)
    for d, (h, c, (lo, hi)) in enumerate(zip(spacings, coeffs, kinds)):
        ix = axis_index(u.ndim, d - nd)
        s = c / h**2
        out[ix(np.s_[1:-1])] += s * (u[ix(np.s_[:-2])] - 2.0 * u[ix(np.s_[1:-1])]
                                     + u[ix(np.s_[2:])])
        if lo == NEUMANN:
            out[ix(0)] += 2.0 * s * (u[ix(1)] - u[ix(0)])
        if hi == NEUMANN:
            out[ix(-1)] += 2.0 * s * (u[ix(-2)] - u[ix(-1)])
    return out


def _is_zero(value) -> bool:
    """True for a face value of scalar +0.0, which changes nothing."""
    return isinstance(value, (int, float)) and value == 0 and math.copysign(1.0, value) > 0


def _boundary_rhs(values, spacings, coeffs, bc: BoundarySpec):
    """Boundary data of a solve over the trailing len(spacings) axes.

    Returns ``(u, g, kinds, inner, lifted)``: ``u`` is zero but for the
    Dirichlet values on its faces, ``g`` the right-hand side on the unknowns
    ``u[inner]``, and ``lifted`` whether a Dirichlet face carries data.
    Neumann fluxes enter ``g`` on the end layer of their axis (the ghost
    elimination adds 2*c*v/h on the operator side).  Dirichlet values enter
    through the stencils of the unknowns next to their face: the first or
    last unknown layer of the axis, or its only layer, which takes both
    faces.  A node next to several faces sums their terms in axis order
    before its one subtraction, so every bit equals
    ``values[inner] - _apply(u)[inner]``.  Faces of scalar value 0.0 are not
    touched, and ``values`` is copied only when some face changes it.
    """
    nd = len(spacings)
    axes = range(-nd, 0)
    invalid = set(bc.faces) - {f for ax in axes for f in _AXIS_FACES[ax]}
    if invalid:
        raise ValueError(f"faces {sorted(invalid)} not valid for a {nd}D solve")
    kinds = [tuple(bc.kind(f) for f in _AXIS_FACES[ax]) for ax in axes]
    values = np.asarray(values, dtype=float)
    shape = values.shape
    ranges = [_unknown_range(shape[ax], *kinds[ax]) for ax in axes]
    inner = (Ellipsis, *ranges)

    def at(ax, k, rest=(slice(None),) * nd):
        """Position k on axis ax, ``rest`` on the other axes."""
        idx = list(rest)
        idx[ax] = k
        return (Ellipsis, *idx)

    u = np.zeros(shape)
    g = values[inner]
    copied = False
    data: dict[int, list[int]] = {}  # axis -> ends of its Dirichlet faces with data
    for name, fbc in bc.faces.items():
        ax = _FACE_AXIS[name]
        end = 0 if name.endswith("_lo") else -1
        zero = _is_zero(fbc.value)
        if fbc.kind == DIRICHLET:
            # once u holds data, a zero face still overwrites the edge nodes
            # it shares with an earlier face
            if data or not zero:
                u[at(ax, end)] = np.broadcast_to(np.asarray(fbc.value, dtype=float),
                                                 u[at(ax, end)].shape)
            if not zero:
                data.setdefault(ax, []).append(end)
        elif not zero:
            if not copied:
                g, copied = np.array(g), True
            vals = np.broadcast_to(np.asarray(fbc.value, dtype=float), u[at(ax, end)].shape)
            others = [r for a, r in zip(axes, ranges) if a != ax]
            g[at(ax, end)] -= 2.0 * coeffs[ax] * vals[(Ellipsis, *others)] / spacings[ax]

    if data:
        if not copied:
            g = np.array(g)
        terms = u[inner]  # zero on the unknowns: it collects the Dirichlet terms
        for ax in sorted(data):
            s = coeffs[ax] / spacings[ax]**2
            if terms.shape[ax] == 1:  # one unknown layer takes both faces
                terms[at(ax, 0)] += s * (u[at(ax, 0, ranges)] + u[at(ax, -1, ranges)])
            else:
                for end in data[ax]:
                    terms[at(ax, end)] += s * u[at(ax, end, ranges)]
        # one subtraction per node: a layer shared with an earlier axis reads
        # zero by then, and u is left zero on the unknowns
        for ax in sorted(data):
            for end in data[ax]:
                g[at(ax, end)] -= terms[at(ax, end)]
                terms[at(ax, end)] = 0.0
    return u, g, kinds, inner, bool(data)


def _solve_scalar(
    values: np.ndarray,
    spacings: tuple[float, ...],
    coeffs: tuple[float, ...],
    bc: BoundarySpec,
    info_out: dict | None = None,
) -> np.ndarray:
    """Solve sum_d c_d d^2u/dx_d^2 = values over the trailing len(spacings)
    axes; leading axes are independent problems.  Returns the full nodal
    array including Dirichlet values."""
    nd = len(spacings)
    axes = range(-nd, 0)
    u, g, kinds, inner, lifted = _boundary_rhs(values, spacings, coeffs, bc)
    shape = u.shape
    eigs = [_axis_eig(shape[ax], spacings[ax], coeffs[ax], *kinds[ax]) for ax in axes]
    w = functools.reduce(np.multiply.outer, [_end_weights(len(e[0]), *k)
                                             for e, k in zip(eigs, kinds)])
    trailing = tuple(axes)

    pure_neumann = all(k == (NEUMANN, NEUMANN) for k in kinds)
    if pure_neumann:
        # solvability: the weighted rhs must sum to zero on each problem
        b = w * g
        defect = b.sum(axis=trailing, keepdims=True)
        ref = np.abs(b).sum(axis=trailing, keepdims=True)
        if np.any(np.abs(defect) > COMPAT_RTOL * np.maximum(ref, 1e-12)):
            worst = np.argmax(np.abs(defect) / np.maximum(ref, 1e-300))
            raise IncompatibleDataError(
                f"pure-Neumann data incompatible: defect {defect.flat[worst]:.3e} "
                f"vs scale {ref.flat[worst]:.3e}"
            )
        g = (b - defect / w.size) / w

    x = g
    for ax, (_, to_modes, _) in zip(axes, eigs):
        x = _along(to_modes, x, ax)
    lam_sum = functools.reduce(np.add.outer, [e[0] for e in eigs])
    if pure_neumann:
        lam_sum = lam_sum.copy()
        lam_sum[(-1,) * nd] = np.inf  # drop the constant mode
    x = x / lam_sum
    for ax, (_, _, from_modes) in zip(axes, eigs):
        x = _along(from_modes, x, ax)
    if pure_neumann:
        x = x - (w * x).sum(axis=trailing, keepdims=True) / w.sum()

    u[inner] = x
    if info_out is not None:
        # the operator on x alone, zero on the faces: u itself when no
        # Dirichlet face carries data
        x_full = u
        if lifted:
            x_full = np.zeros(shape)
            x_full[inner] = x
        res = w * (_apply(x_full, spacings, coeffs, kinds)[inner] - g)
        bn = np.linalg.norm(w * g)
        info_out.update(
            method="fdm",
            relative_residual=float(np.linalg.norm(res) / bn) if bn > 0 else 0.0,
        )
    return u


def solve_poisson_2d(
    rhs: ScalarField,
    bc: BoundarySpec,
    info_out: dict | None = None,
) -> ScalarField:
    """Solve lap_perp u = rhs on one transverse slice, or on every slice of a
    volume at once (face data then per slice, shaped (nzeta, nface)).

    Pure-Neumann problems must satisfy the discrete compatibility condition
    and come back gauge-fixed to zero weighted mean.
    """
    m = rhs.mesh
    vals = _solve_scalar(rhs.values, (m.hy, m.hx), (1.0, 1.0), bc, info_out)
    return ScalarField(m, vals)


def solve_anisotropic_poisson_3d(
    kappa: float,
    rhs: ScalarField,
    bc: BoundarySpec,
    info_out: dict | None = None,
) -> ScalarField:
    """Solve (lap_perp + kappa d^2/dzeta^2) u = rhs over Omega x (0, Z)."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa = 1 - beta^2 must lie in (0, 1), got {kappa}")
    if not rhs.is3d:
        raise ValueError("solve_anisotropic_poisson_3d expects a volumetric field")
    m = rhs.mesh
    vals = _solve_scalar(rhs.values, (m.hzeta, m.hy, m.hx), (kappa, 1.0, 1.0), bc, info_out)
    return ScalarField(m, vals)


# -- div-curl reconstruction ------------------------------------------------------

def _corner_bilinear(mesh: Mesh, values: np.ndarray):
    """Coefficients (alpha, beta, gamma, delta) of the bilinear interpolant
    alpha + beta*xt + gamma*yt + delta*xt*yt of the four corner values,
    in local coordinates xt = x - x0, yt = y - y0.  Each is shaped
    (..., 1, 1) so that it broadcasts over the slices of a volume."""
    c00, c10 = values[..., :1, :1], values[..., :1, -1:]
    c01, c11 = values[..., -1:, :1], values[..., -1:, -1:]
    a, b = mesh.a, mesh.b
    return c00, (c10 - c00) / a, (c01 - c00) / b, (c11 - c10 - c01 + c00) / (a * b)


@functools.lru_cache(maxsize=32)
def _slice_monomials(mesh: Mesh) -> tuple[np.ndarray, ...]:
    """Monomials of the local coordinates xt = x - x0, yt = y - y0 on the
    (ny, nx) slice, built once per mesh and read-only: xt, yt, xt yt,
    xt^2/2, yt^2/2, xt^2 yt/2, xt yt^2/2, xt^3/6 and yt^3/6."""
    X, Y = mesh.xy()
    xt, yt = X - mesh.x0, Y - mesh.y0
    x2, y2 = xt**2 / 2, yt**2 / 2
    mono = (xt, yt, xt * yt, x2, y2, x2 * yt, xt * y2, xt**3 / 6, yt**3 / 6)
    for arr in mono:
        arr.flags.writeable = False
    return mono


def _particular_field(mesh: Mesh, div_coeffs, curl_coeffs) -> VectorField2:
    """Closed-form polynomial field with bilinear divergence and curl.

    Solutions with corner-incompatible sources (nonzero div/curl where two
    Dirichlet potential edges meet) develop r^2 log r potentials that degrade
    the split to O(h); subtracting this field first restores O(h^2).
    """
    xt, yt, xy, x2, y2, x2y, xy2, x3, y3 = _slice_monomials(mesh)
    da, db_, dg, dd = div_coeffs
    ca, cb, cg, cd = curl_coeffs
    # monomials on the slice: each per-slice coefficient then costs one
    # multiply over the volume
    # divergence part: (int d dxt, 0) plus a curl-free fix keeping curl zero
    ux = da * xt + db_ * x2 + dg * xy + dd * x2y
    uy = dg * x2 + dd * x3
    # curl part: (-int c dyt, 0) plus a divergence-free fix keeping div zero
    vx = -(ca * yt + cb * xy + cg * y2 + cd * xy2)
    vy = cb * y2 + cd * y3
    return VectorField2(mesh, ux + vx, uy + vy)


def _gamma_dirichlet_from_tangential(mesh: Mesh, g: dict[str, np.ndarray]):
    """Integrate a closed tangential trace into single-valued Dirichlet data.

    Returns per-face value arrays (natural order, per slice for (nzeta, nface)
    input).  The closure defect of the contour integral is spread linearly in
    arclength so the data stays single-valued even under O(h^2)-inconsistent
    input.
    """
    h_of = {"y_lo": mesh.hx, "x_hi": mesh.hy, "y_hi": mesh.hx, "x_lo": mesh.hy}
    path = gamma_ccw_faces(mesh)
    incs, steps = [], []
    for f, j, _, rev in path:
        arr = np.asarray(g[f], dtype=float)
        arr = arr[..., ::-1] if rev else arr
        incs.append(0.5 * h_of[f] * (arr[..., :-1] + arr[..., 1:]))
        steps.append(np.full(len(j) - 1, h_of[f]))
    incs = np.concatenate(incs, axis=-1)
    zero = np.zeros(incs.shape[:-1] + (1,))
    values = np.concatenate([zero, np.cumsum(incs, axis=-1)], axis=-1)
    arcs = np.concatenate([[0.0], np.cumsum(np.concatenate(steps))])
    values = values - values[..., -1:] * arcs / arcs[-1]

    # map the open path (last node = first node) back onto per-face arrays
    out = {}
    cursor = 0
    npath = values.shape[-1] - 1
    for f, j, _, rev in path:
        vals = values[..., (cursor + np.arange(len(j))) % npath]
        out[f] = vals[..., ::-1] if rev else vals
        cursor += len(j) - 1
    return out


def solve_divcurl_2d(
    div_src: ScalarField,
    curl_src: ScalarField,
    tangential_data: dict[str, np.ndarray],
    circulation=None,
) -> VectorField2:
    """Reconstruct A from div A, curl A and A.tau on Gamma, on one transverse
    slice or on every slice of a volume at once.

    For a volume, ``tangential_data`` holds (nzeta, nface) arrays.  The
    tangential trace determines the solution, so a ``circulation`` is never
    imposed.  When one is given (one value per slice for a volume), it is
    checked against the integral of curl_src (Green's theorem) first, and a
    gross mismatch raises IncompatibleDataError.  The field chain gives none:
    its data agree only up to discretization, and its order audit reports the
    achieved circulation instead.
    """
    mesh = same_mesh(div_src, curl_src)
    div, curl = div_src.values, curl_src.values
    if div.shape != curl.shape:
        raise ValueError("div and curl sources must have the same shape")

    if circulation is not None:
        circulation = np.asarray(circulation, dtype=float)
        area_curl = mesh.integrate_2d(curl)
        area = mesh.a * mesh.b
        # judge the mismatch against the full source amplitude, not just the
        # curl channel, so discrete-noise sources with tiny curl do not trip it
        scale = np.maximum.reduce([
            np.abs(area_curl),
            np.abs(curl).max(axis=(-2, -1)) * area,
            np.abs(div).max(axis=(-2, -1)) * area,
            np.full(np.shape(area_curl), 1e-12),
        ])
        gap = np.abs(circulation - area_curl)
        if np.any(gap > np.maximum(COMPAT_RTOL * scale, 1e-12)):
            k = np.argmax(gap)
            raise IncompatibleDataError(
                f"circulation {np.broadcast_to(circulation, gap.shape).flat[k]:.6e} "
                f"inconsistent with curl integral {np.ravel(area_curl)[k]:.6e}"
            )

    # peel off the corner-bilinear source content analytically so the
    # remaining potential problems are corner-compatible (O(h^2) split)
    xt, yt, xy = _slice_monomials(mesh)[:3]
    dc = _corner_bilinear(mesh, div)
    cc = _corner_bilinear(mesh, curl)
    A0 = _particular_field(mesh, dc, cc)
    div_rem = div - (dc[0] + dc[1] * xt + dc[2] * yt + dc[3] * xy)
    curl_rem = curl - (cc[0] + cc[1] * xt + cc[2] * yt + cc[3] * xy)
    t0 = boundary_tangential_trace(A0)

    if curl_rem.any():
        q = solve_poisson_2d(
            ScalarField(mesh, -curl_rem), BoundarySpec.uniform(DIRICHLET, 0.0)
        )
        A_q = curl_perp_scalar(q)
        qx, qy = A_q.x, A_q.y
        t_q = boundary_tangential_trace(A_q)
    else:
        # q = 0 and its curl is (+0.0, -0.0): the scalars keep the zero signs
        # those terms gave
        qx, qy = 0.0, -0.0
        t_q = {f: face_tangent(f)[0] * qx + face_tangent(f)[1] * qy for f in FACE_ORDER}
    g_p = {
        f: np.asarray(tangential_data[f], dtype=float) - t0[f] - t_q[f]
        for f in FACE_ORDER
    }

    p_gamma = _gamma_dirichlet_from_tangential(mesh, g_p)
    bc_p = BoundarySpec({f: FaceBC(DIRICHLET, p_gamma[f]) for f in FACE_ORDER})
    p = solve_poisson_2d(ScalarField(mesh, div_rem), bc_p)
    A_p = grad_perp(p)
    return VectorField2(mesh, A0.x + A_p.x + qx, A0.y + A_p.y + qy)
