"""Reusable elliptic kernels: 2D Poisson, 3D anisotropic Poisson, 2D div-curl.

The scalar solvers discretize  sum_d c_d d^2u/dx_d^2 = f  on the tensor grid
with per-face Dirichlet or Neumann conditions, at least one face Dirichlet:
all-Neumann data fix u only up to a constant and are refused.  Dirichlet
nodes drop out of the unknowns and Neumann faces are eliminated through
ghost nodes, so the operator is a Kronecker sum of 1D second differences,
one per axis, and any mix of face kinds keeps that structure.  Each 1D
operator turns symmetric when scaled by the square root of its dual-cell
weights (1/2 at end nodes); its eigendecomposition is cached.  A solve is
then one contraction per axis into the joint eigenbasis, a division by the
summed eigenvalues, and one contraction per axis back, each one GEMM
(``operators._along``): the fast diagonalization method (Lynch, Rice &
Thomas, Numer. Math. 6, 1964), direct and exact to rounding.  The 2D solver
runs the same kernel on the trailing two axes, so a (nzeta, ny, nx) volume
solves every transverse slice in one call.

The div-curl solver prescribes div A, curl A and the tangential trace A.tau
on Gamma.  It first peels off the corner-bilinear part of both sources as a
closed-form polynomial field: each corner fit, and each half of that field,
is one product of the slices' corner coefficients with a matrix cached per
mesh.  It splits the rest A = grad p + curl q:  q absorbs the curl source
through a homogeneous Dirichlet solve (its trace carries the full
circulation by Green's theorem; with no curl left after the corner-bilinear
part, q is zero and not solved for), and p gets Dirichlet data integrated
from the remaining tangential trace along Gamma.  No circulation is imposed
or checked: the tangential trace fixes it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import ScalarField, VectorField2, same_mesh
from .mesh import FACE_AXIS, FACE_ORDER, Mesh, face_tangent
from .operators import (_along, axis_index, boundary_tangential_trace, curl_perp_scalar,
                        grad_perp)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# array axis, counted from the end -> its (low, high) faces
_AXIS_FACES = {ax: tuple(f for f, (a, _) in FACE_AXIS.items() if a == ax) for ax in (-1, -2, -3)}


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
        names = FACE_AXIS if volumetric else FACE_ORDER
        return cls({f: FaceBC(kind, value) for f in names})

    def kind(self, name: str) -> str:
        return self.faces[name].kind


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
    Dirichlet values on its faces, written in face order (a later face
    overwrites the edge nodes it shares with an earlier one), ``g`` the
    right-hand side on the unknowns ``u[inner]``, and ``lifted`` whether a
    Dirichlet face carries data.
    Neumann fluxes enter ``g`` on the end layer of their axis (the ghost
    elimination adds 2*c*v/h on the operator side).  Dirichlet values enter
    through the stencils of the unknowns next to their face: the first or
    last unknown layer of the axis, or its only layer, which takes both
    faces.  A node next to several faces sums their terms in axis order
    before its one subtraction, so every bit equals
    ``values[inner] - _apply(u)[inner]``.  Faces of scalar value 0.0 add
    nothing to ``g``, and ``values`` is copied only when some face changes it.
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
        ax, end = FACE_AXIS[name]
        zero = _is_zero(fbc.value)
        if fbc.kind == DIRICHLET:
            u[at(ax, end)] = fbc.value
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
) -> np.ndarray:
    """Solve sum_d c_d d^2u/dx_d^2 = values over the trailing len(spacings)
    axes; leading axes are independent problems.  Returns the full nodal
    array including Dirichlet values."""
    nd = len(spacings)
    axes = range(-nd, 0)
    u, g, kinds, inner, _ = _boundary_rhs(values, spacings, coeffs, bc)
    if all(k == (NEUMANN, NEUMANN) for k in kinds):
        raise ValueError("all faces Neumann: the solution is fixed only up to a "
                         "constant; give at least one face Dirichlet")
    eigs = [_axis_eig(u.shape[ax], spacings[ax], coeffs[ax], *kinds[ax]) for ax in axes]
    x = g
    for ax, (_, to_modes, _) in zip(axes, eigs):
        x = _along(to_modes, x, ax)
    x = x / functools.reduce(np.add.outer, [e[0] for e in eigs])
    for ax, (_, _, from_modes) in zip(axes, eigs):
        x = _along(from_modes, x, ax)

    u[inner] = x
    return u


def _solve_info(u: np.ndarray, values, spacings, coeffs, bc: BoundarySpec) -> dict:
    """Method and relative residual of the solution ``u`` of
    :func:`_solve_scalar` for the same problem: the dual-cell weighted L2
    norm of the operator on the unknowns minus the right-hand side there,
    over that of the right-hand side (0.0 for a zero right-hand side)."""
    _, g, kinds, inner, lifted = _boundary_rhs(values, spacings, coeffs, bc)
    x = u[inner]
    # the operator on x alone, zero on the faces: u itself when no Dirichlet
    # face carries data
    x_full = u
    if lifted:
        x_full = np.zeros(u.shape)
        x_full[inner] = x
    w = functools.reduce(np.multiply.outer, [_end_weights(m, *k)
                                             for m, k in zip(x.shape[-len(kinds):], kinds)])
    res = w * (_apply(x_full, spacings, coeffs, kinds)[inner] - g)
    bn = np.linalg.norm(w * g)
    return {"method": "fdm",
            "relative_residual": float(np.linalg.norm(res) / bn) if bn > 0 else 0.0}


def solve_poisson_2d(rhs: ScalarField, bc: BoundarySpec) -> ScalarField:
    """Solve lap_perp u = rhs on one transverse slice, or on every slice of a
    volume at once (face data then per slice, shaped (nzeta, nface))."""
    m = rhs.mesh
    return ScalarField(m, _solve_scalar(rhs.values, (m.hy, m.hx), (1.0, 1.0), bc))


def solve_anisotropic_poisson_3d(
    kappa: float,
    rhs: ScalarField,
    bc: BoundarySpec,
    info_out: dict | None = None,
) -> ScalarField:
    """Solve (lap_perp + kappa d^2/dzeta^2) u = rhs over Omega x (0, Z).

    ``info_out``, if given, receives the solve's ``method`` and
    ``relative_residual`` (:func:`_solve_info`)."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa = 1 - beta^2 must lie in (0, 1), got {kappa}")
    if rhs.values.ndim != 3:
        raise ValueError("solve_anisotropic_poisson_3d expects a volumetric field")
    m = rhs.mesh
    operator = (m.hzeta, m.hy, m.hx), (kappa, 1.0, 1.0)
    vals = _solve_scalar(rhs.values, *operator, bc)
    if info_out is not None:
        info_out.update(_solve_info(vals, rhs.values, *operator, bc))
    return ScalarField(m, vals)


# -- div-curl reconstruction ------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _slice_monomials(mesh: Mesh) -> np.ndarray:
    """Read-only (20, ny*nx) row matrix, built once per mesh, of monomials of
    the local coordinates xt = x - x0, yt = y - y0 on the flattened slice.
    Rows 0-3 are the corner-bilinear rows 1, xt, yt, xt yt.  Rows 4-11, then
    12-19, are the x and then the y component of :func:`_particular_field`
    for each corner coefficient of a bilinear divergence, then curl."""
    X, Y = mesh.xy()
    xt, yt = (X - mesh.x0).ravel(), (Y - mesh.y0).ravel()
    x2, y2, xy, zero = xt**2 / 2, yt**2 / 2, xt * yt, np.zeros_like(xt)
    rows = np.stack([
        np.ones_like(xt), xt, yt, xy,
        # divergence part: (int d dxt, 0) plus a curl-free fix keeping curl zero
        xt, x2, xy, x2 * yt, zero, zero, x2, xt**3 / 6,
        # curl part: (-int c dyt, 0) plus a divergence-free fix keeping div zero
        -yt, -xy, -y2, -xt * y2, zero, y2, zero, yt**3 / 6])
    rows.flags.writeable = False
    return rows


def _on_slices(mesh: Mesh, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] * rows[..., k, :] on every slice, as one product
    (or one batch over the leading axes of ``rows``), shaped
    (*rows.shape[:-2], *coeffs.shape[:-1], ny, nx)."""
    out = coeffs @ rows
    return out.reshape(out.shape[:-1] + (mesh.ny, mesh.nx))


def _corner_bilinear(mesh: Mesh, values: np.ndarray):
    """``(coeffs, rest)`` of the bilinear interpolant alpha + beta*xt +
    gamma*yt + delta*xt*yt of the four corner values of each slice: the
    coefficients shaped (..., 4), and ``values`` minus the interpolant."""
    c00, c10 = values[..., 0, 0], values[..., 0, -1]
    c01, c11 = values[..., -1, 0], values[..., -1, -1]
    a, b = mesh.a, mesh.b
    coeffs = np.stack([c00, (c10 - c00) / a, (c01 - c00) / b,
                       (c11 - c10 - c01 + c00) / (a * b)], axis=-1)
    return coeffs, values - _on_slices(mesh, coeffs, _slice_monomials(mesh)[:4])


def _particular_field(mesh: Mesh, div_coeffs, curl_coeffs) -> VectorField2:
    """Closed-form polynomial field with bilinear divergence and curl.

    Solutions with corner-incompatible sources (nonzero div/curl where two
    Dirichlet potential edges meet) develop r^2 log r potentials that degrade
    the split to O(h); subtracting this field first restores O(h^2).
    The div half and the curl half are one product each with rows of
    :func:`_slice_monomials`.  ``curl_coeffs`` None stands for a zero curl
    and forms nothing: a product never yields -0.0, so adding the +0.0 of a
    zero curl's product would change no bit.
    """
    rows = _slice_monomials(mesh)
    A = _on_slices(mesh, div_coeffs, rows[4:12].reshape(2, 4, -1))
    if curl_coeffs is not None:
        A += _on_slices(mesh, curl_coeffs, rows[12:].reshape(2, 4, -1))
    return VectorField2(mesh, A[0], A[1])


def _gamma_dirichlet_from_tangential(mesh: Mesh, g: dict[str, np.ndarray]):
    """Integrate a closed tangential trace into single-valued Dirichlet data.

    Returns per-face value arrays (natural order, per slice for (nzeta, nface)
    input).  The closure defect of the contour integral is spread linearly in
    arclength so the data stays single-valued even under O(h^2)-inconsistent
    input.
    """
    # the counterclockwise walk runs against the node order on the faces
    # whose tangent points toward lower x or y
    back = {f: sum(face_tangent(f)) < 0 for f in FACE_ORDER}
    incs, steps = [], []
    for f in FACE_ORDER:
        arr = np.asarray(g[f], dtype=float)
        arr = arr[..., ::-1] if back[f] else arr
        h = mesh.face_step(f)
        incs.append(0.5 * h * (arr[..., :-1] + arr[..., 1:]))
        steps.append(np.full(mesh.face_size(f) - 1, h))
    incs = np.concatenate(incs, axis=-1)
    zero = np.zeros(incs.shape[:-1] + (1,))
    values = np.concatenate([zero, np.cumsum(incs, axis=-1)], axis=-1)
    arcs = np.concatenate([[0.0], np.cumsum(np.concatenate(steps))])
    values = values - values[..., -1:] * arcs / arcs[-1]

    # map the open path (last node = first node) back onto per-face arrays
    out = {}
    cursor = 0
    npath = values.shape[-1] - 1
    for f in FACE_ORDER:
        size = mesh.face_size(f)
        vals = values[..., (cursor + np.arange(size)) % npath]
        out[f] = vals[..., ::-1] if back[f] else vals
        cursor += size - 1
    return out


def solve_divcurl_2d(
    div_src: ScalarField,
    curl_src: ScalarField | None,
    tangential_data: dict[str, np.ndarray],
) -> VectorField2:
    """Reconstruct A from div A, curl A and A.tau on Gamma, on one transverse
    slice or on every slice of a volume at once.

    For a volume, ``tangential_data`` holds (nzeta, nface) arrays.
    ``curl_src`` None stands for a zero curl, which costs no curl work; the
    result has the bits of an explicit +0.0 curl.  The tangential trace
    determines the solution, circulation included; the circulation a solved
    order achieves is reported by ``verify.chain_audit``.
    """
    mesh = div_src.mesh if curl_src is None else same_mesh(div_src, curl_src)
    div = div_src.values
    if curl_src is not None and div.shape != curl_src.values.shape:
        raise ValueError("div and curl sources must have the same shape")

    # peel off the corner-bilinear source content analytically so the
    # remaining potential problems are corner-compatible (O(h^2) split)
    dc, div_rem = _corner_bilinear(mesh, div)
    cc, curl_rem = (None, None) if curl_src is None else _corner_bilinear(mesh, curl_src.values)
    A0 = _particular_field(mesh, dc, cc)
    t0 = boundary_tangential_trace(A0)

    g_p = {f: np.asarray(tangential_data[f], dtype=float) - t0[f] for f in FACE_ORDER}
    qx = qy = 0.0  # q = 0 when no curl remains
    if curl_rem is not None and curl_rem.any():
        q = solve_poisson_2d(
            ScalarField(mesh, -curl_rem), BoundarySpec.uniform(DIRICHLET, 0.0)
        )
        A_q = curl_perp_scalar(q)
        qx, qy = A_q.x, A_q.y
        t_q = boundary_tangential_trace(A_q)
        g_p = {f: g_p[f] - t_q[f] for f in FACE_ORDER}

    p_gamma = _gamma_dirichlet_from_tangential(mesh, g_p)
    bc_p = BoundarySpec({f: FaceBC(DIRICHLET, p_gamma[f]) for f in FACE_ORDER})
    p = solve_poisson_2d(ScalarField(mesh, div_rem), bc_p)
    A_p = grad_perp(p)
    return VectorField2(mesh, A0.x + A_p.x + qx, A0.y + A_p.y + qy)
