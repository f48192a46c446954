"""Discrete transverse operators and boundary functionals.

Every derivative along an axis is one cached, read-only (n, n) matrix
(:func:`_d_matrix`) applied along that axis by one GEMM (:func:`_along`),
as the elliptic solvers apply their eigenbases and their 1D operators.  The
matrix rows are finite-difference weights.  The second-order family is
centered inside and one-sided second order at the ends, so every
first-derivative operator is exact on polynomials of degree <= 2 and the
discrete operator identities

    div (A x e_z) = curl A,   curl (A x e_z) = -div A,   curl curl phi = -lap phi

hold to rounding on such fields.  The 4th-order family (``high_order``,
:func:`dzeta2`) assembles the chain's source terms.  All operators accept
(ny, nx) slices or (nzeta, ny, nx) volumes and act on the trailing two
axes; zeta derivatives act on axis 0 of volumetric fields.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .fields import ScalarField, VectorField2
from .mesh import FACE_AXIS, FACE_NORMALS, FACE_ORDER, MIN_NZETA, Mesh, face_tangent

_AX_X, _AX_Y, _AX_ZETA = -1, -2, 0


def grad_perp(phi: ScalarField, high_order: bool = False) -> VectorField2:
    m = phi.mesh
    return VectorField2(m, _derivative(phi.values, m.hx, _AX_X, 1, high_order),
                        _derivative(phi.values, m.hy, _AX_Y, 1, high_order))


def div_perp(A: VectorField2) -> ScalarField:
    m = A.mesh
    return ScalarField(m, _derivative(A.x, m.hx, _AX_X, 1) + _derivative(A.y, m.hy, _AX_Y, 1))


def curl_perp_scalar(phi: ScalarField) -> VectorField2:
    """curl of a scalar: (d phi/dy, -d phi/dx)."""
    m = phi.mesh
    return VectorField2(m, _derivative(phi.values, m.hy, _AX_Y, 1),
                        -_derivative(phi.values, m.hx, _AX_X, 1))


def curl_perp_vector(A: VectorField2) -> ScalarField:
    """Scalar curl of a transverse vector: dAy/dx - dAx/dy."""
    m = A.mesh
    return ScalarField(m, _derivative(A.y, m.hx, _AX_X, 1) - _derivative(A.x, m.hy, _AX_Y, 1))


def laplace_perp(phi: ScalarField) -> ScalarField:
    m = phi.mesh
    return ScalarField(m, _derivative(phi.values, m.hx, _AX_X, 2)
                       + _derivative(phi.values, m.hy, _AX_Y, 2))


def cross_ez(A: VectorField2) -> VectorField2:
    """A x e_z = (A_y, -A_x); applying it twice negates the field."""
    return VectorField2(A.mesh, A.y.copy(), -A.x.copy())


@functools.cache
def _fd_weights(offsets: tuple[int, ...], order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order on integer
    node offsets (unit spacing): order! times the x^order coefficient of each
    node's Lagrange basis polynomial, formed in exact rational arithmetic and
    rounded once.  Formed once per stencil; the cached array is read-only."""
    w = []
    for j, oj in enumerate(offsets):
        poly = [Fraction(1)]  # the basis polynomial's coefficients, x^0 first
        for om in offsets[:j] + offsets[j + 1:]:
            # times (x - om) / (oj - om)
            poly = [(lo - om * hi) / (oj - om) for lo, hi in zip([0, *poly], [*poly, 0])]
        w.append(float(math.factorial(order) * poly[order]))
    w = np.array(w)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=32)
def _d_matrix(n: int, h: float, order: int, high_order: bool = False) -> np.ndarray:
    """Read-only (n, n) matrix of the derivative of ``order`` (1 or 2) on n
    nodes of spacing h, built once per key.

    Row i holds ``_fd_weights(offsets, order) / h**order`` on the offsets of
    its stencil.  The second-order family takes the centered 3-point formula
    inside and a one-sided (order + 2)-point one on the row at each end: the
    ends of ``np.gradient(edge_order=2)`` for the first derivative, exact on
    cubics for the second.  ``high_order`` selects the 4th-order
    source-assembly rows: with n > order + 4 the centered 5-point formula
    inside and one-sided (order + 4)-point ones on the two rows at each end;
    on fewer nodes the centered 3-point formula inside and a one-sided
    min(n, order + 3)-point one on the row at each end.
    """
    if high_order and n > order + 4:
        half, width = 2, order + 4
    else:
        half, width = 1, min(n, order + (3 if high_order else 2))
    D = np.zeros((n, n))
    center = _fd_weights(tuple(range(-half, half + 1)), order) / h**order
    for i in range(half, n - half):
        D[i, i - half:i + half + 1] = center
    for row in range(half):
        offsets = range(-row, width - row)
        D[row, :width] = _fd_weights(tuple(offsets), order) / h**order
        D[n - 1 - row, n - width:] = _fd_weights(tuple(-k for k in reversed(offsets)),
                                                 order) / h**order
    D.flags.writeable = False
    return D


def _along(M: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Apply the square matrix M along one axis of g, as one GEMM or one
    batch of GEMMs over the leading axes."""
    g = np.ascontiguousarray(g)
    axis %= g.ndim
    n = g.shape[axis]
    if axis == g.ndim - 1:
        return (g.reshape(-1, n) @ M.T).reshape(g.shape)
    lead = math.prod(g.shape[:axis])
    return np.matmul(M, g.reshape(lead, n, -1)).reshape(g.shape)


def _derivative(arr: np.ndarray, h: float, axis: int, order: int,
                high_order: bool = False) -> np.ndarray:
    """Derivative of ``order`` along ``axis``: the cached :func:`_d_matrix`
    applied by one GEMM.

    ``high_order`` selects the 4th-order rows for source-term assembly:
    keeping source construction an order more accurate than the operator
    removes correlated truncation noise from manufactured-solution studies
    without changing the scheme.
    """
    a = np.asarray(arr, dtype=float)
    return _along(_d_matrix(a.shape[axis], h, order, high_order), a, axis)


def dzeta(f, high_order: bool = False):
    """First zeta-derivative of a volumetric field (scalar or vector).

    ``high_order`` selects the 4th-order source-assembly rows.
    """
    m = f.mesh
    if isinstance(f, VectorField2):
        return VectorField2(m, _derivative(f.x, m.hzeta, _AX_ZETA, 1, high_order),
                            _derivative(f.y, m.hzeta, _AX_ZETA, 1, high_order))
    return ScalarField(m, _derivative(f.values, m.hzeta, _AX_ZETA, 1, high_order))


def dzeta2(f):
    """Second zeta-derivative of a volumetric field by the 4th-order
    source-assembly rows of :func:`_d_matrix`: the centered 5-point formula
    inside and one-sided 6-point formulas on the two rows at each end, or
    with fewer than 7 zeta nodes, 3-point inside and one-sided
    min(nzeta, 5)-point at the ends."""
    m = f.mesh
    if m.nzeta < MIN_NZETA:
        raise ValueError(f"the second zeta derivative needs nzeta >= {MIN_NZETA}, got {m.nzeta}")
    if isinstance(f, VectorField2):
        return VectorField2(m, _derivative(f.x, m.hzeta, _AX_ZETA, 2, high_order=True),
                            _derivative(f.y, m.hzeta, _AX_ZETA, 2, high_order=True))
    return ScalarField(m, _derivative(f.values, m.hzeta, _AX_ZETA, 2, high_order=True))


def cumint_zeta(values: np.ndarray, mesh: Mesh, initial: np.ndarray | float = 0.0) -> np.ndarray:
    """Antiderivative along zeta (axis 0) by the composite trapezoid rule.

    out[0] = initial and out[k] = initial + sum_{j<k} hzeta * (v[j] + v[j+1]) / 2,
    the panels summed in order: the arithmetic of
    ``scipy.integrate.cumulative_trapezoid(v, dx=hzeta, axis=0, initial=0) + initial``.
    """
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    np.cumsum(mesh.hzeta * (v[1:] + v[:-1]) / 2.0, axis=0, out=out[1:])
    return out + np.asarray(initial)


# -- boundary traces and contour integrals -------------------------------------

def face_values(arr: np.ndarray, face: str) -> np.ndarray:
    """Values of a nodal array on one face of ``FACE_AXIS``, read as a view;
    on a transverse face, the nodes of ``mesh.face_nodes(face)`` in order.

    For volumetric input the result has shape (nzeta, nface).
    """
    axis, end = FACE_AXIS[face]
    return arr[(slice(None),) * (axis % arr.ndim) + (end,)]


def boundary_tangential_trace(A: VectorField2) -> dict[str, np.ndarray]:
    """A . tau per face (tau is the counterclockwise tangent), natural order."""
    out = {}
    for f in FACE_ORDER:
        tx, ty = face_tangent(f)
        out[f] = tx * face_values(A.x, f) + ty * face_values(A.y, f)
    return out


def boundary_normal_trace(A: VectorField2) -> dict[str, np.ndarray]:
    """A . nu per face (outward unit normal), natural order."""
    out = {}
    for f in FACE_ORDER:
        nx_, ny_ = FACE_NORMALS[f]
        out[f] = nx_ * face_values(A.x, f) + ny_ * face_values(A.y, f)
    return out


def _contour_integral(mesh: Mesh, traces: dict[str, np.ndarray]) -> np.ndarray:
    total = 0.0
    for f in FACE_ORDER:
        # in zeta-major memory order each slice's sum runs node by node along
        # the face, which fixes the rounding of the reported integrals
        total = total + np.trapezoid(np.asfortranarray(traces[f]), dx=mesh.face_step(f), axis=-1)
    return total


def circulation(A: VectorField2) -> np.ndarray:
    """Contour integral of A . tau along Gamma (per slice for volumetric A)."""
    return _contour_integral(A.mesh, boundary_tangential_trace(A))


def flux(A: VectorField2) -> np.ndarray:
    """Contour integral of A . nu along Gamma (per slice for volumetric A)."""
    return _contour_integral(A.mesh, boundary_normal_trace(A))


def norms(values: np.ndarray, mesh: Mesh) -> dict[str, float]:
    """Discrete L2 (volume-weighted) and max norms over the nodes one row in
    from each face."""
    v = np.asarray(values)
    w = mesh.dual_area_2d if v.ndim == 2 else mesh.dual_volume_3d
    keep = (slice(1, -1),) * v.ndim
    return weighted_norms(v[keep], w[keep])


def weighted_norms(values: np.ndarray, weights: np.ndarray) -> dict[str, float]:
    """L2 norm weighted by ``weights`` (dual cell sizes) and max norm."""
    return {
        "l2": float(np.sqrt(np.sum(values**2 * weights))),
        "max": float(np.max(np.abs(values))) if values.size else 0.0,
    }
