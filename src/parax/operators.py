"""Second-order discrete transverse operators and boundary functionals.

Stencils are centered in the interior and one-sided second order at the
boundary, so every first-derivative operator is exact on polynomials of
degree <= 2 and the discrete operator identities

    div (A x e_z) = curl A,   curl (A x e_z) = -div A,   curl curl phi = -lap phi

hold to rounding on such fields.  All operators accept (ny, nx) slices or
(nzeta, ny, nx) volumes and act on the trailing two axes; zeta derivatives
act on axis 0 of volumetric fields.

The 4th-order source-assembly derivatives (``high_order``, :func:`dzeta2`)
are cached (n, n) matrices applied along their axis by one GEMM
(:func:`_along`), as the elliptic solvers apply their eigenbases.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .fields import ScalarField, VectorField2
from .mesh import FACE_AXIS, FACE_NORMALS, FACE_ORDER, MIN_NZETA, Mesh, face_tangent

_AX_X, _AX_Y, _AX_ZETA = -1, -2, 0


def axis_index(ndim: int, axis: int):
    """Index builder for one axis of an ``ndim``-dimensional array: ``ix(k)``
    selects ``k`` (an int or a slice) along ``axis`` and everything along the
    others, the view ``np.moveaxis(arr, axis, 0)[k]`` names without the
    transposes."""
    lead = (slice(None),) * (axis % ndim)
    return lambda k: lead + (k,)


def _d1(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered interior, one-sided second order at the ends: the arithmetic
    of ``np.gradient(arr, h, axis=axis, edge_order=2)`` without its general
    (non-uniform spacing) set-up."""
    ix = axis_index(arr.ndim, axis)
    out = np.empty_like(arr, dtype=float)
    mid = out[ix(np.s_[1:-1])]
    np.subtract(arr[ix(np.s_[2:])], arr[ix(np.s_[:-2])], out=mid)
    mid /= 2.0 * h
    out[ix(0)] = (-1.5 / h) * arr[ix(0)] + (2.0 / h) * arr[ix(1)] + (-0.5 / h) * arr[ix(2)]
    out[ix(-1)] = (0.5 / h) * arr[ix(-3)] + (-2.0 / h) * arr[ix(-2)] + (1.5 / h) * arr[ix(-1)]
    return out


def _d2(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    ix = axis_index(arr.ndim, axis)
    out = np.empty_like(arr)
    out[ix(np.s_[1:-1])] = arr[ix(np.s_[2:])] - 2.0 * arr[ix(np.s_[1:-1])] + arr[ix(np.s_[:-2])]
    # one-sided 4-point second derivative, exact for cubics
    out[ix(0)] = 2.0 * arr[ix(0)] - 5.0 * arr[ix(1)] + 4.0 * arr[ix(2)] - arr[ix(3)]
    out[ix(-1)] = 2.0 * arr[ix(-1)] - 5.0 * arr[ix(-2)] + 4.0 * arr[ix(-3)] - arr[ix(-4)]
    return out / h**2


def grad_perp(phi: ScalarField, high_order: bool = False) -> VectorField2:
    m = phi.mesh
    d1 = (lambda a, h, ax: _d_high(a, h, ax, 1)) if high_order else _d1
    return VectorField2(m, d1(phi.values, m.hx, _AX_X), d1(phi.values, m.hy, _AX_Y))


def div_perp(A: VectorField2) -> ScalarField:
    m = A.mesh
    return ScalarField(m, _d1(A.x, m.hx, _AX_X) + _d1(A.y, m.hy, _AX_Y))


def curl_perp_scalar(phi: ScalarField) -> VectorField2:
    """curl of a scalar: (d phi/dy, -d phi/dx)."""
    m = phi.mesh
    return VectorField2(m, _d1(phi.values, m.hy, _AX_Y), -_d1(phi.values, m.hx, _AX_X))


def curl_perp_vector(A: VectorField2) -> ScalarField:
    """Scalar curl of a transverse vector: dAy/dx - dAx/dy."""
    m = A.mesh
    return ScalarField(m, _d1(A.y, m.hx, _AX_X) - _d1(A.x, m.hy, _AX_Y))


def laplace_perp(phi: ScalarField) -> ScalarField:
    m = phi.mesh
    return ScalarField(m, _d2(phi.values, m.hx, _AX_X) + _d2(phi.values, m.hy, _AX_Y))


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
def _d_matrix(n: int, h: float, order: int) -> np.ndarray:
    """Read-only (n, n) matrix of the 4th-order source-assembly derivative of
    ``order`` (1 or 2) on n nodes of spacing h, built once per key.

    Row i holds ``_fd_weights(offsets, order) / h**order`` on the offsets of
    its stencil.  With n > order + 4 the interior rows take the centered
    5-point formula and the two rows at each end one-sided (order + 4)-point
    ones, 4th order throughout.  On fewer nodes the interior takes the
    centered 3-point formula and the one row at each end a one-sided
    min(n, order + 3)-point one.
    """
    half, width = (2, order + 4) if n > order + 4 else (1, min(n, order + 3))
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


def _d_high(arr: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Fourth-order derivative for source-term assembly: the cached
    :func:`_d_matrix` applied along ``axis``.

    Keeping source construction an order more accurate than the operator
    removes correlated truncation noise from manufactured-solution studies
    without changing the scheme.
    """
    a = np.asarray(arr, dtype=float)
    return _along(_d_matrix(a.shape[axis], h, order), a, axis)


def dzeta(f, high_order: bool = False):
    """First zeta-derivative of a volumetric field (scalar or vector).

    ``high_order`` selects the 4th-order source-assembly stencils.
    """
    m = f.mesh
    d1 = (lambda a, h, ax: _d_high(a, h, ax, 1)) if high_order else _d1
    if isinstance(f, VectorField2):
        return VectorField2(m, d1(f.x, m.hzeta, _AX_ZETA), d1(f.y, m.hzeta, _AX_ZETA))
    return ScalarField(m, d1(f.values, m.hzeta, _AX_ZETA))


def dzeta2(f):
    """Second zeta-derivative of a volumetric field by the 4th-order
    source-assembly matrix of :func:`_d_matrix`: the centered 5-point formula
    inside and one-sided 6-point formulas on the two rows at each end, or
    with fewer than 7 zeta nodes, 3-point inside and one-sided
    min(nzeta, 5)-point at the ends."""
    m = f.mesh
    if m.nzeta < MIN_NZETA:
        raise ValueError(f"the second zeta derivative needs nzeta >= {MIN_NZETA}, got {m.nzeta}")
    if isinstance(f, VectorField2):
        return VectorField2(m, _d_high(f.x, m.hzeta, _AX_ZETA, 2),
                            _d_high(f.y, m.hzeta, _AX_ZETA, 2))
    return ScalarField(m, _d_high(f.values, m.hzeta, _AX_ZETA, 2))


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
    return arr[axis_index(arr.ndim, axis)(end)]


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
