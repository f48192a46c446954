"""Second-order discrete transverse operators and boundary functionals.

Stencils are centered in the interior and one-sided second order at the
boundary, so every first-derivative operator is exact on polynomials of
degree <= 2 and the discrete operator identities

    div (A x e_z) = curl A,   curl (A x e_z) = -div A,   curl curl phi = -lap phi

hold to rounding on such fields.  All operators accept (ny, nx) slices or
(nzeta, ny, nx) volumes and act on the trailing two axes; zeta derivatives
act on axis 0 of volumetric fields.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import ScalarField, VectorField2
from .mesh import FACE_NORMALS, FACE_ORDER, Mesh, face_tangent

_AX_X, _AX_Y, _AX_ZETA = -1, -2, 0


def _d1(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered interior, one-sided second order at the ends: the arithmetic
    of ``np.gradient(arr, h, axis=axis, edge_order=2)`` without its general
    (non-uniform spacing) set-up."""
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a, dtype=float)
    mid = out[1:-1]
    np.subtract(a[2:], a[:-2], out=mid)
    mid /= 2.0 * h
    out[0] = (-1.5 / h) * a[0] + (2.0 / h) * a[1] + (-0.5 / h) * a[2]
    out[-1] = (0.5 / h) * a[-3] + (-2.0 / h) * a[-2] + (1.5 / h) * a[-1]
    return np.moveaxis(out, 0, axis)


def _d2(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    # one-sided 4-point second derivative, exact for cubics
    out[0] = 2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]
    out[-1] = 2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]
    return np.moveaxis(out, 0, axis) / h**2


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
    node offsets (unit spacing), from the Vandermonde moment conditions.
    Solved once per stencil; the cached array is read-only."""
    V = np.vander(np.asarray(offsets, dtype=float), increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = float(math.factorial(order))
    w = np.linalg.solve(V, rhs)
    w.flags.writeable = False
    return w


def _d_high(arr: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Fourth-order derivative for source-term assembly.

    Interior rows use the centered 5-point formulas; the two rows at each
    end use one-sided 4th-order stencils.  Keeping source construction an
    order more accurate than the operator removes correlated truncation
    noise from manufactured-solution studies without changing the scheme.
    """
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    n = a.shape[0]
    width = 5 if order == 1 else 6
    if n < width + 1:
        fallback = _d1_cubic_ends if order == 1 else _d2_cubic_ends
        return fallback(arr, h, axis)
    out = np.empty_like(a)
    if order == 1:
        out[2:-2] = (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)
    else:
        out[2:-2] = (-a[:-4] + 16.0 * a[1:-3] - 30.0 * a[2:-2]
                     + 16.0 * a[3:-1] - a[4:]) / (12.0 * h**2)
    scale = h**order
    for row in (0, 1):
        offs = tuple(range(-row, width - row))
        w = _fd_weights(offs, order)
        lo = sum(wk * a[row + off] for wk, off in zip(w, offs))
        hi = sum(wk * a[n - 1 - row - off] for wk, off in zip(w, offs))
        out[row] = lo / scale
        out[n - 1 - row] = (hi if order == 2 else -hi) / scale
    return np.moveaxis(out, 0, axis)


def _d1_cubic_ends(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    # third-order one-sided end rows; keeps source-term construction from
    # polluting the otherwise smooth O(h^2) error profile at the zeta ends
    out = _d1(arr, h, axis)
    if arr.shape[axis] < 4:
        return out
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[0] = (-11.0 * a[0] + 18.0 * a[1] - 9.0 * a[2] + 2.0 * a[3]) / (6.0 * h)
    o[-1] = (11.0 * a[-1] - 18.0 * a[-2] + 9.0 * a[-3] - 2.0 * a[-4]) / (6.0 * h)
    return out


def _d2_cubic_ends(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = _d2(arr, h, axis)
    if arr.shape[axis] < 5:
        return out
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    c = np.array([35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0]) / h**2
    o[0] = c[0] * a[0] + c[1] * a[1] + c[2] * a[2] + c[3] * a[3] + c[4] * a[4]
    o[-1] = c[0] * a[-1] + c[1] * a[-2] + c[2] * a[-3] + c[3] * a[-4] + c[4] * a[-5]
    return out


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
    source-assembly stencils of :func:`_d_high`: the centered 5-point formula
    inside and one-sided 6-point formulas on the two rows at each end.  With
    fewer than 7 zeta nodes it falls back to :func:`_d2_cubic_ends`."""
    m = f.mesh
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

def face_values(arr: np.ndarray, mesh: Mesh, face: str) -> np.ndarray:
    """Values of a nodal array on one transverse face, natural order.

    For volumetric input the result has shape (nzeta, nface).
    """
    j, i = mesh.face_nodes(face)
    return arr[..., j, i]


def boundary_tangential_trace(A: VectorField2) -> dict[str, np.ndarray]:
    """A . tau per face (tau is the counterclockwise tangent), natural order."""
    out = {}
    for f in FACE_ORDER:
        tx, ty = face_tangent(f)
        out[f] = tx * face_values(A.x, A.mesh, f) + ty * face_values(A.y, A.mesh, f)
    return out


def boundary_normal_trace(A: VectorField2) -> dict[str, np.ndarray]:
    """A . nu per face (outward unit normal), natural order."""
    out = {}
    for f in FACE_ORDER:
        nx_, ny_ = FACE_NORMALS[f]
        out[f] = nx_ * face_values(A.x, A.mesh, f) + ny_ * face_values(A.y, A.mesh, f)
    return out


def _face_h(mesh: Mesh, face: str) -> float:
    return mesh.hx if face in ("y_lo", "y_hi") else mesh.hy


def _contour_integral(mesh: Mesh, traces: dict[str, np.ndarray]) -> np.ndarray:
    total = 0.0
    for f in FACE_ORDER:
        total = total + np.trapezoid(traces[f], dx=_face_h(mesh, f), axis=-1)
    return total


def circulation(A: VectorField2) -> np.ndarray:
    """Contour integral of A . tau along Gamma (per slice for volumetric A)."""
    return _contour_integral(A.mesh, boundary_tangential_trace(A))


def flux(A: VectorField2) -> np.ndarray:
    """Contour integral of A . nu along Gamma (per slice for volumetric A)."""
    return _contour_integral(A.mesh, boundary_normal_trace(A))


def gamma_ccw_faces(mesh: Mesh):
    """Counterclockwise traversal of Gamma as (face, j, i, reversed) tuples.

    Each face's index arrays are oriented along the traversal; y_hi and x_lo
    run against their natural order.
    """
    path = []
    for f in FACE_ORDER:
        j, i = mesh.face_nodes(f)
        rev = f in ("y_hi", "x_lo")
        if rev:
            j, i = j[::-1], i[::-1]
        path.append((f, j, i, rev))
    return path


def norms(
    values: np.ndarray,
    mesh: Mesh,
    interior_only: bool = True,
    collar: int = 1,
) -> dict[str, float]:
    """Discrete L2 (volume-weighted) and max norms over interior nodes.

    ``collar`` is the number of boundary rows excluded per face; residual
    evaluation uses 2 so that one-sided stencil rows never enter the norm.
    """
    v = np.asarray(values)
    w = mesh.dual_area_2d if v.ndim == 2 else mesh.dual_volume_3d
    if interior_only:
        keep = tuple(slice(collar, n - collar) for n in v.shape)
        v, w = v[keep], w[keep]
    return weighted_norms(v, w)


def weighted_norms(values: np.ndarray, weights: np.ndarray) -> dict[str, float]:
    """L2 norm weighted by ``weights`` (dual cell sizes) and max norm."""
    return {
        "l2": float(np.sqrt(np.sum(values**2 * weights))),
        "max": float(np.max(np.abs(values))) if values.size else 0.0,
    }
