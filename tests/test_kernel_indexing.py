"""The face traces index one axis by slice tuples; these tests pin them bit
for bit, zero signs included, to the fancy-index forms they replaced.  Every
derivative and every 1D solver operator is a cached matrix applied by one
GEMM: the derivative rows are pinned to the finite-difference weights
exactly, their polynomial exactness to rounding, and the applied results,
with the solver's boundary lift, to the ``np.moveaxis`` stencils and
whole-volume forms they replaced within rounding bounds.  Those forms are
kept here as references."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parax.elliptic import DIRICHLET, NEUMANN, FaceBC, _axis_operator
from parax.elliptic import _boundary_rhs, _end_weights, _solve_info, _unknown_range
from parax.elliptic import solve_anisotropic_poisson_3d
from parax.fields import ScalarField, VectorField2
from parax.mesh import FACE_NORMALS, FACE_ORDER, build_mesh, face_tangent
from parax.operators import (
    _along,
    _d_matrix,
    _derivative,
    _fd_weights,
    boundary_normal_trace,
    boundary_tangential_trace,
    circulation,
    face_values,
    flux,
)


# the faces of each array axis, counted from the end of (nzeta, ny, nx),
# written out apart from the mesh's face table
_AXIS_FACES = {-1: ("x_lo", "x_hi"), -2: ("y_lo", "y_hi"), -3: ("zeta_lo", "zeta_hi")}
_FACE_AXIS = {f: ax for ax, pair in _AXIS_FACES.items() for f in pair}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


def drawn(seed: int, shape) -> np.ndarray:
    """Normal values with a share of the entries, drawn from the seed
    (none, some, most or all), exact zeros of either sign."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0
    zero = rng.random(shape) < rng.choice([0.0, 0.3, 0.9, 1.0])
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return a


# -- references: the moveaxis and fancy-index forms ------------------------------

def _d2_ref(arr, h, axis):
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    out[0] = 2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]
    out[-1] = 2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]
    return np.moveaxis(out, 0, axis) / h**2


def _d1_cubic_ends_ref(arr, h, axis):
    out = np.gradient(arr, h, axis=axis, edge_order=2)
    if arr.shape[axis] < 4:
        return out
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[0] = (-11.0 * a[0] + 18.0 * a[1] - 9.0 * a[2] + 2.0 * a[3]) / (6.0 * h)
    o[-1] = (11.0 * a[-1] - 18.0 * a[-2] + 9.0 * a[-3] - 2.0 * a[-4]) / (6.0 * h)
    return out


def _d2_cubic_ends_ref(arr, h, axis):
    out = _d2_ref(arr, h, axis)
    if arr.shape[axis] < 5:
        return out
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    c = np.array([35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0]) / h**2
    o[0] = c[0] * a[0] + c[1] * a[1] + c[2] * a[2] + c[3] * a[3] + c[4] * a[4]
    o[-1] = c[0] * a[-1] + c[1] * a[-2] + c[2] * a[-3] + c[3] * a[-4] + c[4] * a[-5]
    return out


def _d_high_ref(arr, h, axis, order):
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    n = a.shape[0]
    width = 5 if order == 1 else 6
    if n < width + 1:
        fallback = _d1_cubic_ends_ref if order == 1 else _d2_cubic_ends_ref
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


def _apply_ref(u, spacings, coeffs, kinds):
    out = np.zeros_like(u)
    nd = len(spacings)
    for d, (h, c, (lo, hi)) in enumerate(zip(spacings, coeffs, kinds)):
        a = np.moveaxis(u, d - nd, -1)
        o = np.moveaxis(out, d - nd, -1)
        s = c / h**2
        o[..., 1:-1] += s * (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:])
        if lo == NEUMANN:
            o[..., 0] += 2.0 * s * (a[..., 1] - a[..., 0])
        if hi == NEUMANN:
            o[..., -1] += 2.0 * s * (a[..., -2] - a[..., -1])
    return out


def _boundary_rhs_ref(values, spacings, coeffs, bc):
    """(u, rhs on the unknowns) as the solver formed them with one operator
    pass over the whole volume: f[inner] - _apply_ref(u)[inner]."""
    nd = len(spacings)
    axes = range(-nd, 0)
    kinds = [tuple(bc[f].kind for f in _AXIS_FACES[ax]) for ax in axes]
    f = np.array(values, dtype=float)
    u = np.zeros(values.shape)
    for name, fbc in bc.items():
        ax = _FACE_AXIS[name]
        face = [slice(None)] * nd
        face[ax] = 0 if name.endswith("_lo") else -1
        fs = (Ellipsis, *face)
        vals = np.broadcast_to(np.asarray(fbc.value, dtype=float), u[fs].shape)
        if fbc.kind == DIRICHLET:
            u[fs] = vals
        else:
            f[fs] -= 2.0 * coeffs[ax] * vals / spacings[ax]
    inner = (Ellipsis, *(_unknown_range(values.shape[ax], *kinds[ax]) for ax in axes))
    g = f[inner]
    if u.any():
        g = g - _apply_ref(u, spacings, coeffs, kinds)[inner]
    return u, g


def _face_values_ref(arr, mesh, face):
    j, i = mesh.face_nodes(face)
    return arr[..., j, i]


def _traces_ref(A, weights):
    return {f: weights(f)[0] * _face_values_ref(A.x, A.mesh, f)
            + weights(f)[1] * _face_values_ref(A.y, A.mesh, f) for f in FACE_ORDER}


def _contour_integral_ref(mesh, traces):
    total = 0.0
    for f in FACE_ORDER:
        h = mesh.hx if f in ("y_lo", "y_hi") else mesh.hy
        total = total + np.trapezoid(traces[f], dx=h, axis=-1)
    return total


# -- the re-indexed kernels against them -------------------------------------------

def _d_matrix_offsets(n, order, high_order):
    """The stencil offsets of each row of the derivative matrix, written out
    apart from it.  The second-order family: centered 3-point rows inside
    and one-sided min(n, order + 2)-point rows at the ends.  The 4th-order
    family, with more than order + 4 nodes: centered 5-point rows inside and
    one-sided (order + 4)-point rows on the two rows at each end; on fewer,
    centered 3-point rows inside and one-sided min(n, order + 3)-point rows
    on the one row at each end."""
    if not high_order:
        half, width = 1, min(n, order + 2)
    elif n > order + 4:
        half, width = 2, order + 4
    else:
        half, width = 1, min(n, order + 3)
    rows = [tuple(range(-i, width - i)) for i in range(half)]
    rows += [tuple(range(-half, half + 1))] * (n - 2 * half)
    return rows + [tuple(-o for o in offs) for offs in rows[half - 1::-1]]


D_MATRIX_CASES = [(n, order, h) for n in range(3, 12) for order in (1, 2)
                  for h in (0.01, 0.37, 1.0, 2.9)]


@pytest.mark.parametrize("n, order, h", D_MATRIX_CASES)
def test_d_matrix_rows_are_fd_weights(n, order, h):
    for high_order in (False, True):
        D = _d_matrix(n, h, order, high_order)
        for i, offs in enumerate(_d_matrix_offsets(n, order, high_order)):
            want = np.zeros(n)
            want[[i + o for o in offs]] = _fd_weights(offs, order) / h**order
            assert same_bits(D[i], want), (high_order, i, offs)


@pytest.mark.parametrize("n, order, h", D_MATRIX_CASES)
def test_d_matrix_is_exact_on_the_polynomials_its_rows_promise(n, order, h):
    # each row differentiates exactly the polynomials of degree below its
    # stencil width (4 on 5-point rows, 3 on 4-point end rows, 2 on 3-point
    # rows); checked to rounding on nodes offset from the origin
    x = 0.3 + h * np.arange(n)
    scale = x[-1]
    for high_order in (False, True):
        D = _d_matrix(n, h, order, high_order)
        for i, offs in enumerate(_d_matrix_offsets(n, order, high_order)):
            for degree in range(len(offs)):
                p = (x / scale) ** degree
                exact = 0.0 if degree < order else (
                    math.factorial(degree) / math.factorial(degree - order)
                    * x[i] ** (degree - order) / scale**degree)
                assert abs(D[i] @ p - exact) <= 1e-13 * np.abs(p).max() / h**order, \
                    (high_order, i, degree)


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 9), st.integers(3, 6), st.sampled_from([0, -2, -1]),
       st.sampled_from([1, 2]), st.floats(0.01, 3.0), st.integers(0, 2**32 - 1))
def test_d_high_matches_moveaxis_form(n_axis, n_other, axis, order, h, seed):
    # axis lengths 4-9 reach the fallback rows (below 6 or 7 nodes) and the
    # one-sided 4th-order rows; the matrix sums in another order than the
    # stencil, so the two agree to rounding: at most 9.9e-15 of
    # max|a| / h^order over 4000 draws
    shape = [n_other, n_other + 1, n_other + 2]
    shape[axis] = n_axis
    a = drawn(seed, tuple(shape))
    err = np.abs(_derivative(a, h, axis, order, high_order=True)
                 - _d_high_ref(a, h, axis, order))
    assert err.max() <= 1e-13 * np.abs(a).max() / h**order


def test_d_matrix_is_cached_read_only():
    D = _d_matrix(9, 0.25, 1)
    assert _d_matrix(9, 0.25, 1) is D and D.shape == (9, 9)
    assert _d_matrix(9, 0.25, 2) is not D and _d_matrix(9, 0.5, 1) is not D
    assert _d_matrix(9, 0.25, 1, True) is not D
    with pytest.raises(ValueError, match="read-only"):
        D[0, 0] = 1.0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(3, 7),
       st.lists(st.sampled_from([DIRICHLET, NEUMANN]), min_size=6, max_size=6),
       st.integers(0, 2**32 - 1))
def test_axis_operators_match_moveaxis_form(nd, n, ends, seed):
    # every Dirichlet/Neumann mix at the two ends of each axis: the solve
    # residual's operator, the sum over axes of each axis's matrix applied
    # along it, against the moveaxis stencil on the unknowns (zero on the
    # Dirichlet faces), to rounding: at most 9.9e-16 of
    # max|u| * sum_d c_d / h_d^2 over 4000 draws
    shape = tuple(n + k for k in range(nd))
    spacings = tuple(0.1 * (k + 1) for k in range(nd))
    coeffs = tuple(0.75 if k == 0 and nd == 3 else 1.0 for k in range(nd))
    kinds = [(ends[2 * k], ends[2 * k + 1]) for k in range(nd)]
    axes = range(-nd, 0)
    inner = (Ellipsis, *(_unknown_range(shape[ax], *kinds[ax]) for ax in axes))
    u = np.zeros(shape)
    u[inner] = drawn(seed, u[inner].shape)
    got = sum(_along(_axis_operator(shape[ax], spacings[ax], coeffs[ax], *kinds[ax]),
                     u[inner], ax) for ax in axes)
    want = _apply_ref(u, spacings, coeffs, kinds)[inner]
    scale = np.abs(u).max() * sum(c / h**2 for c, h in zip(coeffs, spacings))
    assert np.abs(got - want).max() <= 4e-15 * scale

    # the relative residual the audit reports for these unknowns, on drawn
    # face data and right-hand side, against the one the references give
    faces = {f: FaceBC(k, drawn(seed + 1, shape[:nd + ax] + shape[nd + ax + 1:]))
             for ax, pair in zip(axes, kinds) for f, k in zip(_AXIS_FACES[ax], pair)}
    values = drawn(seed + 2, shape)
    u_full, g = _boundary_rhs_ref(values, spacings, coeffs, faces)
    u_full[inner] = u[inner]
    w = math.prod(np.ix_(*(_end_weights(m, *k) for m, k in zip(want.shape[-nd:], kinds))))
    bn = np.linalg.norm(w * g)
    ref = np.linalg.norm(w * (want - g)) / bn if bn > 0 else 0.0
    got = _solve_info(u_full, values, spacings, coeffs, faces)["relative_residual"]
    assert abs(got - ref) <= 1e-13 * max(ref, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(3, 9), st.integers(4, 7), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_face_traces_match_fancy_index_form(nx, ny, nzeta, volumetric, seed):
    mesh = build_mesh(1.0, 0.7, 2.0, nx, ny, nzeta, x0=-0.2, y0=0.3)
    shape = (nzeta, ny, nx) if volumetric else (ny, nx)
    A = VectorField2(mesh, drawn(seed, shape), drawn(seed + 1, shape))
    for f in FACE_ORDER:
        assert same_bits(face_values(A.x, f), _face_values_ref(A.x, mesh, f))
    tangential = _traces_ref(A, face_tangent)
    normal = _traces_ref(A, FACE_NORMALS.get)
    got_t, got_n = boundary_tangential_trace(A), boundary_normal_trace(A)
    for f in FACE_ORDER:
        assert same_bits(got_t[f], tangential[f])
        assert same_bits(got_n[f], normal[f])
    # the contour integrals keep the summation order of the gathered traces
    assert same_bits(circulation(A), _contour_integral_ref(mesh, tangential))
    assert same_bits(flux(A), _contour_integral_ref(mesh, normal))


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_3d_solve_reads_no_zero_sign_of_its_rhs(nzeta, neumann_ends, seed):
    # the chain's cold-start terms may change which zeros of a 3D right-hand
    # side are -0.0; the solve must give the same bits either way
    mesh = build_mesh(1.0, 1.0, 2.0, 7, 6, nzeta)
    rhs = drawn(seed, (nzeta, 6, 7))
    rhs[:, 2] = 0.0  # whole lines of zeros as well
    flipped = np.where(rhs == 0.0, np.where(np.signbit(rhs), 0.0, -0.0), rhs)
    kind = NEUMANN if neumann_ends else DIRICHLET
    bc = {f: FaceBC(kind if f.startswith("zeta") else DIRICHLET, 0.0) for f in _FACE_AXIS}
    info_a, info_b = {}, {}
    a = solve_anisotropic_poisson_3d(0.75, ScalarField(mesh, rhs), bc, info_out=info_a)
    b = solve_anisotropic_poisson_3d(0.75, ScalarField(mesh, flipped), bc, info_out=info_b)
    assert same_bits(a.values, b.values)
    assert info_a == info_b


FACE_FORMS = ["zero", "negative zero", "scalar", "array"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(st.integers(3, 9), min_size=3, max_size=3),
       st.lists(st.sampled_from([DIRICHLET, NEUMANN]), min_size=6, max_size=6),
       st.lists(st.sampled_from(FACE_FORMS), min_size=6, max_size=6),
       st.integers(0, 2**32 - 1))
# data on every face: the corner nodes of a volume take three terms
@example(3, [5, 6, 7], [DIRICHLET] * 6, ["array"] * 6, 0)
@example(3, [4, 3, 5], [DIRICHLET] * 6, ["scalar"] * 6, 1)
def test_face_layer_lift_matches_volume_form(nd, sizes, ends, forms, seed):
    # a 2D solve runs on a stack of slices, a 3D one on a volume; axes of 3
    # nodes with two Dirichlet ends have one unknown layer, which takes both
    # faces, and nodes next to two or three faces with data take each term
    # by its own subtraction, in face order
    shape = tuple(sizes) if nd == 3 else (2, *sizes[:2])
    rng = np.random.default_rng(seed)
    names = [f for ax in range(-nd, 0) for f in _AXIS_FACES[ax]]
    faces, magnitudes = {}, {}
    for k in rng.permutation(len(names)):  # faces in any order: edges overlap
        name = names[k]
        ax = _FACE_AXIS[name]
        face_shape = shape[:len(shape) + ax] + shape[len(shape) + ax + 1:]
        value = {"zero": 0.0, "negative zero": -0.0, "scalar": float(rng.normal()),
                 "array": drawn(seed + k + 1, face_shape)}[forms[k]]
        faces[name] = FaceBC(ends[k], value)
        magnitudes[name] = FaceBC(ends[k], np.abs(value))
    values = drawn(seed, shape)
    spacings = tuple(float(h) for h in rng.uniform(0.05, 1.0, nd))
    coeffs = tuple(float(c) for c in rng.uniform(0.2, 1.0, nd))
    u, g, kinds, inner = _boundary_rhs(values, spacings, coeffs, faces)
    u_ref, g_ref = _boundary_rhs_ref(values, spacings, coeffs, faces)
    assert same_bits(u, u_ref)
    assert kinds == [tuple(faces[f].kind for f in _AXIS_FACES[ax]) for ax in range(-nd, 0)]
    assert same_bits(u[inner], np.zeros_like(g))
    # the caller's array is never written, and the right-hand side is a copy
    assert same_bits(values, drawn(seed, shape))
    assert not np.shares_memory(g, values)

    # how many faces with data each unknown is next to
    shared = np.zeros(g.shape, dtype=int)
    for k, name in enumerate(names):
        if forms[k] != "zero":
            ax, end = _FACE_AXIS[name], 0 if name.endswith("_lo") else -1
            layer = [slice(None)] * nd
            layer[ax] = end
            shared[(Ellipsis, *layer)] += 1
    # next to at most one, the lift subtracts what the volume form does: the
    # same value; only the sign of a zero may differ (a Dirichlet face's -0.0
    # gives a -0.0 term in the lift and +0.0 in the volume form), and the
    # solve reads none
    one = shared <= 1
    assert np.array_equal(g[one], g_ref[one])
    # next to several, the terms are subtracted one by one, not summed
    # first: equal to rounding of |f| plus the sum of the terms' magnitudes
    # (at most 2.3e-16 of it over 4000 draws)
    _, scale = _boundary_rhs_ref(-np.abs(values), spacings, coeffs, magnitudes)
    assert np.all(np.abs(g - g_ref) <= 1e-15 * np.abs(scale))
