import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from parax.fields import FieldShapeError, ScalarField, VectorField2, read_field_csv, write_field_csv
from parax.mesh import FACE_NORMALS, build_mesh, face_tangent
from parax.operators import (
    _d1,
    boundary_normal_trace,
    boundary_tangential_trace,
    circulation,
    cross_ez,
    cumint_zeta,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    flux,
    grad_perp,
    laplace_perp,
    norms,
)


def unit_square(n=9, nzeta=3):
    return build_mesh(1.0, 1.0, 1.0, n, n, nzeta)


def centered_square(n=17, nzeta=3):
    return build_mesh(1.0, 1.0, 1.0, n, n, nzeta, x0=-0.5, y0=-0.5)


def test_build_mesh_spacings():
    m = build_mesh(1.0, 1.0, 1.0, 3, 3, 3)
    assert m.hx == pytest.approx(0.5)
    assert m.hy == pytest.approx(0.5)
    with pytest.raises(ValueError):
        build_mesh(1.0, 1.0, 1.0, 2, 3, 3)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 1.0, 3, 3, 3)


def test_boundary_table_normals():
    m = unit_square()
    j, i = m.face_nodes("x_hi")
    assert np.all(i == m.nx - 1)
    assert FACE_NORMALS["x_hi"] == (1.0, 0.0)
    jj, ii, nu = m.boundary_table
    assert np.allclose(np.linalg.norm(nu, axis=1), 1.0)
    # tangent is orthogonal to the face normal everywhere
    for f in FACE_NORMALS:
        tx, ty = face_tangent(f)
        nx_, ny_ = FACE_NORMALS[f]
        assert tx * nx_ + ty * ny_ == 0.0


def test_mesh_mismatch_rejected():
    m1, m2 = unit_square(9), unit_square(11)
    f = ScalarField(m1, np.zeros((m1.ny, m1.nx)))
    with pytest.raises(FieldShapeError):
        ScalarField(m2, f.values)


def test_fields_check_shape_only():
    # non-finite values are refused where they enter or leave a stage, by
    # fields.require_finite, not by the wrappers
    m = unit_square(5)
    nan = np.full((m.ny, m.nx), np.nan)
    assert np.isnan(ScalarField(m, nan).values).all()
    assert np.isnan(VectorField2(m, nan, nan).y).all()


def test_linear_exactness():
    m = unit_square()
    X, Y = m.xy()
    g = grad_perp(ScalarField(m, X))
    np.testing.assert_allclose(g.x, 1.0, atol=1e-13)
    np.testing.assert_allclose(g.y, 0.0, atol=1e-13)
    d = div_perp(VectorField2(m, X, Y))
    np.testing.assert_allclose(d.values, 2.0, atol=1e-13)


def test_curl_examples():
    m = unit_square()
    X, Y = m.xy()
    A = VectorField2(m, -Y, X)
    np.testing.assert_allclose(curl_perp_vector(A).values, 2.0, atol=1e-13)
    # div(A x e_z) = curl A for A = (-y, x):  A x e_z = (x, y), div = 2
    np.testing.assert_allclose(div_perp(cross_ez(A)).values, 2.0, atol=1e-13)


def test_relbas_identities_quadratic():
    m = unit_square(17)
    X, Y = m.xy()
    phi = ScalarField(m, X**2 + Y**2 - 0.3 * X * Y + X - 2.0 * Y + 1.0)
    A = VectorField2(m, X**2 - Y, X * Y + 2.0 * X)
    interior = m.interior_mask_2d()

    lhs = div_perp(cross_ez(A)).values
    rhs = curl_perp_vector(A).values
    np.testing.assert_allclose(lhs[interior], rhs[interior], atol=1e-12)

    lhs = curl_perp_vector(cross_ez(A)).values
    rhs = -div_perp(A).values
    np.testing.assert_allclose(lhs[interior], rhs[interior], atol=1e-12)

    lhs = curl_perp_vector(curl_perp_scalar(phi)).values
    rhs = -laplace_perp(phi).values
    np.testing.assert_allclose(lhs[interior], rhs[interior], atol=1e-11)


def test_laplacian_and_cross():
    m = unit_square()
    X, Y = m.xy()
    lap = laplace_perp(ScalarField(m, X**2 + Y**2))
    np.testing.assert_allclose(lap.values[m.interior_mask_2d()], 4.0, atol=1e-11)
    A = VectorField2(m, np.full_like(X, 1.0), np.full_like(X, 2.0))
    C = cross_ez(A)
    assert C.x[0, 0] == 2.0 and C.y[0, 0] == -1.0
    CC = cross_ez(C)
    np.testing.assert_allclose(CC.x, -A.x)
    np.testing.assert_allclose(CC.y, -A.y)


def test_gradient_convergence_second_order():
    errs = []
    for n in (17, 33):
        m = unit_square(n)
        X, Y = m.xy()
        phi = ScalarField(m, np.sin(np.pi * X) * np.sin(np.pi * Y))
        g = grad_perp(phi)
        gx = np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
        gy = np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
        errs.append(max(np.abs(g.x - gx).max(), np.abs(g.y - gy).max()))
    assert errs[0] / errs[1] > 3.5  # error quarters when h halves


def test_curl_tangential_trace_is_normal_derivative():
    # curl phi . tau = -d phi/d nu on Gamma, exact for linear phi
    m = unit_square()
    X, Y = m.xy()
    phi = ScalarField(m, 2.0 * X - 3.0 * Y + 1.0)
    tr = boundary_tangential_trace(curl_perp_scalar(phi))
    g = grad_perp(phi)
    for f, (nx_, ny_) in FACE_NORMALS.items():
        dphi_dnu = nx_ * g.x + ny_ * g.y
        j, i = m.face_nodes(f)
        np.testing.assert_allclose(tr[f], -dphi_dnu[j, i], atol=1e-12)


def test_circulation_and_flux():
    m = centered_square(33)
    X, Y = m.xy()
    ones = np.ones_like(X)
    A = VectorField2(m, ones, 0.0 * X)
    assert circulation(A) == pytest.approx(0.0, abs=1e-13)
    assert flux(A) == pytest.approx(0.0, abs=1e-13)
    # Green: circulation of (-y, x) = integral of curl = 2*area
    rot = VectorField2(m, -Y, X)
    assert circulation(rot) == pytest.approx(2.0 * 1.0, rel=1e-12)
    # divergence theorem: flux of (x, y) = integral of div = 2*area
    rad = VectorField2(m, X, Y)
    assert flux(rad) == pytest.approx(2.0 * 1.0, rel=1e-12)
    tr = boundary_normal_trace(rad)
    j, i = m.face_nodes("x_hi")
    np.testing.assert_allclose(tr["x_hi"], X[j, i], atol=1e-13)


def test_zeta_derivative_and_integral():
    m = build_mesh(1.0, 1.0, 2.0, 5, 5, 33)
    X, Y, Z = m.grids3d()
    f = ScalarField(m, Z**2)
    np.testing.assert_allclose(dzeta(f).values, 2.0 * Z, atol=1e-12)
    anti = cumint_zeta(np.ones_like(Z), m, initial=3.0)
    np.testing.assert_allclose(anti, Z + 3.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 24), st.booleans(), st.booleans(), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1))
def test_cumint_zeta_matches_scipy_trapezoid(nzeta, volume, per_plane, zlen, seed):
    # bit for bit the reference rule, on volumes and on face traces, with
    # magnitudes from 1e-300 to 1e300 and a scalar or per-plane start
    m = build_mesh(1.0, 1.0, zlen, 5, 4, nzeta)
    shape = (nzeta, m.ny, m.nx) if volume else (nzeta, m.ny)
    rng = np.random.default_rng(seed)

    def sample(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)

    initial = sample(shape[1:]) if per_plane else float(sample(()))
    v = sample(shape)
    ref = cumulative_trapezoid(v, dx=m.hzeta, axis=0, initial=0.0) + initial
    out = cumint_zeta(v, m, initial)
    assert out.dtype == np.float64
    assert np.array_equal(out, ref)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(3, 12), min_size=2, max_size=3), st.floats(0.01, 3.0),
       st.integers(0, 2**32 - 1))
def test_d1_matches_numpy_gradient(shape, h, seed):
    # bit for bit np.gradient with second-order ends, along every axis
    a = np.random.default_rng(seed).standard_normal(shape) * 10.0
    for axis in range(-len(shape), len(shape)):
        ref = np.gradient(a, h, axis=axis, edge_order=2)
        out = _d1(a, h, axis)
        assert out.flags.c_contiguous
        assert np.array_equal(out, ref), axis


def _mask_norms(values, mesh):
    # the boolean-mask selection the sliced norms replaced
    v = np.asarray(values)
    w = mesh.dual_area_2d if v.ndim == 2 else mesh.dual_volume_3d
    mask = np.zeros_like(v, dtype=bool)
    mask[(slice(1, -1),) * v.ndim] = True
    sel = v[mask]
    return {"l2": float(np.sqrt(np.sum(sel**2 * w[mask]))),
            "max": float(np.max(np.abs(sel))) if sel.size else 0.0}


def test_norms_match_mask_selection():
    rng = np.random.default_rng(7)
    for n, nzeta in ((5, 5), (9, 7), (17, 9), (33, 17)):
        m = build_mesh(1.0, 1.5, 2.0, n, n + 2, nzeta)
        for v in (rng.standard_normal((m.ny, m.nx)),
                  rng.standard_normal((m.nzeta, m.ny, m.nx))):
            assert norms(v, m) == _mask_norms(v, m)


def test_norms_interior_only():
    m = unit_square(5)
    v = np.zeros((m.ny, m.nx))
    v[0, 0] = 100.0  # boundary value must not affect interior norms
    n = norms(v, m)
    assert n["l2"] == 0.0 and n["max"] == 0.0


def test_csv_round_trip(tmp_path):
    m = build_mesh(1.0, 2.0, 3.0, 4, 3, 3)
    X, Y, Z = m.grids3d()
    path = tmp_path / "field.csv"
    write_field_csv(path, m, {"u": X + Y, "v": Z})
    names, coords, data = read_field_csv(path)
    assert names == ["u", "v"]
    assert coords.shape == (m.nzeta * m.ny * m.nx, 3)
    # row-major over (zeta, y, x): x varies fastest
    np.testing.assert_allclose(coords[1, 0] - coords[0, 0], m.hx)
    np.testing.assert_allclose(data[:, 0], (X + Y).ravel())
    np.testing.assert_allclose(data[:, 1], Z.ravel())


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_cross_ez_pointwise(ax, ay):
    m = unit_square(3, 3)
    A = VectorField2(m, np.full((3, 3), ax), np.full((3, 3), ay))
    C = cross_ez(A)
    assert C.x[0, 0] == ay and C.y[0, 0] == -ax
