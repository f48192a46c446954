import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parax.elliptic import (
    DIRICHLET,
    NEUMANN,
    BoundarySpec,
    FaceBC,
    SolverSettings,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from parax.fields import ScalarField, VectorField2
from parax.mesh import FACE_AXIS, build_mesh
from parax.operators import boundary_tangential_trace, circulation, curl_perp_vector, div_perp, flux


def mesh2d(n, zlen=1.0, nzeta=3, x0=0.0, y0=0.0):
    return build_mesh(1.0, 1.0, zlen, n, n, nzeta, x0=x0, y0=y0)


def dirichlet0():
    return BoundarySpec.uniform(DIRICHLET, 0.0)


def test_poisson_zero():
    m = mesh2d(9)
    u = solve_poisson_2d(ScalarField(m, np.zeros((m.ny, m.nx))), dirichlet0())
    np.testing.assert_allclose(u.values, 0.0, atol=1e-14)


def test_poisson_sine_dirichlet():
    errs = []
    for n in (17, 33):
        m = mesh2d(n)
        X, Y = m.xy()
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        rhs = -2.0 * np.pi**2 * exact
        u = solve_poisson_2d(ScalarField(m, rhs), dirichlet0())
        errs.append(np.abs(u.values - exact).max())
    assert errs[0] / errs[1] > 3.5


def test_poisson_mixed_neumann():
    # u = x^2 on [0,1]^2: lap u = 2, du/dnu = 2x on x faces, 0 on y faces
    m = mesh2d(17)
    X, Y = m.xy()
    exact = X**2
    bc = BoundarySpec({
        "x_lo": FaceBC(NEUMANN, 0.0),
        "x_hi": FaceBC(NEUMANN, 2.0),
        "y_lo": FaceBC(DIRICHLET, exact[0, :]),
        "y_hi": FaceBC(DIRICHLET, exact[-1, :]),
    })
    u = solve_poisson_2d(ScalarField(m, np.full_like(X, 2.0)), bc)
    np.testing.assert_allclose(u.values, exact, atol=5e-10)


@pytest.mark.parametrize("volumetric", [False, True])
def test_all_neumann_refused_by_name(volumetric):
    # no chain operator poses an all-Neumann problem: its solution is fixed
    # only up to a constant, and the kernel refuses it instead of choosing one
    m = build_mesh(1.0, 1.0, 1.0, 9, 9, 5)
    bc = BoundarySpec.uniform(NEUMANN, 0.0, volumetric=volumetric)
    with pytest.raises(ValueError, match="all faces Neumann"):
        if volumetric:
            solve_anisotropic_poisson_3d(0.75, ScalarField.zeros(m), bc)
        else:
            solve_poisson_2d(ScalarField(m, np.zeros((m.ny, m.nx))), bc)


def test_aniso3d_zero_and_mms():
    m = build_mesh(1.0, 1.0, 1.0, 13, 13, 13)
    bc = BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True)
    u0 = solve_anisotropic_poisson_3d(0.75, ScalarField.zeros(m), bc)
    np.testing.assert_allclose(u0.values, 0.0, atol=1e-14)

    errs = []
    for n in (9, 17):
        m = build_mesh(1.0, 1.0, 1.0, n, n, n)
        X, Y, Z = m.grids3d()
        kappa = 0.75
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
        rhs = -(2.0 + kappa) * np.pi**2 * exact
        u = solve_anisotropic_poisson_3d(kappa, ScalarField(m, rhs), bc)
        errs.append(np.abs(u.values - exact).max())
    assert errs[0] / errs[1] > 3.5


def test_aniso3d_slab_reduces_to_2d():
    # zeta-independent rhs with Neumann zeta ends: solution equals the 2D solve
    m = build_mesh(1.0, 1.0, 1.0, 17, 17, 7)
    X, Y = m.xy()
    rhs2d = np.sin(np.pi * X) * np.sin(np.pi * Y)
    bc3 = BoundarySpec({f: FaceBC(NEUMANN if f.startswith("zeta") else DIRICHLET, 0.0)
                        for f in FACE_AXIS})
    u3 = solve_anisotropic_poisson_3d(0.5, ScalarField(m, np.broadcast_to(rhs2d, (m.nzeta, 17, 17)).copy()), bc3)
    u2 = solve_poisson_2d(ScalarField(m, rhs2d), dirichlet0())
    for k in range(m.nzeta):
        np.testing.assert_allclose(u3.values[k], u2.values, atol=1e-9)


def test_aniso3d_kappa_validation():
    m = build_mesh(1.0, 1.0, 1.0, 5, 5, 5)
    bc = BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True)
    with pytest.raises(ValueError):
        solve_anisotropic_poisson_3d(1.5, ScalarField.zeros(m), bc)


def test_solver_settings_is_one_read_only_constant():
    # no solver takes settings; the benchmark's environment line reads this
    assert SolverSettings().tolerance == 1e-10
    with pytest.raises(TypeError):
        SolverSettings(tolerance=1e-8)
    with pytest.raises(AttributeError):
        SolverSettings().tolerance = 1e-8


def zero_trace(m):
    return {f: np.zeros(len(m.face_nodes(f)[0])) for f in ("x_lo", "x_hi", "y_lo", "y_hi")}


def test_divcurl_zero():
    m = mesh2d(9)
    A = solve_divcurl_2d(
        ScalarField(m, np.zeros((m.ny, m.nx))),
        ScalarField(m, np.zeros((m.ny, m.nx))),
        zero_trace(m),
    )
    np.testing.assert_allclose(A.x, 0.0, atol=1e-12)
    np.testing.assert_allclose(A.y, 0.0, atol=1e-12)


def trace_of(m, fx, fy):
    A = VectorField2(m, fx, fy)
    return boundary_tangential_trace(A)


def test_divcurl_gradient_case():
    # A* = (x, y): div 2, curl 0
    m = mesh2d(33, x0=-0.5, y0=-0.5)
    X, Y = m.xy()
    A = solve_divcurl_2d(
        ScalarField(m, np.full_like(X, 2.0)),
        ScalarField(m, np.zeros((m.ny, m.nx))),
        trace_of(m, X, Y),
    )
    np.testing.assert_allclose(A.x, X, atol=2e-8)
    np.testing.assert_allclose(A.y, Y, atol=2e-8)
    assert abs(float(circulation(A)) - 0.0) < 1e-8


def test_divcurl_rotational_case():
    # A* = (-y, x): div 0, curl 2, circulation 2*area
    m = mesh2d(33, x0=-0.5, y0=-0.5)
    X, Y = m.xy()
    A = solve_divcurl_2d(
        ScalarField(m, np.zeros((m.ny, m.nx))),
        ScalarField(m, np.full_like(X, 2.0)),
        trace_of(m, -Y, X),
    )
    np.testing.assert_allclose(A.x, -Y, atol=2e-6)
    np.testing.assert_allclose(A.y, X, atol=2e-6)


def test_divcurl_mixed_convergence_and_consistency():
    # smooth field with both nonzero div and curl:
    # A = grad(sin(pi x) sin(pi y)) + curl(cos(2 pi x) cos(2 pi y))
    errs, circ_gaps, flux_gaps = [], [], []
    for n in (17, 33):
        m = mesh2d(n)
        X, Y = m.xy()
        sx, cx = np.sin(np.pi * X), np.cos(np.pi * X)
        sy, cy = np.sin(np.pi * Y), np.cos(np.pi * Y)
        c2x, s2x = np.cos(2 * np.pi * X), np.sin(2 * np.pi * X)
        c2y, s2y = np.cos(2 * np.pi * Y), np.sin(2 * np.pi * Y)
        Ax = np.pi * cx * sy - 2 * np.pi * c2x * s2y
        Ay = np.pi * sx * cy + 2 * np.pi * s2x * c2y
        div_exact = -2.0 * np.pi**2 * sx * sy
        curl_exact = 8.0 * np.pi**2 * c2x * c2y
        A = solve_divcurl_2d(
            ScalarField(m, div_exact),
            ScalarField(m, curl_exact),
            trace_of(m, Ax, Ay),
        )
        errs.append(max(np.abs(A.x - Ax).max(), np.abs(A.y - Ay).max()))
        circ_gaps.append(abs(circulation(A) - float(m.integrate_2d(curl_perp_vector(A).values))))
        flux_gaps.append(abs(flux(A) - float(m.integrate_2d(div_perp(A).values))))
    assert errs[0] / errs[1] > 3.4
    # Green / divergence theorem consistency of the output improves at O(h^2)
    assert circ_gaps[0] / circ_gaps[1] > 3.4
    assert flux_gaps[0] / flux_gaps[1] > 3.4


# -- the separable direct kernel against an assembled reference ----------------

def _ref_second_difference(n, h, kinds):
    """1D c=1 second difference on all n nodes: ghost-eliminated Neumann end
    rows, zero rows at Dirichlet ends."""
    D = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)], [-1, 0, 1]).tolil()
    for end, inner, kind in ((0, 1, kinds[0]), (n - 1, n - 2, kinds[1])):
        D[end, :] = 0.0
        if kind == NEUMANN:
            D[end, end], D[end, inner] = -2.0, 2.0
    return D.tocsr() / h**2


def _ref_operator(shape, spacings, coeffs, kinds):
    """sum_d c_d D_d assembled as a Kronecker sum over the full grid."""
    eye = [sp.identity(n, format="csr") for n in shape]
    L = sp.csr_matrix((np.prod(shape), np.prod(shape)))
    for d, n in enumerate(shape):
        factors = list(eye)
        factors[d] = coeffs[d] * _ref_second_difference(n, spacings[d], kinds[d])
        term = factors[0]
        for fac in factors[1:]:
            term = sp.kron(term, fac, format="csr")
        L = L + term
    return L


_AXIS_FACE_NAMES = [("zeta_lo", "zeta_hi"), ("y_lo", "y_hi"), ("x_lo", "x_hi")]
_kind = st.sampled_from([DIRICHLET, NEUMANN])


@st.composite
def separable_problems(draw):
    nd = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(3, 9)) for _ in range(nd))
    # a direct solve's relative residual grows with the condition number, so
    # extents stay within a factor 4 of each other to keep 1e-12 meaningful
    extents = [draw(st.floats(0.5, 2.0)) for _ in range(3)]
    kappa = draw(st.floats(0.05, 0.95))
    # axes with Neumann at both ends run, but not all of them at once
    kinds = [(draw(_kind), draw(_kind)) for _ in range(nd)]
    assume(not all(k == (NEUMANN, NEUMANN) for k in kinds))
    seed = draw(st.integers(0, 2**32 - 1))
    return nd, shape, extents, kappa, kinds, seed


@settings(max_examples=80, deadline=None)
@given(separable_problems())
def test_separable_kernel_solves_reference_operator(problem):
    nd, shape, (a, b, zlen), kappa, kinds, seed = problem
    nzeta = shape[0] if nd == 3 else 3
    m = build_mesh(a, b, zlen, shape[-1], shape[-2], nzeta)
    spacings = (m.hzeta, m.hy, m.hx)[-nd:]
    coeffs = (kappa, 1.0, 1.0)[-nd:]
    names = _AXIS_FACE_NAMES[-nd:]
    rng = np.random.default_rng(seed)

    f = rng.standard_normal(shape)
    faces = {}
    for d, (lo_hi, kk) in enumerate(zip(names, kinds)):
        face_shape = shape[:d] + shape[d + 1:]
        for name, kind in zip(lo_hi, kk):
            faces[name] = FaceBC(kind, rng.standard_normal(face_shape))

    # rhs with the Neumann fluxes moved over, as the ghost elimination does
    f_eff = f.copy()
    for d, lo_hi in enumerate(names):
        for name, end in zip(lo_hi, (0, -1)):
            if faces[name].kind == NEUMANN:
                idx = [slice(None)] * nd
                idx[d] = end
                f_eff[tuple(idx)] -= 2.0 * coeffs[d] * faces[name].value / spacings[d]

    bc = BoundarySpec(faces)
    if nd == 3:
        info = {}
        u = solve_anisotropic_poisson_3d(kappa, ScalarField(m, f), bc, info_out=info).values
        assert info["method"] == "fdm"
        assert info["relative_residual"] <= 1e-12
    else:
        u = solve_poisson_2d(ScalarField(m, f), bc).values

    unknown = np.ones(shape, dtype=bool)
    for d, (lo_hi, kk) in enumerate(zip(names, kinds)):
        for name, kind, end in zip(lo_hi, kk, (0, -1)):
            if kind == DIRICHLET:
                idx = [slice(None)] * nd
                idx[d] = end
                unknown[tuple(idx)] = False
    # Dirichlet nodes carry their data; faces are applied in order, so a
    # corner takes the value of the last Dirichlet face through it
    expect = np.zeros(shape)
    for d, lo_hi in enumerate(names):
        for name, end in zip(lo_hi, (0, -1)):
            if faces[name].kind == DIRICHLET:
                idx = [slice(None)] * nd
                idx[d] = end
                expect[tuple(idx)] = faces[name].value
    np.testing.assert_array_equal(u[~unknown], expect[~unknown])

    L = _ref_operator(shape, spacings, coeffs, kinds)
    lift = (L @ np.where(unknown, 0.0, u).ravel())[unknown.ravel()]
    rhs = f_eff[unknown] - lift
    res = (L @ u.ravel())[unknown.ravel()] - f_eff[unknown]
    assert np.linalg.norm(res) <= 1e-12 * max(np.linalg.norm(rhs), 1e-300)


def test_poisson_volume_solves_each_slice():
    m = build_mesh(1.3, 0.7, 1.0, 11, 8, 5)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((m.nzeta, m.ny, m.nx))
    bc = BoundarySpec({
        "x_lo": FaceBC(NEUMANN, rng.standard_normal((m.nzeta, m.ny))),
        "x_hi": FaceBC(DIRICHLET, rng.standard_normal((m.nzeta, m.ny))),
        "y_lo": FaceBC(DIRICHLET, 0.5),
        "y_hi": FaceBC(NEUMANN, rng.standard_normal((m.nzeta, m.nx))),
    })
    u = solve_poisson_2d(ScalarField(m, rhs), bc).values
    for k in range(m.nzeta):
        bc_k = BoundarySpec({f: FaceBC(v.kind, np.asarray(v.value)[k] if np.ndim(v.value) else v.value)
                             for f, v in bc.faces.items()})
        u_k = solve_poisson_2d(ScalarField(m, rhs[k]), bc_k).values
        np.testing.assert_allclose(u[k], u_k, rtol=0, atol=1e-12 * np.abs(u_k).max())


def test_divcurl_volume_matches_per_slice():
    m = build_mesh(1.0, 1.5, 2.0, 13, 10, 6, x0=-0.3, y0=0.2)
    rng = np.random.default_rng(7)
    div = rng.standard_normal((m.nzeta, m.ny, m.nx))
    curl = rng.standard_normal((m.nzeta, m.ny, m.nx))
    tan = {f: rng.standard_normal((m.nzeta, len(m.face_nodes(f)[0])))
           for f in ("x_lo", "x_hi", "y_lo", "y_hi")}
    circ = rng.standard_normal(m.nzeta)
    A = solve_divcurl_2d(ScalarField(m, div), ScalarField(m, curl), tan)
    mismatch = np.abs(circulation(A) - circ)
    scale = max(np.abs(A.x).max(), np.abs(A.y).max())
    for k in range(m.nzeta):
        A_k = solve_divcurl_2d(ScalarField(m, div[k]), ScalarField(m, curl[k]),
                               {f: v[k] for f, v in tan.items()})
        np.testing.assert_allclose(A.x[k], A_k.x, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(A.y[k], A_k.y, rtol=0, atol=1e-13 * scale)
        assert mismatch[k] == pytest.approx(
            abs(float(circulation(A_k)) - circ[k]), rel=1e-9, abs=1e-12)


def _gamma_dirichlet_loop(mesh, g):
    """Node-by-node contour integration of one slice's tangential trace."""
    from parax.mesh import FACE_ORDER, face_tangent

    path = []  # (face, nodes, walked backwards) counterclockwise around Gamma
    for f in FACE_ORDER:
        j, i = mesh.face_nodes(f)
        ends = np.array([mesh.x[i[-1]] - mesh.x[i[0]], mesh.y[j[-1]] - mesh.y[j[0]]])
        path.append((f, len(j), bool(np.dot(face_tangent(f), ends) < 0)))
    h_of = {"y_lo": mesh.hx, "x_hi": mesh.hy, "y_hi": mesh.hx, "x_lo": mesh.hy}
    values, arcs = [0.0], [0.0]
    for f, _, rev in path:
        arr = g[f][::-1] if rev else g[f]
        for k in range(len(arr) - 1):
            values.append(values[-1] + 0.5 * h_of[f] * (arr[k] + arr[k + 1]))
            arcs.append(arcs[-1] + h_of[f])
    values = np.asarray(values) - values[-1] * np.asarray(arcs) / arcs[-1]
    out, cursor, npath = {}, 0, len(values) - 1
    for f, size, rev in path:
        vals = values[[(cursor + k) % npath for k in range(size)]]
        out[f] = vals[::-1] if rev else vals
        cursor += size - 1
    return out


def test_gamma_dirichlet_matches_loop_reference():
    from parax.elliptic import _gamma_dirichlet_from_tangential

    m = build_mesh(1.0, 2.0, 1.0, 7, 5, 4)
    rng = np.random.default_rng(11)
    g = {f: rng.standard_normal((m.nzeta, len(m.face_nodes(f)[0])))
         for f in ("x_lo", "x_hi", "y_lo", "y_hi")}
    got = _gamma_dirichlet_from_tangential(m, g)
    for k in range(m.nzeta):
        ref = _gamma_dirichlet_loop(m, {f: v[k] for f, v in g.items()})
        for f in ref:
            np.testing.assert_array_equal(got[f][k], ref[f])


def test_slice_monomials_built_once_per_mesh_read_only():
    from parax.elliptic import _slice_monomials

    m = build_mesh(1.0, 2.0, 1.0, 7, 5, 4, x0=-0.5, y0=0.25)
    mono = _slice_monomials(m)
    assert _slice_monomials(build_mesh(1.0, 2.0, 1.0, 7, 5, 4, x0=-0.5, y0=0.25)) is mono
    assert mono.shape == (20, m.ny * m.nx) and not mono.flags.writeable
    X, Y = m.xy()
    xt, yt = X - m.x0, Y - m.y0
    x2, y2, zero = xt**2 / 2, yt**2 / 2, np.zeros_like(xt)
    want = (np.ones_like(xt), xt, yt, xt * yt,  # the corner-bilinear rows
            xt, x2, xt * yt, x2 * yt, zero, zero, x2, xt**3 / 6,  # div: x, then y
            -yt, -xt * yt, -y2, -xt * y2, zero, y2, zero, yt**3 / 6)  # curl: x, then y
    for got, row in zip(mono, want, strict=True):
        assert np.array_equal(got, row.ravel())


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 11), st.integers(6, 11), st.booleans(), st.integers(0, 2**32 - 1))
def test_particular_field_has_the_corner_bilinear_div_and_curl(nx, ny, volumetric, seed):
    # the particular field is cubic, so the 4th-order source derivatives
    # (exact on quartics) give its divergence and curl to rounding: each is
    # the bilinear interpolant of the corner values it was fitted to (at
    # most 3.8e-14 of its largest value over 300 draws)
    from parax.elliptic import _corner_bilinear, _particular_field
    from parax.operators import _d_high

    rng = np.random.default_rng(seed)
    m = build_mesh(1.3, 0.8, 1.0, nx, ny, 4, x0=-0.4, y0=0.6)
    shape = (4, ny, nx) if volumetric else (ny, nx)
    sources = rng.standard_normal((2, *shape))
    (dc, div_rest), (cc, curl_rest) = (_corner_bilinear(m, v) for v in sources)
    div_fit, curl_fit = sources[0] - div_rest, sources[1] - curl_rest
    A = _particular_field(m, dc, cc)

    def d(a, h, axis):
        return _d_high(a, h, axis, 1)

    div = d(A.x, m.hx, -1) + d(A.y, m.hy, -2)
    curl = d(A.y, m.hx, -1) - d(A.x, m.hy, -2)
    np.testing.assert_allclose(div, div_fit, rtol=0, atol=1e-12 * np.abs(div_fit).max())
    np.testing.assert_allclose(curl, curl_fit, rtol=0, atol=1e-12 * np.abs(curl_fit).max())
