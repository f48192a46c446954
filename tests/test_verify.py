import dataclasses

import numpy as np
import pytest

from parax.elliptic import (
    BoundarySpec,
    DIRICHLET,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from parax.fields import ScalarField, VectorField2
from parax.hierarchy import (
    ExternalField,
    FieldHistory,
    HierarchySolver,
    SourceTerms,
    backward_rate,
)
from parax.mesh import build_mesh
from parax.operators import (
    boundary_tangential_trace,
    cross_ez,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    norms,
    weighted_norms,
)
from parax.verify import (
    MMS_TARGETS,
    DegenerateFitError,
    QuasiStaticMode,
    convergence_study,
    eta_scaling_study,
    eta_study_terms,
    maxwell_residual,
    residual_terms,
    richardson_combine,
)

BETA = 0.5


class GridMode(QuasiStaticMode):
    """The family with its shape factors evaluated on full grids3d arrays."""

    def _shapes(self):
        m = self.mesh
        X, Y, Z = m.grids3d()
        kx, ky, kz = self._wavenumbers()
        xt, yt = X - m.x0, Y - m.y0
        return (np.sin(kx * xt), np.cos(kx * xt), np.sin(ky * yt), np.cos(ky * yt),
                np.cos(kz * Z), np.sin(kz * Z))


def grid_target_errors(g, beta):
    """The errors of the three solver targets' solves on g nodes per axis,
    with the manufactured data evaluated on full grids3d arrays."""
    errors = {}
    mesh = build_mesh(1.0, 1.0, 1.0, g, g, 3)
    X, Y, _ = mesh.grids3d()
    xt, yt = X[0] - mesh.x0, Y[0] - mesh.y0
    kx, ky = np.pi / mesh.a, np.pi / mesh.b
    u = np.sin(kx * xt) * np.sin(ky * yt)
    got = solve_poisson_2d(ScalarField(mesh, -(kx**2 + ky**2) * u),
                           BoundarySpec.uniform(DIRICHLET, 0.0))
    errors["poisson2d"] = got.values - u
    sx, cx, sy, cy = np.sin(kx * xt), np.cos(kx * xt), np.sin(ky * yt), np.cos(ky * yt)
    exact = VectorField2(mesh, kx * cx * sy - ky * cx * sy, ky * sx * cy + kx * sx * cy)
    A = solve_divcurl_2d(ScalarField(mesh, -(kx**2 + ky**2) * sx * sy),
                         ScalarField(mesh, (kx**2 + ky**2) * cx * cy),
                         boundary_tangential_trace(exact))
    errors["divcurl"] = np.hypot(A.x - exact.x, A.y - exact.y)
    mesh = build_mesh(1.0, 1.0, 2.0, g, g, g)
    X, Y, Z = mesh.grids3d()
    kz, kappa = np.pi / mesh.zlen, 1.0 - beta**2
    u = np.sin(kx * (X - mesh.x0)) * np.sin(ky * (Y - mesh.y0)) * np.sin(kz * Z)
    got = solve_anisotropic_poisson_3d(
        kappa, ScalarField(mesh, -(kx**2 + ky**2 + kappa * kz**2) * u),
        BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True))
    errors["aniso3d"] = got.values - u
    return errors


def arrays_of(value):
    if isinstance(value, VectorField2):
        return [value.x, value.y]
    return [getattr(value, "values", value)]


def assert_same_bits(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


@pytest.mark.parametrize("zlen", [1, 2])
def test_separable_shapes_match_full_grids(zlen):
    # the shape factors are evaluated per axis and broadcast; every product
    # is the same as on full (nzeta, ny, nx) grids, so results agree bit for bit.
    # The two window lengths give kz = pi and pi/2, the wavenumbers the
    # mode family had at m_zeta = 2 and 1 on a window of length 2.
    mesh = build_mesh(1.3, 0.9, float(zlen), 11, 9, 7, x0=-0.4, y0=0.25)
    knobs = dict(beta=BETA, alpha=0.7, alpha2=1.3, jc=0.4, bz_external=0.3, dt_hist=0.05)
    new, old = QuasiStaticMode(mesh=mesh, **knobs), GridMode(mesh=mesh, **knobs)
    for t in (0.0, 0.1):
        a, b = new.sources(t), old.sources(t)
        for name in ("rho", "Jperp", "Jzeta"):
            for x, y in zip(arrays_of(getattr(a, name)), arrays_of(getattr(b, name))):
                assert_same_bits(x, y)
        for n in (0, 1):
            a, b = new.exact_order(n, t), old.exact_order(n, t)
            assert a.keys() == b.keys()
            for key in a:
                for x, y in zip(arrays_of(a[key]), arrays_of(b[key])):
                    assert_same_bits(x, y)
    for target, ref in grid_target_errors(9, BETA).items():
        assert_same_bits(MMS_TARGETS[target](9, BETA)[0], ref)


def test_ez_mode_111_solver_recovery():
    err, _ = MMS_TARGETS["aniso3d"](17, BETA)
    assert np.abs(err).max() < 5e-3


def test_quasistatic_sources_conserve_charge():
    from parax.operators import div_perp, dzeta, norms

    dt = 0.05
    res = []
    for n in (17, 33):
        mesh = build_mesh(1.0, 1.0, 2.0, n, n, n)
        case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.7, alpha2=1.3, jc=0.4, dt_hist=dt)
        s_now = case.sources(2 * dt)
        s_prev = case.sources(dt)
        drho = (s_now.rho.values - s_prev.rho.values) / dt
        bal = drho + div_perp(s_now.Jperp).values + dzeta(s_now.Jzeta).values
        res.append(norms(bal, mesh)["l2"])
    # balance holds up to spatial discretization of the operators only
    assert res[0] / res[1] > 3.5


def test_zero_hierarchy_zero_residual():
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 9)
    hist = FieldHistory()
    hist.push(HierarchySolver(mesh, BETA).solve_hierarchy(0, SourceTerms.zeros(mesh)))
    rep = maxwell_residual(residual_terms(hist, SourceTerms.zeros(mesh)), 0.1)
    for eq, n in rep.norms.items():
        assert n["l2"] == 0.0 and n["max"] == 0.0


def test_residual_report_shape_and_eta_dependence():
    mesh = build_mesh(1.0, 1.0, 2.0, 13, 13, 13)
    dt = 0.05
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.5, alpha2=2.0, dt_hist=dt)
    solver = HierarchySolver(mesh, BETA)
    hist = FieldHistory()
    for k in range(3):
        hist.push(solver.solve_hierarchy(1, case.sources(k * dt), hist, time=k * dt))
    terms = residual_terms(hist, case.sources(2 * dt))
    r0 = maxwell_residual(terms, 0.1, n_max=0)
    r1 = maxwell_residual(terms, 0.1, n_max=1)
    assert r0.grid == (13, 13, 13)
    # richer model strictly shrinks every eta-dependent equation residual
    for eq in ("ampere_perp", "ampere_zeta", "faraday_perp"):
        assert r1.norm(eq) < r0.norm(eq)
    assert r1.eta_dependent_norm() < 0.5 * r0.eta_dependent_norm()
    d = dataclasses.asdict(r1)
    assert set(d["norms"]) == {"ampere_perp", "ampere_zeta", "gauss",
                               "faraday_perp", "faraday_zeta", "monopole"}


def test_residual_snapshot_missing_an_order_is_an_error():
    # the d/dt of an order-1 reconstruction needs order 1 in both snapshots
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.5)
    solver = HierarchySolver(mesh, BETA)
    hist = FieldHistory()
    for n_max, t in ((0, 0.0), (1, 0.1)):
        hist.push(solver.solve_hierarchy(n_max, case.sources(t), hist, time=t))
    terms = residual_terms(hist, case.sources(0.1))
    for n_max in (None, 1):  # the default is the latest snapshot's order
        with pytest.raises(ValueError, match="order 1 is missing"):
            maxwell_residual(terms, 0.1, n_max=n_max)
    maxwell_residual(terms, 0.1, n_max=0)


def _reconstructed_residual(history, eta, sources, n_max):
    """The residual by reconstruct-then-differentiate: the eta-weighted total
    fields of both snapshots, one backward difference of the totals, then
    the six equations on the full grid."""
    latest = history.latest
    mesh, beta = latest.mesh, latest.beta
    kappa = 1.0 - beta**2
    now = latest.reconstruct(eta, n_max)
    pair = history.pair()
    if pair is None:
        rate = backward_rate(now, now, 1.0)  # a cold start: every rate zero
    else:
        prev, _, dt = pair
        rate = backward_rate(now, prev.reconstruct(eta, n_max), dt)
    Ecal, Ep, Bp, Ez, Bz = now.Ecal, now.Eperp, now.Bperp, now.Ez, now.Bz
    mix = VectorField2(mesh, Ecal.x - kappa * Ep.x, Ecal.y - kappa * Ep.y)
    curl_Bz, dz_mix = curl_perp_scalar(Bz), dzeta(mix)
    dz_ecal_rot, curl_Ez = dzeta(cross_ez(Ecal)), curl_perp_scalar(Ez)
    return {
        "ampere_perp": np.hypot(
            eta * rate.Eperp.x + dz_mix.x / beta - curl_Bz.x + eta * sources.Jperp.x,
            eta * rate.Eperp.y + dz_mix.y / beta - curl_Bz.y + eta * sources.Jperp.y),
        "ampere_zeta": eta * rate.Ez.values + div_perp(mix).values / beta
        - eta * sources.Jzeta.values,
        "gauss": div_perp(Ep).values - dzeta(Ez).values - sources.rho.values,
        "faraday_perp": np.hypot(eta * rate.Bperp.x + dz_ecal_rot.x + curl_Ez.x,
                                 eta * rate.Bperp.y + dz_ecal_rot.y + curl_Ez.y),
        "faraday_zeta": eta * rate.Bz.values + curl_perp_vector(Ecal).values,
        "monopole": div_perp(Bp).values - dzeta(Bz).values,
    }


@pytest.mark.parametrize("snapshots", [1, 2])
def test_per_order_residual_matches_reconstruction(snapshots):
    # the per-order sum is the reconstruct-then-differentiate residual up to
    # rounding, on a cold start and on a two-snapshot pair
    mesh = build_mesh(1.0, 1.0, 2.0, 13, 11, 9)
    dt = 0.05
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.5, alpha2=3.0, jc=0.7,
                           bz_external=0.4, dt_hist=dt)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=0.4))
    hist = FieldHistory()
    for k in range(snapshots):
        hist.push(solver.solve_hierarchy(1, case.sources(k * dt), hist, time=k * dt))
    sources = case.sources((snapshots - 1) * dt)
    terms = residual_terms(hist, sources)
    assert terms.cold_start == (snapshots == 1)
    scale = max(np.abs(a).max() for part in terms.orders
                for arrays in (part.spatial, part.rate) for a in arrays.values())
    interior = (slice(2, -2),) * 3  # two rows in from each face
    for n_max in (0, 1):
        for eta in (0.05, 0.1, 0.3, 1.0):
            rep = maxwell_residual(terms, eta, n_max=n_max)
            assert rep.metadata == {"cold_start": snapshots == 1}
            expected = _reconstructed_residual(hist, eta, sources, n_max)
            for eq, values in expected.items():
                ref = weighted_norms(values[interior], mesh.dual_volume_3d[interior])
                for kind in ("l2", "max"):
                    assert abs(rep.norm(eq, kind) - ref[kind]) <= 1e-12 * scale, (eq, kind)


def test_convergence_study_validation():
    rep = convergence_study([1 / 16, 1 / 32, 1 / 64], [1e-2, 2.5e-3, 6.26e-4],
                            target_order=1.9, label="demo")
    assert rep.slope == pytest.approx(2.0, abs=0.02)
    assert rep.passed
    with pytest.raises(ValueError):
        convergence_study([1 / 16, 1 / 32], [1e-2, 2.5e-3])
    with pytest.raises(ValueError):
        convergence_study([1, 2, 1.5], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateFitError):
        convergence_study([1, 2, 4], [1e-2, 0.0, 1e-3])


def test_richardson_combine():
    # pure h^2 content vanishes; grid-independent content survives
    assert richardson_combine(4.0, 1.0) == pytest.approx(0.0)
    assert richardson_combine(1.0, 1.0) == pytest.approx(1.0)


def test_poisson_mms_slope():
    grids = (9, 17, 33)
    errs = [np.abs(MMS_TARGETS["poisson2d"](n, BETA)[0]).max() for n in grids]
    rep = convergence_study([1.0 / (n - 1) for n in grids], errs, target_order=1.9)
    assert rep.passed


def test_eta_scaling_study_small():
    # reduced grids keep this under a few seconds; acceptance reruns it big
    coarse, fine = (eta_study_terms(BETA, g) for g in [(13, 13, 7), (25, 25, 13)])
    rep0, _ = eta_scaling_study([0.05, 0.1, 0.2], 0, coarse, fine)
    assert rep0.slope >= 0.8
    rep1, data = eta_scaling_study([0.05, 0.1, 0.2], 1, coarse, fine)
    assert rep1.slope >= 1.2  # full 1.8 needs the acceptance grids
    assert all(c > 0 for c in data["corrected"])
