import numpy as np
import pytest

from parax.elliptic import BoundarySpec, DIRICHLET, solve_anisotropic_poisson_3d, solve_poisson_2d
from parax.fields import VectorField2
from parax.hierarchy import (
    ExternalField,
    FieldHistory,
    HierarchySolver,
    SourceTerms,
    backward_rate,
)
from parax.mesh import build_mesh
from parax.operators import (
    cross_ez,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    norms,
)
from parax.verify import (
    DegenerateFitError,
    QuasiStaticMode,
    convergence_study,
    eta_scaling_study,
    maxwell_residual,
    mms_case,
    residual_terms,
    richardson_combine,
    standard_eta_runner,
)

BETA = 0.5


def test_mms_registry_cases():
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 9)
    z = mms_case("zero", mesh, BETA)
    assert np.all(z["rhs"].values == 0.0)
    ez = mms_case("ez-mode-111", mesh, BETA)
    kap = 1.0 - BETA**2
    lam = np.pi**2 * (1.0 + 1.0 + kap / mesh.zlen**2)
    np.testing.assert_allclose(ez["rhs"].values, -lam * ez["exact"].values, atol=1e-12)
    rot = mms_case("divcurl-rot", mesh, BETA)
    assert rot["circulation"] == pytest.approx(2.0 * mesh.a * mesh.b)
    np.testing.assert_allclose(rot["curl"].values, 2.0)
    with pytest.raises(KeyError):
        mms_case("no-such-case", mesh, BETA)


def test_ez_mode_111_solver_recovery():
    mesh = build_mesh(1.0, 1.0, 2.0, 17, 17, 17)
    case = mms_case("ez-mode-111", mesh, BETA)
    u = solve_anisotropic_poisson_3d(
        case["kappa"], case["rhs"], BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True)
    )
    assert np.abs(u.values - case["exact"].values).max() < 5e-3


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
    d = r1.as_dict()
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
        rate = backward_rate(now, None, 0.0)
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
    for n_max in (0, 1):
        for eta in (0.05, 0.1, 0.3, 1.0):
            rep = maxwell_residual(terms, eta, n_max=n_max)
            assert rep.metadata == {"cold_start": snapshots == 1}
            expected = _reconstructed_residual(hist, eta, sources, n_max)
            for eq, values in expected.items():
                ref = norms(values, mesh, collar=2)
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
    errs, hs = [], []
    for n in (9, 17, 33):
        mesh = build_mesh(1.0, 1.0, 1.0, n, n, 3)
        case = mms_case("poisson-sine", mesh, BETA)
        u = solve_poisson_2d(case["rhs"], BoundarySpec.uniform(DIRICHLET, 0.0))
        errs.append(np.abs(u.values - case["exact"].values).max())
        hs.append(1.0 / (n - 1))
    rep = convergence_study(hs, errs, target_order=1.9)
    assert rep.passed


def test_eta_scaling_study_small():
    # reduced grids keep this under a few seconds; acceptance reruns it big
    make_runner = standard_eta_runner(beta=BETA)
    rep0, _ = eta_scaling_study(BETA, [0.05, 0.1, 0.2], 0,
                                [(13, 13, 7), (25, 25, 13)], make_runner)
    assert rep0.slope >= 0.8
    rep1, data = eta_scaling_study(BETA, [0.05, 0.1, 0.2], 1,
                                   [(13, 13, 7), (25, 25, 13)], make_runner)
    assert rep1.slope >= 1.2  # full 1.8 needs the acceptance grids
    assert all(c > 0 for c in data["corrected"])
