import numpy as np
import pytest

from parax.elliptic import BoundarySpec, DIRICHLET, solve_anisotropic_poisson_3d, solve_poisson_2d
from parax.hierarchy import FieldHistory, HierarchySolver, SourceTerms, solve_hierarchy
from parax.mesh import build_mesh
from parax.verify import (
    DegenerateFitError,
    QuasiStaticMode,
    convergence_study,
    eta_scaling_study,
    maxwell_residual,
    mms_case,
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
    hist.push(solve_hierarchy(mesh, BETA, 0, SourceTerms.zeros(mesh)))
    rep = maxwell_residual(hist, 0.1, SourceTerms.zeros(mesh))
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
    r0 = maxwell_residual(hist, 0.1, case.sources(2 * dt), n_max=0)
    r1 = maxwell_residual(hist, 0.1, case.sources(2 * dt), n_max=1)
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
    with pytest.raises(ValueError, match="order 1 is missing"):
        maxwell_residual(hist, 0.1, case.sources(0.1))
    maxwell_residual(hist, 0.1, case.sources(0.1), n_max=0)


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
