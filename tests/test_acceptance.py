"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; grid sizes and tolerances are pinned here and nowhere else.
"""

import os
from pathlib import Path

import numpy as np

from parax.cli import run_command
from parax.config import RunConfig
from parax.fields import ScalarField, VectorField2
from parax.hierarchy import (
    HierarchySolver,
    SourceTerms,
)
from parax.mesh import build_mesh
from parax.operators import (
    cross_ez,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    laplace_perp,
)
from parax.pic import (
    ParticleEnsemble,
    assemble_force,
    check_charge_conservation,
    sample_initial_distribution,
)
from parax.verify import (
    MMS_TARGETS,
    QuasiStaticMode,
    chain_audit,
    eta_scaling_study,
    eta_study_terms,
    mms_study,
    solve_timeline,
)

BETA = 0.5


def report(criterion: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {criterion} ({name}): PASS{suffix}")


def test_criterion_1_operator_identities():
    # all three discrete operator identities to machine precision on a 32^2
    # grid for degree <= 2 polynomial fields
    mesh = build_mesh(1.0, 1.0, 1.0, 33, 33, 3)
    X, Y = mesh.xy()
    interior = mesh.interior_mask_2d()
    phi = ScalarField(mesh, 1.3 * X**2 - 0.7 * Y**2 + 0.4 * X * Y - X + 2.0 * Y + 0.3)
    A = VectorField2(mesh, 0.8 * X**2 + 0.1 * X * Y - Y, -1.1 * Y**2 + 0.6 * X * Y + X)

    gap1 = np.abs(div_perp(cross_ez(A)).values - curl_perp_vector(A).values)[interior].max()
    gap2 = np.abs(curl_perp_vector(cross_ez(A)).values + div_perp(A).values)[interior].max()
    gap3 = np.abs(curl_perp_vector(curl_perp_scalar(phi)).values
                  + laplace_perp(phi).values)[interior].max()
    assert gap1 < 1e-11
    assert gap2 < 1e-11
    assert gap3 < 1e-10
    report(1, "operator identities", f"max gaps {gap1:.1e}, {gap2:.1e}, {gap3:.1e}")


def test_criterion_2_mms_convergence():
    # the five parax mms targets, each fitted over three grids
    slopes = {t: mms_study(t, (17, 33, 65), BETA).slope for t in MMS_TARGETS}
    for name, slope in slopes.items():
        assert slope >= 1.9, f"{name} fitted order {slope:.3f} < 1.9"
    report(2, "MMS convergence",
           " ".join(f"{k}={v:.2f}" for k, v in slopes.items()))


def test_criterion_3_zero_propagation():
    # zero sources, zero external field, cold start: exact zeros everywhere
    mesh = build_mesh(1.0, 1.0, 2.0, 17, 17, 9)
    h = HierarchySolver(mesh, BETA).solve_hierarchy(1, SourceTerms.zeros(mesh))
    for o in h.orders:
        for arr in (o.Ez.values, o.Ecal.x, o.Ecal.y, o.Eperp.x, o.Eperp.y,
                    o.Bperp.x, o.Bperp.y, o.Bz.values):
            assert np.all(arr == 0.0)

    # a (numerically) chargeless beam drifts exactly ballistically: forces
    # are below one ulp of the velocities
    p = sample_initial_distribution(mesh, "uniform", 40, seed=3, radius=0.2,
                                    total_weight=1e-300, vth=0.0)
    p.vx[:] = 0.05
    p.vy[:] = -0.03
    p.vzeta[:] = 0.04
    expect_x, expect_y, expect_z = p.x.copy(), p.y.copy(), p.zeta.copy()
    from parax.pic import run_pic

    dt, steps = 0.05, 4
    final, _, recs = run_pic(mesh, BETA, 0.1, p.copy(), n_max=0, dt=dt, steps=steps)
    for _ in range(steps):
        expect_x = expect_x + 0.05 * dt
        expect_y = expect_y + (-0.03) * dt
        expect_z = expect_z + 0.04 * dt
    np.testing.assert_array_equal(final.x, expect_x)
    np.testing.assert_array_equal(final.y, expect_y)
    np.testing.assert_array_equal(final.zeta, expect_z)
    report(3, "zero propagation")


def test_criterion_4_cold_start_collapse():
    # sources only at order 0, one time snapshot: orders >= 1 vanish to the
    # solver tolerance
    mesh = build_mesh(1.0, 1.0, 2.0, 25, 25, 13)
    case = QuasiStaticMode(mesh=mesh, beta=BETA)  # static, rho-only
    h = HierarchySolver(mesh, BETA).solve_hierarchy(2, case.sources(0.0))
    worst = 0.0
    for n in (1, 2):
        o = h.order(n)
        for arr in (o.Ez.values, o.Ecal.x, o.Ecal.y, o.Eperp.x, o.Eperp.y,
                    o.Bperp.x, o.Bperp.y, o.Bz.values):
            worst = max(worst, float(np.abs(arr).max()))
    assert worst <= 1e-10
    report(4, "cold-start collapse", f"max |order>=1| = {worst:.2e}")


def test_criterion_5_eta_scaling():
    coarse, fine = (eta_study_terms(BETA, g) for g in [(33, 33, 17), (65, 65, 33)])
    rep0, _ = eta_scaling_study([0.05, 0.1, 0.2], 0, coarse, fine)
    rep1, _ = eta_scaling_study([0.05, 0.1, 0.2], 1, coarse, fine)
    assert rep0.slope >= 0.8, f"n_max=0 slope {rep0.slope:.3f}"
    assert rep1.slope >= 1.8, f"n_max=1 slope {rep1.slope:.3f}"
    report(5, "theorem eta-scaling",
           f"slopes {rep0.slope:.2f} (>=0.8), {rep1.slope:.2f} (>=1.8)")


def test_criterion_6_constraint_residuals():
    # Gauss and solenoidal residuals of every completed order drop by >= 3.5
    # when h is halved once
    dt = 0.05
    res = {}
    for n in (17, 33):
        mesh = build_mesh(1.0, 1.0, 2.0, n, n, (n + 1) // 2)
        case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.5, alpha2=2.0,
                               jc=0.5, bz_external=0.4, dt_hist=dt)
        for previous, h in solve_timeline(case, 1, 3):
            pass
        audit = chain_audit(previous, h, case.sources(h.time))
        res[n] = {
            o.n: (audit[o.n]["gauss_residual"]["l2"],
                  audit[o.n]["solenoidal_residual"]["l2"])
            for o in h.orders
        }
    ratios = []
    for order in (0, 1):
        for comp in (0, 1):
            coarse, fine = res[17][order][comp], res[33][order][comp]
            if fine < 1e-13:  # identically satisfied branch
                continue
            ratios.append(coarse / fine)
    assert ratios and min(ratios) >= 3.5, f"ratios {ratios}"
    report(6, "constraint residuals",
           "ratios " + " ".join(f"{r:.2f}" for r in ratios))


def test_criterion_7_charge_conservation():
    # manufactured smooth moving charge, one simultaneous halving of h and dt
    def bunch(mesh, t, v=(0.2, 0.0, 0.3), sig=0.3):
        X, Y, Z = mesh.grids3d()
        cx = mesh.x0 + mesh.a / 2 + v[0] * t
        cy = mesh.y0 + mesh.b / 2 + v[1] * t
        cz = mesh.zlen / 2 + v[2] * t
        rho = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2) / (2 * sig**2))
        return SourceTerms(ScalarField(mesh, rho),
                           VectorField2(mesh, v[0] * rho, v[1] * rho),
                           ScalarField(mesh, v[2] * rho))

    res = []
    for n, dt in ((17, 0.02), (33, 0.01)):
        mesh = build_mesh(2.0, 2.0, 4.0, n, n, n, x0=-1.0, y0=-1.0)
        r = check_charge_conservation(bunch(mesh, dt), bunch(mesh, 0.0), dt, mesh)
        res.append(r["l2"])
    ratio = res[0] / res[1]
    assert ratio >= 3.0, f"ratio {ratio:.2f}"
    report(7, "charge conservation", f"ratio {ratio:.2f} (>= 3.0)")


def test_criterion_8_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        cfg = RunConfig()
        cfg.mesh.nx = cfg.mesh.ny = 13
        cfg.mesh.nzeta = 9
        cfg.pic.n_particles = 200
        cfg.pic.steps = 3
        cfg.pic.vth = 0.05
        out = str(tmp_path / run)
        assert run_command("pic", cfg, out_dir=out, quiet=True, n_chunks=3) == 0
        outs.append(out)
    names = sorted(f for f in os.listdir(outs[0]) if f.endswith(".csv"))
    assert names, "no CSV outputs written"
    for name in names + ["diagnostics.jsonl"]:
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    report(8, "determinism",
           f"{len(names)} CSVs and diagnostics.jsonl byte-identical across reruns")


def test_criterion_9_force_truncation_bound():
    mesh = build_mesh(1.0, 1.0, 2.0, 17, 17, 9)
    dt = 0.05
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.8, alpha2=0.5,
                           bz_external=0.6, dt_hist=dt)
    for _, h in solve_timeline(case, 1, 3):
        pass

    rng = np.random.default_rng(5)
    n = 200
    p = ParticleEnsemble(
        ids=np.arange(n),
        x=rng.uniform(0.05, 0.95, n), y=rng.uniform(0.05, 0.95, n),
        zeta=rng.uniform(0.1, 1.9, n),
        vx=rng.normal(0, 0.5, n), vy=rng.normal(0, 0.5, n),
        vzeta=rng.normal(0, 0.5, n), weight=np.ones(n),
    )
    eta = 0.1
    t0 = np.column_stack(assemble_force(0, h, p, eta=eta))
    t1 = np.column_stack(assemble_force(1, h, p, eta=eta))
    diff = np.abs(t1 - t0)

    # nodal order-1 force bound per particle velocity (interpolation is a
    # convex combination, so interpolated forces cannot exceed nodal maxima)
    o1, o0 = h.order(1), h.order(0)
    worst_violation = -np.inf
    for k in range(n):
        fx = o1.Ecal.x + o0.Bz.values * p.vy[k] + p.vzeta[k] * o0.Bperp.y
        fy = o1.Ecal.y - o0.Bz.values * p.vx[k] - p.vzeta[k] * o0.Bperp.x
        fz = o1.Ez.values + p.vx[k] * o0.Bperp.y - p.vy[k] * o0.Bperp.x
        bound = eta * np.array([np.abs(fx).max(), np.abs(fy).max(), np.abs(fz).max()])
        worst_violation = max(worst_violation, float((diff[k] - bound).max()))
    assert worst_violation <= 1e-12
    report(9, "force truncation bound", f"worst violation {worst_violation:.2e}")
