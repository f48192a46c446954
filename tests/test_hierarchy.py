import re
from collections import Counter

import numpy as np
import pytest

from parax.elliptic import DIRICHLET, NEUMANN
from parax.fields import FieldShapeError, ScalarField, VectorField2
from parax.hierarchy import (
    ExternalField,
    FieldHierarchy,
    FieldOrder,
    HierarchySolver,
    SourceTerms,
    backward_rate,
    lower_rates,
    order_sources,
)
from parax.mesh import FACE_AXIS, build_mesh
from parax.operators import div_perp, norms
from parax.verify import QuasiStaticMode, chain_audit, residual_terms

BETA = 0.5


def small_mesh(n=13, nz=None):
    return build_mesh(1.0, 1.0, 2.0, n, n, nz or n)


def field_l2(mesh, got, exact):
    if hasattr(got, "values"):
        err = got.values - exact.values
    else:
        err = np.hypot(got.x - exact.x, got.y - exact.y)
    return norms(err, mesh)["l2"]


def run_case(mesh, case, n_max, times):
    """(previous, latest): the last two snapshots solved at ``times``."""
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    previous = h = None
    for t in times:
        previous, h = h, solver.solve_hierarchy(n_max, case.sources(t), h, time=t)
    return previous, h


def test_zero_sources_zero_hierarchy():
    mesh = small_mesh(9)
    h = HierarchySolver(mesh, BETA).solve_hierarchy(1, SourceTerms.zeros(mesh))
    for o in h.orders:
        assert np.all(o.Ez.values == 0.0)
        assert np.all(o.Eperp.x == 0.0) and np.all(o.Eperp.y == 0.0)
        assert np.all(o.Ecal.x == 0.0) and np.all(o.Ecal.y == 0.0)
        assert np.all(o.Bperp.x == 0.0) and np.all(o.Bperp.y == 0.0)
        assert np.all(o.Bz.values == 0.0)


def test_uniform_external_bz_passthrough():
    # no sources, solenoidal Bperp = 0: Bz stays at its zeta=0 plane value
    mesh = small_mesh(9)
    h = HierarchySolver(mesh, BETA, external=ExternalField(bz=1.0)).solve_hierarchy(
        0, SourceTerms.zeros(mesh))
    np.testing.assert_allclose(h.order(0).Bz.values, 1.0, atol=1e-12)


def test_cold_start_collapse():
    # static rho-only sources, single snapshot: orders >= 1 vanish identically
    mesh = small_mesh(11)
    case = QuasiStaticMode(mesh=mesh, beta=BETA)  # alpha = jc = 0
    h = HierarchySolver(mesh, BETA).solve_hierarchy(2, case.sources(0.0))
    for n in (1, 2):
        for arr in h.order(n).arrays().values():
            assert np.abs(arr).max() < 1e-10


def test_order0_matches_closed_form_and_converges():
    errs = []
    for n in (13, 25):
        mesh = small_mesh(n)
        case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.7)
        _, h = run_case(mesh, case, 0, [0.0])
        ex = case.exact_order(0, 0.0)
        o = h.order(0)
        errs.append(max(field_l2(mesh, getattr(o, f), ex[f])
                        for f in ("Ez", "Ecal", "Eperp", "Bperp", "Bz")))
    assert errs[0] / errs[1] > 3.0  # near-O(h^2) on the worst component


def test_order1_matches_closed_form():
    mesh = small_mesh(17)
    dt = 0.05
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.8, alpha2=0.6,
                           bz_external=0.4, dt_hist=dt)
    _, h = run_case(mesh, case, 1, [0.0, dt, 2 * dt])
    ex = case.exact_order(1, 2 * dt)
    o = h.order(1)
    for f in ("Ez", "Ecal", "Eperp", "Bperp", "Bz"):
        assert field_l2(mesh, getattr(o, f), ex[f]) < 5e-3


def test_gauss_and_solenoidal_residuals_shrink():
    res = {}
    for n in (13, 25):
        mesh = small_mesh(n)
        case = QuasiStaticMode(mesh=mesh, beta=BETA)
        previous, h = run_case(mesh, case, 0, [0.0])
        d = chain_audit(previous, h, case.sources(0.0))[0]
        res[n] = (d["gauss_residual"]["l2"], d["solenoidal_residual"]["l2"])
    assert res[13][0] / res[25][0] > 3.0
    # solenoidal is near-exact for the curl-free family; just require small
    assert res[25][1] < 1e-5


def test_pseudo_field_consistency():
    mesh = small_mesh(13)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.2)
    previous, h = run_case(mesh, case, 0, [0.0])
    assert chain_audit(previous, h, case.sources(0.0))[0]["pseudo_field_consistency"]["l2"] < 5e-3


def test_order_immutability_and_reproducibility():
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA)
    _, h1 = run_case(mesh, case, 1, [0.0])
    _, h2 = run_case(mesh, case, 2, [0.0])
    for f in ("Ez", "Bz"):
        np.testing.assert_array_equal(getattr(h1.order(0), f).values,
                                      getattr(h2.order(0), f).values)
    np.testing.assert_array_equal(h1.order(1).Eperp.x, h2.order(1).Eperp.x)
    with pytest.raises(ValueError):
        h1.order(0).Ez.values[0, 0, 0] = 1.0


# an order's eight arrays in chain order, by the names freeze's errors print
NAMES = ("Ez", "Ecal.x", "Ecal.y", "Eperp.x", "Eperp.y", "Bperp.x", "Bperp.y", "Bz")


def _field(order: FieldOrder, name: str) -> np.ndarray:
    """The array ``name`` of ``order``, reached by attribute: "Ecal.x" is
    order.Ecal.x, "Ez" order.Ez.values."""
    obj = order
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj if isinstance(obj, np.ndarray) else obj.values


def _random_order(mesh, n: int, rng, zeros) -> FieldOrder:
    """Normal draws with +0.0 at random nodes and -0.0 at the nodes ``zeros``."""
    def draw():
        a = rng.normal(size=zeros.shape)
        a[rng.random(zeros.shape) < 0.2] = 0.0
        a[zeros] = -0.0
        return a
    return FieldOrder(n, ScalarField(mesh, draw()), VectorField2(mesh, draw(), draw()),
                      VectorField2(mesh, draw(), draw()), VectorField2(mesh, draw(), draw()),
                      ScalarField(mesh, draw()))


def test_arrays_lists_the_order_by_its_own_arrays():
    mesh = small_mesh(5)
    rng = np.random.default_rng(32)
    order = _random_order(mesh, 0, rng, np.zeros((5, 5, 5), dtype=bool))
    arrays = order.arrays()
    assert tuple(arrays) == NAMES
    for name, a in arrays.items():
        assert a is _field(order, name), name
    values = list(arrays.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(values) for b in values[i + 1:])
    # freeze checks the same list in the same order and names what it finds
    for name in NAMES:
        poisoned = _random_order(mesh, 3, rng, np.zeros((5, 5, 5), dtype=bool))
        _field(poisoned, name)[1, 2, 3] = np.nan
        with pytest.raises(FieldShapeError, match=f"^order 3: {name} is non-finite$"):
            poisoned.freeze()


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_reconstruct_is_the_order_by_order_sum_bit_for_bit(n_max):
    # each array is sum_n eta^n a^n added from +0.0 zeros in order: a node
    # that is -0.0 at every order comes out +0.0
    mesh = small_mesh(5, 4)
    rng = np.random.default_rng(33)
    zeros = rng.random((4, 5, 5)) < 0.1
    assert zeros.any()
    h = FieldHierarchy(mesh=mesh, beta=BETA,
                       orders=[_random_order(mesh, n, rng, zeros) for n in range(3)])
    eta = 0.3
    total = h.reconstruct(eta, n_max)
    assert total.n == n_max
    for name in NAMES:
        want = np.zeros((4, 5, 5))
        for n in range(n_max + 1):
            want += eta**n * _field(h.order(n), name)
        got = _field(total, name)
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert not np.signbit(got[zeros]).any()


def test_ez_order_slab_is_zero():
    # zeta-independent rho: the Ez forcing vanishes identically
    mesh = small_mesh(9)
    X, Y, _ = mesh.grids3d()
    rho = np.sin(np.pi * X) * np.sin(np.pi * Y)
    src = SourceTerms(ScalarField(mesh, rho), VectorField2.zeros(mesh), ScalarField.zeros(mesh))
    h = HierarchySolver(mesh, BETA).solve_hierarchy(0, src)
    assert np.abs(h.order(0).Ez.values).max() < 1e-9


def test_eperp_slab_reduces_to_2d_electrostatics():
    # zeta-independent rho with Neumann zeta ends: Eperp equals the per-slice
    # electrostatic field, and Gauss holds
    mesh = build_mesh(1.0, 1.0, 2.0, 17, 17, 7)
    X, Y, _ = mesh.grids3d()
    rho = np.sin(np.pi * X) * np.sin(np.pi * Y)
    src = SourceTerms(ScalarField(mesh, rho), VectorField2.zeros(mesh), ScalarField.zeros(mesh))
    h = HierarchySolver(mesh, BETA).solve_hierarchy(0, src)
    E = h.order(0).Eperp
    for k in range(1, mesh.nzeta):
        np.testing.assert_allclose(E.x[k], E.x[0], atol=1e-8)
    gauss = div_perp(E).values - rho
    assert norms(gauss, mesh)["l2"] < 5e-3


def test_time_derivative_conventions():
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0)
    solver = HierarchySolver(mesh, BETA)
    h0 = solver.solve_hierarchy(0, case.sources(0.0), time=0.0)
    # order 0 reads no rate, and on a cold start (no previous snapshot) order
    # 1 reads none either, so the stages form no d/dt term
    assert lower_rates(0, [], h0, 0.5) is None
    assert lower_rates(1, h0.orders, None, 0.0) is None
    h1 = solver.solve_hierarchy(0, case.sources(0.5), h0, time=0.5)
    # rho = (1 + t) R: the order-0 chain is linear, so its fields are
    # (1 + t) F and the quotient recovers d/dt = F = the fields at t = 0
    rate = backward_rate(h1.order(0), h0.order(0), 0.5)
    o0 = h0.order(0)
    for got, want in ((rate.Ez.values, o0.Ez.values), (rate.Bz.values, o0.Bz.values),
                      (rate.Eperp.x, o0.Eperp.x), (rate.Eperp.y, o0.Eperp.y),
                      (rate.Bperp.x, o0.Bperp.x), (rate.Bperp.y, o0.Bperp.y)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))
    with pytest.raises(ValueError):
        backward_rate(h1.order(0), h0.order(0), 0.0)
    # a time not after the snapshot before is refused, also at n_max 0,
    # which forms no rate
    for n_max in (0, 1):
        with pytest.raises(ValueError, match="strictly increasing"):
            solver.solve_hierarchy(n_max, case.sources(0.0), h1, time=h0.time)


def test_snapshot_missing_an_order_is_an_error():
    # a snapshot solved to a lower order cannot drive a higher-order solve:
    # order 2 needs d/dt of order 1, which the snapshot does not hold
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0, bz_external=0.3)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    h0 = solver.solve_hierarchy(0, case.sources(0.0), time=0.0)
    with pytest.raises(ValueError, match="order 1 is missing"):
        solver.solve_hierarchy(2, case.sources(0.1), h0, time=0.1)
    # one order above the snapshot only needs the snapshot's own orders
    solver.solve_hierarchy(1, case.sources(0.1), h0, time=0.1)


def test_order_diagnostics_present():
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.3)
    previous, h = run_case(mesh, case, 0, [0.0])
    d = chain_audit(previous, h, case.sources(0.0))[0]
    assert d["bperp_trace_defect"] < 1e-5
    assert "circulation_mismatch_max" in d
    assert "flux_mismatch_max" in d
    assert "bz_integral_residual" in d


def test_bz_antiderivative_oracle():
    # solenoidal source with known zeta-antiderivative:
    # div Bperp = sin(pi zeta/Z) g(x,y)  =>  Bz = (Z/pi)(1 - cos(pi zeta/Z)) g
    errs = []
    for n in (17, 33):
        mesh = build_mesh(1.0, 1.0, 2.0, n, n, 2 * n - 1)
        solver = HierarchySolver(mesh, BETA)
        X, Y, Z = mesh.grids3d()
        kz = np.pi / mesh.zlen
        g = np.cos(np.pi * X)  # Bperp = (sin(pi x)/pi * sin, 0) has div = g sin
        Bperp = VectorField2(mesh, np.sin(np.pi * X) / np.pi * np.sin(kz * Z),
                             np.zeros_like(X))
        Bz = solver.solve_Bz_order(0, div_perp(Bperp).values)
        exact = (1.0 - np.cos(kz * Z)) / kz * g
        errs.append(np.abs(Bz.values - exact).max())
    assert errs[0] / errs[1] > 3.5  # O(h^2) from div stencil + trapezoid


def test_invalid_inputs():
    mesh = small_mesh(9)
    with pytest.raises(ValueError):
        HierarchySolver(mesh, beta=1.0)
    with pytest.raises(ValueError):
        HierarchySolver(mesh, beta=0.5).solve_hierarchy(-1, SourceTerms.zeros(mesh))


def test_sources_are_one_order_0_source_terms():
    # rho enters order 0 and J order 1, nothing above; a per-order list is
    # not a form the chain takes
    mesh = small_mesh(9)
    src = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0, jc=0.5).sources(0.0)
    (rho0, J0), (rho1, J1) = order_sources(src, 0), order_sources(src, 1)
    assert rho0 is src.rho.values and rho1 == 0.0
    for got, want in zip(J1, (src.Jperp.x, src.Jperp.y, src.Jzeta.values)):
        assert got is want
    assert J0 == (0.0, 0.0, 0.0) and order_sources(src, 2) == (0.0, (0.0, 0.0, 0.0))
    with pytest.raises(TypeError, match="one SourceTerms"):
        HierarchySolver(mesh, BETA).solve_hierarchy(1, [src])


OTHER_MESH = {"extent": build_mesh(2.0, 1.0, 2.0, 7, 7, 7),
              "shape": build_mesh(1.0, 1.0, 2.0, 9, 9, 9)}


@pytest.mark.parametrize("reader", ["solve_hierarchy", "residual_terms", "chain_audit"])
@pytest.mark.parametrize("what, differs, error", [
    ("sources", "extent", "mesh of the sources differs: a 2, not 1"),
    ("sources", "shape", "mesh of the sources differs: nx 9, not 7; ny 9, not 7; nzeta 9, not 7"),
    ("previous", "extent", "mesh of the snapshot before differs: a 2, not 1"),
    ("previous", "shape",
     "mesh of the snapshot before differs: nx 9, not 7; ny 9, not 7; nzeta 9, not 7"),
    ("previous", "beta", "beta of the snapshot before differs: 0.3, not 0.5"),
], ids=["sources-extent", "sources-shape", "previous-extent", "previous-shape", "previous-beta"])
def test_inputs_of_another_solve_are_refused_by_name(reader, what, differs, error):
    # sources, or a snapshot before, of another mesh or beta would be solved
    # with this mesh's spacings or differenced against fields of another
    # problem; the chain and the two harnesses that read its inputs refuse
    # them and name what differs
    mesh = small_mesh(7)

    def snapshot(mesh, beta, t, previous=None):
        case = QuasiStaticMode(mesh=mesh, beta=beta, alpha=1.0, jc=0.5)
        return HierarchySolver(mesh, beta).solve_hierarchy(1, case.sources(t), previous, t)

    previous = snapshot(mesh, BETA, 0.0)
    latest = snapshot(mesh, BETA, 0.1, previous)
    sources = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0, jc=0.5).sources(0.1)
    if what == "sources":
        sources = QuasiStaticMode(mesh=OTHER_MESH[differs], beta=BETA, alpha=1.0).sources(0.1)
    elif differs == "beta":
        previous = snapshot(mesh, 0.3, 0.0)
    else:
        previous = snapshot(OTHER_MESH[differs], BETA, 0.0)
    run = {"solve_hierarchy": lambda: HierarchySolver(mesh, BETA).solve_hierarchy(
               1, sources, previous, 0.1),
           "residual_terms": lambda: residual_terms(previous, latest, sources),
           "chain_audit": lambda: chain_audit(previous, latest, sources)}[reader]
    with pytest.raises(ValueError if differs == "beta" else FieldShapeError,
                       match=f"^{re.escape(error)}$"):
        run()


def test_3d_problems_pose_their_faces_by_one_rule():
    # both zeta ends by order parity (even orders: Dirichlet for Ez, Neumann
    # for Eperp; odd orders swapped), with value 0; across the transverse
    # faces Ez is 0, and Eperp component c is 0 on the faces it is tangential
    # to and has the outward derivative nu_c * gauss on the two it is normal to
    mesh = build_mesh(1.0, 1.3, 2.0, 7, 6, 5)
    solver = HierarchySolver(mesh, BETA)
    gauss = np.random.default_rng(3).normal(size=(mesh.nzeta, mesh.ny, mesh.nx))
    ecal = VectorField2.zeros(mesh)
    neumann = {"x_lo": (0, -gauss[:, :, 0]), "x_hi": (0, gauss[:, :, -1]),
               "y_lo": (1, -gauss[:, 0, :]), "y_hi": (1, gauss[:, -1, :])}
    for n in range(4):
        even = n % 2 == 0
        ez_end = DIRICHLET if even else NEUMANN
        eperp_end = NEUMANN if even else DIRICHLET
        rho, J = order_sources(SourceTerms.zeros(mesh), n)
        _, ez_bc = solver.ez_problem(n, rho, J, None)
        eperp_bcs = [bc for _, bc in solver.eperp_problems(n, ecal, gauss, J, None)]
        want = [{f: (ez_end if f.startswith("zeta") else DIRICHLET, 0.0) for f in FACE_AXIS}]
        for c in (0, 1):
            want.append({f: (eperp_end, 0.0) if f.startswith("zeta")
                         else (NEUMANN, neumann[f][1]) if neumann[f][0] == c
                         else (DIRICHLET, 0.0) for f in FACE_AXIS})
        for bc, faces in zip([ez_bc, *eperp_bcs], want, strict=True):
            assert set(bc) == set(faces)
            for f, (kind, value) in faces.items():
                assert bc[f].kind == kind, (n, f)
                assert np.array_equal(bc[f].value, value), (n, f)


def test_order_0_reads_no_time_derivative():
    # order 0 reads the rates of order -1, which do not exist: a previous
    # snapshot changes none of its bits, zero signs and audit (with its
    # solve residuals) included
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0, jc=0.5, bz_external=0.3)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    h0 = solver.solve_hierarchy(1, case.sources(0.0), time=0.0)
    sources = case.sources(0.2)
    warm_h = solver.solve_hierarchy(0, sources, h0, 0.2)
    cold_h = solver.solve_hierarchy(0, sources, None, 0.2)
    warm, cold = warm_h.order(0), cold_h.order(0)
    for a, b in zip(warm.arrays().values(), cold.arrays().values()):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert chain_audit(h0, warm_h, sources) == chain_audit(None, cold_h, sources)


def test_non_finite_source_is_an_error():
    # the wrappers check shape only: a NaN written into a source reaches
    # solve_hierarchy, which checks its sources before the first stage
    mesh = small_mesh(9)
    sources = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0).sources(0.0)
    sources.rho.values[4, 4, 4] = np.nan
    with pytest.raises(FieldShapeError, match="^sources: rho is non-finite$"):
        HierarchySolver(mesh, BETA).solve_hierarchy(1, sources)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("stage, named", [
    ("Ez", "Ez"), ("Ecal", "Ecal.x"), ("Eperp", "Eperp.x"), ("Bperp", "Bperp.x"), ("Bz", "Bz"),
])
def test_non_finite_stage_output_names_its_order_and_stage(monkeypatch, order, stage, named):
    # one NaN in one stage's output at one order: the later stages of that
    # order read it too, and the error names the first, in chain order; the
    # order is the one solve_order was called for
    method = f"solve_{stage}_order"
    solve, solve_order = getattr(HierarchySolver, method), HierarchySolver.solve_order
    at = [None]

    def tracked(self, n, *args):
        at[0] = n
        return solve_order(self, n, *args)

    def poisoned(self, *args):
        out = solve(self, *args)
        if at[0] == order:
            (out.values if isinstance(out, ScalarField) else out.x)[2, 4, 4] = np.nan
        return out

    monkeypatch.setattr(HierarchySolver, "solve_order", tracked)
    monkeypatch.setattr(HierarchySolver, method, poisoned)
    mesh = small_mesh(9)
    sources = QuasiStaticMode(mesh=mesh, beta=BETA, alpha=1.0).sources(0.0)
    with pytest.raises(FieldShapeError, match=f"^order {order}: {named} is non-finite$"):
        HierarchySolver(mesh, BETA).solve_hierarchy(1, sources)


def test_solve_diagnostics_recorded():
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.3)
    previous, h = run_case(mesh, case, 1, [0.0, 0.1])
    audit = chain_audit(previous, h, case.sources(0.1))
    for o in h.orders:
        d = audit[o.n]
        assert np.isfinite(d["bperp_trace_defect"])
        for name in ("Ez", "Eperp_x", "Eperp_y"):
            assert d[f"{name}_method"] == "fdm"
            assert 0.0 <= d[f"{name}_relative_residual"] <= 1e-12


def test_one_pass_per_order(monkeypatch):
    # Bperp . nu is fixed by order n-1 data, so each stage runs once per order
    stages = ("solve_Ecal_order", "solve_Eperp_order", "solve_Bperp_order")
    calls = Counter()
    for stage in stages:
        def counted(self, *args, _stage=stage, _solve=getattr(HierarchySolver, stage),
                    **kwargs):
            calls[_stage] += 1
            return _solve(self, *args, **kwargs)

        monkeypatch.setattr(HierarchySolver, stage, counted)
    mesh = small_mesh(9)
    case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.3)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    h = None
    for n_max, t in ((0, 0.0), (1, 0.1), (2, 0.2)):
        calls.clear()
        h = solver.solve_hierarchy(n_max, case.sources(t), h, time=t)
        assert calls == {stage: n_max + 1 for stage in stages}


def test_bperp_trace_defect_is_a_discretization_error():
    # the achieved Bperp . nu departs from the imposed trace only at the
    # discretization level, so the defect falls under refinement
    defects = []
    for n in (9, 17):
        mesh = small_mesh(n)
        case = QuasiStaticMode(mesh=mesh, beta=BETA, bz_external=0.3)
        previous, h = run_case(mesh, case, 0, [0.0])
        defects.append(chain_audit(previous, h, case.sources(0.0))[0]["bperp_trace_defect"])
    assert defects[0] / defects[1] >= 3.5
