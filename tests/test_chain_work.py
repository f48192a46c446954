"""The field chain forms each volume once per order and skips the work whose
result is known to be zero: these tests count the kernel calls of a warm
solve, pin the skipped curl work, bit for bit, to the code that still forms
it, pin the skipped zeta derivative of the Ez stage's zero source the same
way, pin the Eperp stage's x and y solves to two public solves on the calling
thread, on large and small volumes, and pin the audit's solve residuals to
what the solves report."""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parax import elliptic, fields, hierarchy
from parax.elliptic import (
    DIRICHLET,
    FaceBC,
    _corner_bilinear,
    _gamma_dirichlet_from_tangential,
    _particular_field,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from parax.fields import ScalarField, VectorField2
from parax.hierarchy import (ExternalField, HierarchySolver, SourceTerms, lower_rates,
                             order_sources)
from parax.mesh import FACE_ORDER, build_mesh
from parax.operators import boundary_tangential_trace, circulation, curl_perp_scalar, grad_perp
from parax.verify import QuasiStaticMode, chain_audit

BETA = 0.5


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


def mode_case(mesh):
    return QuasiStaticMode(mesh=mesh, beta=BETA, alpha=0.4, alpha2=2.0, jc=0.5,
                           bz_external=0.3, dt_hist=0.1)


def test_warm_order_forms_each_volume_once(monkeypatch):
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 7)
    case = mode_case(mesh)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    h0 = solver.solve_hierarchy(1, case.sources(0.0), time=0.0)

    order = [None]
    calls = Counter()
    zeta_inputs = []  # (order, array) of each high-order dzeta, kept alive

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, order[0]] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dzeta(f, high_order=False):
        if high_order and isinstance(f, ScalarField):
            zeta_inputs.append((order[0], f.values))
        return hierarchy_dzeta(f, high_order=high_order)

    def solve_order(n, *args):
        order[0] = n
        return solver_solve_order(n, *args)

    hierarchy_dzeta = hierarchy.dzeta
    solver_solve_order = solver.solve_order
    monkeypatch.setattr(hierarchy, "dzeta", dzeta)
    monkeypatch.setattr(solver, "solve_order", solve_order)
    monkeypatch.setattr(hierarchy, "div_perp", counted("div_perp", hierarchy.div_perp))
    for module in (elliptic, hierarchy):
        monkeypatch.setattr(module, "_solve_info", counted("_solve_info", module._solve_info))
    monkeypatch.setattr(elliptic, "solve_poisson_2d",
                        counted("poisson2d", elliptic.solve_poisson_2d))
    h = solver.solve_hierarchy(1, case.sources(0.1), h0, time=0.1)

    for n in (0, 1):
        ez = h.order(n).Ez.values
        assert sum(1 for k, a in zeta_inputs if k == n and a is ez) == 1
        assert calls["div_perp", n] == 2  # div Eperp and div Bperp, each once
        assert calls["_solve_info", n] == 0  # the solve residuals are the audit's
    # order 0 has no rates, so its Ecal curl is zero and its split solves no
    # q; order 1 solves q and p in both splits
    assert calls["poisson2d", 0] == 3
    assert calls["poisson2d", 1] == 4


def _divcurl_with_q(div_src, curl_src, tangential_data):
    """solve_divcurl_2d as it was before a zero remaining curl skipped the q
    solve, and before a curl given as None (zero) skipped every curl term:
    here None is a volume of +0.0.  The polynomial parts come from the
    kernel's own helpers, so this restates the split before the skips."""
    mesh = div_src.mesh
    div = div_src.values
    curl = np.zeros(div.shape) if curl_src is None else curl_src.values
    dc, div_rem = _corner_bilinear(mesh, div)
    cc, curl_rem = _corner_bilinear(mesh, curl)
    A0 = _particular_field(mesh, dc, cc)
    t0 = boundary_tangential_trace(A0)
    q = solve_poisson_2d(ScalarField(mesh, -curl_rem),
                         dict.fromkeys(FACE_ORDER, FaceBC(DIRICHLET)))
    A_q = curl_perp_scalar(q)
    t_q = boundary_tangential_trace(A_q)
    g_p = {f: np.asarray(tangential_data[f], dtype=float) - t0[f] - t_q[f]
           for f in FACE_ORDER}
    p_gamma = _gamma_dirichlet_from_tangential(mesh, g_p)
    bc_p = {f: FaceBC(DIRICHLET, p_gamma[f]) for f in FACE_ORDER}
    A_p = grad_perp(solve_poisson_2d(ScalarField(mesh, div_rem), bc_p))
    return VectorField2(mesh, A0.x + A_p.x + A_q.x, A0.y + A_p.y + A_q.y)


def drawn(rng, shape, zero_share):
    """Normal values of which ``zero_share`` are zeros of either sign."""
    a = rng.standard_normal(shape)
    zero = rng.random(shape) < zero_share
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return a


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.booleans(),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1))
def test_zero_curl_split_keeps_every_bit(nx, ny, volumetric, zero_share, seed):
    # a curl that is constant on each slice leaves no remaining curl, so the
    # split skips q; with sources and traces that are mostly signed zeros,
    # every zero of A keeps the sign the q terms gave it
    rng = np.random.default_rng(seed)
    mesh = build_mesh(1.0, 1.3, 2.0, nx, ny, 4)
    lead = (4,) if volumetric else ()
    curl = np.empty(lead + (ny, nx))
    curl[...] = rng.choice([0.0, -0.0, rng.standard_normal()], size=lead + (1, 1))
    div = ScalarField(mesh, drawn(rng, lead + (ny, nx), zero_share))
    tangential = {f: drawn(rng, lead + (ny if f.startswith("x") else nx,), zero_share)
                  for f in FACE_ORDER}
    circ = rng.choice([0.0, -0.0, 0.3])
    got = solve_divcurl_2d(div, ScalarField(mesh, curl), tangential)
    ref = _divcurl_with_q(div, ScalarField(mesh, curl), tangential)
    assert same_bits(got.x, ref.x) and same_bits(got.y, ref.y)
    assert same_bits(np.abs(circulation(got) - circ), np.abs(circulation(ref) - circ))
    # a curl given as None skips the curl terms and keeps the bits of +0.0,
    # in the particular field too
    zero = np.zeros(curl.shape)
    got = solve_divcurl_2d(div, None, tangential)
    ref = _divcurl_with_q(div, ScalarField(mesh, zero), tangential)
    assert same_bits(got.x, ref.x) and same_bits(got.y, ref.y)
    dc = drawn(rng, lead + (4,), zero_share)
    got = _particular_field(mesh, dc, None)
    ref = _particular_field(mesh, dc, _corner_bilinear(mesh, zero)[0])
    assert same_bits(got.x, ref.x) and same_bits(got.y, ref.y)


def _signed_zero_sources(mesh, seed):
    """Normal sources of which most entries are zeros of either sign."""
    rng = np.random.default_rng(seed)
    shape = (mesh.nzeta, mesh.ny, mesh.nx)
    rho, jx, jy, jz = (drawn(rng, shape, 0.7) for _ in range(4))
    return SourceTerms(ScalarField(mesh, rho), VectorField2(mesh, jx, jy), ScalarField(mesh, jz))


@pytest.mark.parametrize("sources", ["mode", "signed zeros", "negative zeros"])
@pytest.mark.parametrize("warm", [False, True])
def test_skipped_curl_solve_keeps_every_bit(monkeypatch, sources, warm):
    # order 0 (and every order on a cold start) has a zero Ecal curl, which
    # the chain passes as None; the fields and audit of every order match
    # the split that still forms a zero curl volume and solves for q, zero
    # signs included
    mesh = build_mesh(1.0, 1.3, 2.0, 9, 7, 6)
    case = mode_case(mesh)
    src = {"mode": case.sources(0.1),
           "signed zeros": _signed_zero_sources(mesh, 3),
           "negative zeros": SourceTerms(
               ScalarField(mesh, np.full((6, 7, 9), -0.0)),
               VectorField2(mesh, np.full((6, 7, 9), -0.0), np.full((6, 7, 9), -0.0)),
               ScalarField(mesh, np.full((6, 7, 9), -0.0)))}[sources]
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))

    def solve():
        previous = solver.solve_hierarchy(1, case.sources(0.0), time=0.0) if warm else None
        return previous, solver.solve_hierarchy(1, src, previous, time=0.1)

    got_pair = solve()
    monkeypatch.setattr(hierarchy, "solve_divcurl_2d", _divcurl_with_q)
    ref_pair = solve()
    got, ref = got_pair[1], ref_pair[1]
    assert chain_audit(*got_pair, src) == chain_audit(*ref_pair, src)
    for a, b in zip(got.orders, ref.orders):
        for name in ("Ez", "Bz"):
            assert same_bits(getattr(a, name).values, getattr(b, name).values), name
        for name in ("Ecal", "Eperp", "Bperp"):
            va, vb = getattr(a, name), getattr(b, name)
            assert same_bits(va.x, vb.x) and same_bits(va.y, vb.y), name


def _ez_problem_forming_zeros(solver):
    """solver.ez_problem as it was before a scalar source (0.0 above order 1)
    skipped its zeta derivative: the source is broadcast to a volume and
    differentiated whatever it holds."""
    def ez_problem(n, rho, J, rates):
        mesh, beta = solver.mesh, solver.beta
        source = beta * J[2] + solver.kappa * rho
        volume = np.broadcast_to(source, (mesh.nzeta, mesh.ny, mesh.nx))
        d_source = hierarchy.dzeta(ScalarField(mesh, volume), high_order=True).values
        dt_term = 0.0 if rates is None else (
            beta * hierarchy.dzeta(rates.Ez, high_order=True).values
            + hierarchy.curl_perp_vector(rates.Bperp).values)
        faces = dict.fromkeys(FACE_ORDER, FaceBC(DIRICHLET, 0.0))
        return dt_term - d_source, hierarchy._volume_spec(n, True, faces)
    return ez_problem


@pytest.mark.parametrize("warm", [False, True])
def test_skipped_ez_source_derivative_keeps_every_bit(monkeypatch, warm):
    # above order 1 the Ez source is the scalar 0.0, whose zeta derivative
    # the stage no longer forms; every field and the audit of orders 0-3
    # match the stage that still forms it, zero signs included
    mesh = build_mesh(1.0, 1.3, 2.0, 9, 7, 6)
    case = mode_case(mesh)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    src = case.sources(0.1)
    previous = solver.solve_hierarchy(3, case.sources(0.0), time=0.0) if warm else None
    got = solver.solve_hierarchy(3, src, previous, time=0.1)

    # at order 2 the stage differentiates the rates' Ez alone, and nothing
    # on a cold start
    calls = []
    hierarchy_dzeta = hierarchy.dzeta

    def dzeta(f, high_order=False):
        calls.append(high_order)
        return hierarchy_dzeta(f, high_order=high_order)

    monkeypatch.setattr(hierarchy, "dzeta", dzeta)
    solver.ez_problem(2, *order_sources(src, 2), lower_rates(2, got.orders, previous, 0.1))
    assert calls == [True] * warm
    monkeypatch.undo()

    monkeypatch.setattr(solver, "ez_problem", _ez_problem_forming_zeros(solver))
    ref = solver.solve_hierarchy(3, src, previous, time=0.1)
    assert chain_audit(previous, got, src) == chain_audit(previous, ref, src)
    for a, b in zip(got.orders, ref.orders, strict=True):
        for name, arr in a.arrays().items():
            assert same_bits(arr, b.arrays()[name]), (a.n, name)


@pytest.mark.parametrize("cpus", [1, 2])
def test_large_eperp_stage_equals_two_public_solves_on_the_calling_thread(monkeypatch, cpus):
    # on a volume of over 100,000 nodes the x and y problems are solved one
    # after the other on the calling thread, on one usable CPU or on two;
    # each must equal its own public solve, zero signs included
    mesh = build_mesh(1.0, 1.3, 2.0, 57, 57, 31)
    assert mesh.nx * mesh.ny * mesh.nzeta > 100_000
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    threads = []

    def solve_scalar(*args, **kwargs):
        threads.append(threading.get_ident())
        return elliptic._solve_scalar(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "_solve_scalar", solve_scalar)
    rng = np.random.default_rng(5)
    shape = (mesh.nzeta, mesh.ny, mesh.nx)
    solver = HierarchySolver(mesh, BETA)
    sources = _signed_zero_sources(mesh, 4)
    ecal = VectorField2(mesh, drawn(rng, shape, 0.5), drawn(rng, shape, 0.5))
    gauss = drawn(rng, shape, 0.5)
    for n in (0, 1):  # both zeta closures; order 1 reads the current
        threads.clear()
        _, J = order_sources(sources, n)
        got = solver.solve_Eperp_order(n, ecal, gauss, J, None)
        assert threads == [threading.get_ident()] * 2
        ref = [solve_anisotropic_poisson_3d(solver.kappa, ScalarField(mesh, rhs), bc).values
               for rhs, bc in solver.eperp_problems(n, ecal, gauss, J, None)]
        assert same_bits(got.x, ref[0]) and same_bits(got.y, ref[1])


def test_small_volumes_solve_eperp_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    threads = set()

    def solve_scalar(*args, **kwargs):
        threads.add(threading.get_ident())
        return elliptic._solve_scalar(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "_solve_scalar", solve_scalar)
    mesh = build_mesh(1.0, 1.0, 2.0, 33, 33, 17)
    HierarchySolver(mesh, BETA).solve_hierarchy(0, mode_case(mesh).sources(0.0))
    assert threads == {threading.get_ident()}


def test_audit_residuals_equal_what_the_solves_report(monkeypatch):
    # the audit poses each 3D problem again; its method and relative residual
    # must be exactly what info_out reports for the problem the chain solved
    mesh = build_mesh(1.0, 1.3, 2.0, 9, 7, 6)
    case = mode_case(mesh)
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=case.bz_external))
    h0 = solver.solve_hierarchy(1, case.sources(0.0), time=0.0)
    posed = []

    def record(builder):
        def wrapper(*args, **kwargs):
            out = builder(*args, **kwargs)
            posed.extend([out] if isinstance(out, tuple) else out)
            return out
        return wrapper

    monkeypatch.setattr(solver, "ez_problem", record(solver.ez_problem))
    monkeypatch.setattr(solver, "eperp_problems", record(solver.eperp_problems))
    sources = case.sources(0.1)
    h1 = solver.solve_hierarchy(1, sources, h0, time=0.1)
    monkeypatch.undo()
    audit = chain_audit(h0, h1, sources)
    assert len(posed) == 6
    for o in h1.orders:
        for name, u, (rhs, bc) in zip(("Ez", "Eperp_x", "Eperp_y"),
                                      (o.Ez.values, o.Eperp.x, o.Eperp.y),
                                      posed[3 * o.n:3 * o.n + 3]):
            info = {}
            again = solve_anisotropic_poisson_3d(solver.kappa, ScalarField(mesh, rhs), bc,
                                                 info_out=info)
            assert same_bits(again.values, u)
            assert audit[o.n][f"{name}_method"] == info["method"] == "fdm"
            assert audit[o.n][f"{name}_relative_residual"] == info["relative_residual"]
            assert 0.0 < info["relative_residual"] < 1e-12
