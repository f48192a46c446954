import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parax.pic
from parax.fields import FieldShapeError, ScalarField, VectorField2
from parax.hierarchy import (
    FieldHierarchy,
    FieldOrder,
    HierarchySolver,
    SourceTerms,
)
from parax.mesh import build_mesh
from parax.operators import norms
from parax.pic import (
    BLOCK,
    PUSH_BLOCK,
    ParticleEnsemble,
    SamplingError,
    assemble_force,
    check_charge_conservation,
    deposit_sources,
    interpolate_to_particles,
    push_particles,
    run_pic,
    sample_initial_distribution,
)

BETA = 0.5


def mesh_small(n=9, nz=9, zlen=2.0):
    return build_mesh(1.0, 1.0, zlen, n, n, nz)


def single_particle(mesh, x, y, zeta, vx=0.0, vy=0.0, vzeta=0.0, w=1.0):
    return ParticleEnsemble(
        ids=np.array([0]), x=np.array([x]), y=np.array([y]), zeta=np.array([zeta]),
        vx=np.array([vx]), vy=np.array([vy]), vzeta=np.array([vzeta]),
        weight=np.array([w]),
    )


def uniform_field_hierarchy(mesh, beta=BETA, **comps):
    """One- or two-order hierarchy with spatially uniform fields."""
    orders = []
    for n in (0, 1):
        key = f"o{n}"
        c = comps.get(key, {})
        shape = (mesh.nzeta, mesh.ny, mesh.nx)
        full = lambda v: np.full(shape, float(v))
        orders.append(FieldOrder(
            n=n,
            Ez=ScalarField(mesh, full(c.get("Ez", 0.0))),
            Ecal=VectorField2(mesh, full(c.get("Ecal_x", 0.0)), full(c.get("Ecal_y", 0.0))),
            Eperp=VectorField2(mesh, full(c.get("Ex", 0.0)), full(c.get("Ey", 0.0))),
            Bperp=VectorField2(mesh, full(c.get("Bx", 0.0)), full(c.get("By", 0.0))),
            Bz=ScalarField(mesh, full(c.get("Bz", 0.0))),
        ))
    return FieldHierarchy(mesh=mesh, beta=beta, orders=orders)


# -- sampling ---------------------------------------------------------------------

def test_cold_beam_zero_velocities():
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "cold", 100, seed=1)
    assert np.all(p.vx == 0.0) and np.all(p.vy == 0.0)


def test_uniform_disc_mean_radius():
    mesh = mesh_small(33)
    r0 = 0.3
    N = 40000
    p = sample_initial_distribution(mesh, "uniform", N, seed=7, radius=r0,
                                    center=(0.5, 0.5))
    r = np.hypot(p.x - 0.5, p.y - 0.5)
    assert abs(r.mean() - 2 * r0 / 3) < 3 * r0 / np.sqrt(N)


def test_sampling_determinism_and_bounds():
    mesh = mesh_small()
    a = sample_initial_distribution(mesh, "gaussian", 500, seed=42, sigma=0.3,
                                    vth=0.1, vzeta_th=0.05)
    b = sample_initial_distribution(mesh, "gaussian", 500, seed=42, sigma=0.3,
                                    vth=0.1, vzeta_th=0.05)
    for f in ("x", "y", "zeta", "vx", "vy", "vzeta", "weight"):
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
    assert np.all((a.x > 0) & (a.x < 1) & (a.zeta > 0) & (a.zeta < 2.0))
    with pytest.raises(ValueError):
        sample_initial_distribution(mesh, "ring", 10, seed=0)
    with pytest.raises(ValueError):
        sample_initial_distribution(mesh, "cold", 0, seed=0)


@pytest.mark.parametrize("family, kwargs, named", [
    ("cold", dict(radius=2.0), r"\(0\.5, 0\.5, 1\) with radius 2 "),
    ("uniform", dict(zeta_center=3.0), r"\(0\.5, 0\.5, 3\)"),
    ("uniform", dict(zeta_width=5.0), r"zeta width 5 "),
])
def test_uniform_and_cold_beams_must_fit_in_the_box(family, kwargs, named):
    # outside the box the deposit extrapolates the cloud-in-cell weights:
    # these beams left 61-100% of their particles outside on 9^2 x 5 and
    # deposited negative charge
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 5)
    with pytest.raises(SamplingError, match=rf"^{family} beam at .*{named}.*outside the domain"):
        sample_initial_distribution(mesh, family, 2000, seed=1, **kwargs)


def test_default_cold_beam_keeps_its_draws():
    # a beam that fits draws the same stream as before the fit check
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 5)
    p = sample_initial_distribution(mesh, "cold", 2000, seed=4)
    rng = np.random.default_rng(4)
    r = np.sqrt(rng.uniform(size=2000))
    th = rng.uniform(0.0, 2.0 * np.pi, size=2000)
    zeta = 1.0 + 0.5 * (rng.uniform(size=2000) - 0.5)
    for got, want in ((p.x, 0.5 + 0.25 * r * np.cos(th)), (p.y, 0.5 + 0.25 * r * np.sin(th)),
                      (p.zeta, zeta), (p.vx, np.zeros(2000)), (p.vzeta, np.zeros(2000))):
        assert got.tobytes() == want.tobytes()


# -- deposition --------------------------------------------------------------------

def test_deposit_particle_on_node():
    mesh = mesh_small()
    # node (i=2, j=3, k=4)
    x = mesh.x0 + 2 * mesh.hx
    y = mesh.y0 + 3 * mesh.hy
    zeta = 4 * mesh.hzeta
    m = deposit_sources(single_particle(mesh, x, y, zeta, w=2.0), mesh)
    vol = mesh.dual_volume_3d[4, 3, 2]
    assert m.rho.values[4, 3, 2] == pytest.approx(2.0 / vol)
    assert np.count_nonzero(m.rho.values) == 1


def test_deposit_cell_center_symmetric():
    mesh = mesh_small()
    x = mesh.x0 + 1.5 * mesh.hx
    y = mesh.y0 + 2.5 * mesh.hy
    zeta = 3.5 * mesh.hzeta
    m = deposit_sources(single_particle(mesh, x, y, zeta, w=8.0), mesh)
    raw = m.rho.values * mesh.dual_volume_3d
    nz = raw[raw > 0]
    assert len(nz) == 8
    np.testing.assert_allclose(nz, 1.0, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 200))
def test_deposition_partition_of_unity(seed, n):
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "uniform", n, seed=seed, radius=0.45,
                                    vth=0.3, vzeta_th=0.2)
    m = deposit_sources(p, mesh)
    total = float(np.sum(m.rho.values * mesh.dual_volume_3d))
    assert total == pytest.approx(p.total_weight, rel=1e-12)


def test_deposit_chunked_deterministic():
    # one serial pass over fixed-size blocks: the chunk count changes nothing
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "gaussian", 2 * BLOCK + 777, seed=3,
                                    sigma=0.2, vth=0.2)
    m1 = deposit_sources(p, mesh, n_chunks=1)
    for n_chunks in (3, 4):
        m = deposit_sources(p, mesh, n_chunks=n_chunks)
        for a, b in ((m1.rho, m.rho), (m1.Jzeta, m.Jzeta)):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(m1.Jperp.x, m.Jperp.x)
        np.testing.assert_array_equal(m1.Jperp.y, m.Jperp.y)


@pytest.mark.parametrize("nx, ny, nz, n", [(9, 7, 5, 20000), (17, 17, 9, 2 * BLOCK + 777)])
def test_deposit_does_not_depend_on_the_particle_order(nx, ny, nz, n):
    # the four moments of a permuted sample equal the unpermuted ones to
    # rounding: only the order of the adds changes
    mesh = build_mesh(1.0, 1.0, 2.0, nx, ny, nz)
    p = sample_initial_distribution(mesh, "gaussian", n, seed=1, sigma=0.2, vth=0.2,
                                    vzeta_mean=0.3, vzeta_th=0.1)
    moments = lambda m: (m.rho.values, m.Jperp.x, m.Jperp.y, m.Jzeta.values)
    ref = moments(deposit_sources(p, mesh))
    rng = np.random.default_rng(2)
    for _ in range(5):
        perm = rng.permutation(n)
        q = ParticleEnsemble(p.ids[perm], p.x[perm], p.y[perm], p.zeta[perm], p.vx[perm],
                             p.vy[perm], p.vzeta[perm], p.weight[perm])
        for got, want in zip(moments(deposit_sources(q, mesh)), ref):
            # measured at most 6.3e-15 of max |moment| (17^2 x 9, 100k
            # particles), 4.1e-15 (9 x 7 x 5, 20k), 1.4e-15 (33^2 x 17, 50k)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_deposit_peak_memory_stays_under_one_bound_up_to_8_cpus(monkeypatch):
    # every running span holds its stencil, one weighted moment and its
    # partial, about 27 float64 words a row; on the pic_beam mesh with 400k
    # particles the deposit peaked at 1.8 / 3.7 / 12.7 MiB (largest of 12
    # calls) with 1 / 2 / 8 usable CPUs of a 2-CPU host, and 8 spans of
    # BLOCK rows at their peak at once, with 16 finished partials, would
    # come to about 15 MiB
    mesh = build_mesh(2.0, 2.0, 2.0, 17, 17, 9)
    p = sample_initial_distribution(mesh, "gaussian", 400_000, seed=1, total_weight=5.0,
                                    sigma=0.3, zeta_width=0.5, vth=0.05)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(parax.fields, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            deposit_sources(p, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20, (cpus, peak / 2**20)


def random_ensemble(mesh, n, rng):
    """n particles spread over the whole box, with random velocities and weights."""
    return ParticleEnsemble(
        ids=np.arange(n),
        x=rng.uniform(mesh.x0, mesh.x0 + mesh.a, n),
        y=rng.uniform(mesh.y0, mesh.y0 + mesh.b, n),
        zeta=rng.uniform(0.0, mesh.zlen, n),
        vx=rng.normal(size=n), vy=rng.normal(size=n), vzeta=rng.normal(size=n),
        weight=rng.uniform(0.1, 2.0, n),
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 9), st.integers(3, 9), st.integers(3, 9),
       st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0),
       st.integers(1, 300), st.integers(0, 2**31 - 1))
def test_deposit_interpolate_adjoint(nx, ny, nz, a, b, zlen, n, seed):
    # sum_nodes vol * deposit(q) * F == sum_particles q * interp(F)
    rng = np.random.default_rng(seed)
    mesh = build_mesh(a, b, zlen, nx, ny, nz, x0=-0.3 * a, y0=0.2)
    p = random_ensemble(mesh, n, rng)
    F = rng.normal(size=(mesh.nzeta, mesh.ny, mesh.nx))
    m = deposit_sources(p, mesh)
    for moment, q in ((m.rho.values, p.weight), (m.Jperp.x, p.weight * p.vx),
                      (m.Jzeta.values, p.weight * p.vzeta)):
        grid_side = np.sum(mesh.dual_volume_3d * moment * F)
        particle_side = np.sum(q * interpolate_to_particles(mesh, F[None], p)[0])
        scale = np.sum(np.abs(q)) * np.abs(F).max()
        # both sides are sums of the same products, reordered
        assert abs(grid_side - particle_side) <= 64 * np.finfo(float).eps * scale


def test_stacked_interpolation_equals_per_component():
    rng = np.random.default_rng(4)
    mesh = build_mesh(1.5, 1.0, 2.0, 11, 7, 5, x0=-0.5)
    p = random_ensemble(mesh, BLOCK + 123, rng)
    F = rng.normal(size=(4, mesh.nzeta, mesh.ny, mesh.nx))
    stacked = interpolate_to_particles(mesh, F, p)
    assert len(stacked) == 4
    for c in range(4):
        np.testing.assert_array_equal(stacked[c], interpolate_to_particles(mesh, F[c:c + 1], p)[0])
    for bad in (F[:, :-1], F[0]):
        with pytest.raises(ValueError, match="field shape"):
            interpolate_to_particles(mesh, bad, p)


def reference_interpolate(mesh, arr, p):
    """The per-corner gather loop the blocked gather must reproduce bit for bit."""
    fx = (p.x - mesh.x0) / mesh.hx
    fy = (p.y - mesh.y0) / mesh.hy
    fz = p.zeta / mesh.hzeta
    i = np.clip(fx.astype(np.int64), 0, mesh.nx - 2)
    j = np.clip(fy.astype(np.int64), 0, mesh.ny - 2)
    k = np.clip(fz.astype(np.int64), 0, mesh.nzeta - 2)
    fx, fy, fz = fx - i, fy - j, fz - k
    out = np.zeros(len(p))
    for dz, wz in ((0, 1.0 - fz), (1, fz)):
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                out += arr[k + dz, j + dy, i + dx] * (wz * wy * wx)
    return out


def reference_force(n, hierarchy, p):
    """Per-order forces, one reference gather per component."""
    mesh = hierarchy.mesh
    orders = []
    for i in range(n + 1):
        o = hierarchy.order(i)
        ecal_x = reference_interpolate(mesh, o.Ecal.x, p)
        ecal_y = reference_interpolate(mesh, o.Ecal.y, p)
        ez = reference_interpolate(mesh, o.Ez.values, p)
        if i == 0:
            fx, fy, fz = ecal_x, ecal_y, ez
        else:
            prev = hierarchy.order(i - 1)
            bz = reference_interpolate(mesh, prev.Bz.values, p)
            bx = reference_interpolate(mesh, prev.Bperp.x, p)
            by = reference_interpolate(mesh, prev.Bperp.y, p)
            fx = ecal_x + bz * p.vy + p.vzeta * by
            fy = ecal_y - bz * p.vx - p.vzeta * bx
            fz = ez + p.vx * by - p.vy * bx
        orders.append({"fx": fx, "fy": fy, "fz": fz})
    return orders


def random_hierarchy(mesh, n_max, rng):
    shape = (mesh.nzeta, mesh.ny, mesh.nx)
    orders = [FieldOrder(
        n=n,
        Ez=ScalarField(mesh, rng.normal(size=shape)),
        Ecal=VectorField2(mesh, rng.normal(size=shape), rng.normal(size=shape)),
        Eperp=VectorField2(mesh, rng.normal(size=shape), rng.normal(size=shape)),
        Bperp=VectorField2(mesh, rng.normal(size=shape), rng.normal(size=shape)),
        Bz=ScalarField(mesh, rng.normal(size=shape)),
    ) for n in range(n_max + 1)]
    return FieldHierarchy(mesh=mesh, beta=BETA, orders=orders)


def test_assemble_force_matches_per_corner_reference():
    # the eta-combined gather against sum_i eta^i F^i of per-order reference forces
    rng = np.random.default_rng(8)
    mesh = build_mesh(2.0, 2.0, 2.0, 9, 9, 7, x0=-1.0, y0=-1.0)
    h = random_hierarchy(mesh, 2, rng)
    p = random_ensemble(mesh, BLOCK + 1000, rng)
    eta = 0.1
    per_order = reference_force(2, h, p)
    for n in range(3):
        got = assemble_force(n, h, p, eta=eta)
        want = [sum(eta**i * per_order[i][key] for i in range(n + 1))
                for key in ("fx", "fy", "fz")]
        if n == 0:
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            continue
        scale = max(np.abs(w).max() for w in want)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 16 * np.finfo(float).eps * scale


def test_assemble_force_is_one_six_component_gather(monkeypatch):
    rng = np.random.default_rng(9)
    mesh = mesh_small()
    h = random_hierarchy(mesh, 2, rng)
    p = random_ensemble(mesh, 50, rng)
    shapes = []
    gather = parax.pic._gather

    def recording(table, idx, w):
        shapes.append(table.shape)
        return gather(table, idx, w)

    monkeypatch.setattr(parax.pic, "_gather", recording)
    for n, ncomp in ((0, 3), (1, 6), (2, 6)):
        shapes.clear()
        assemble_force(n, h, p, eta=0.1)
        assert [s[0] for s in shapes] == [ncomp]


def reference_deposit(mesh, p):
    """The serial per-corner scatter the deposit must match to rounding:
    blocks of BLOCK in particle order, corners z-outermost, weights
    (wz * wy) * wx."""
    total = np.zeros((4, mesh.nzeta * mesh.ny * mesh.nx))
    sy, sx = mesh.nx * mesh.ny, mesh.nx
    for s in range(0, len(p), BLOCK):
        b = slice(s, s + BLOCK)
        fx = (p.x[b] - mesh.x0) / mesh.hx
        fy = (p.y[b] - mesh.y0) / mesh.hy
        fz = p.zeta[b] / mesh.hzeta
        i = np.clip(fx.astype(np.int64), 0, mesh.nx - 2)
        j = np.clip(fy.astype(np.int64), 0, mesh.ny - 2)
        k = np.clip(fz.astype(np.int64), 0, mesh.nzeta - 2)
        fx, fy, fz = fx - i, fy - j, fz - k
        w = p.weight[b]
        values = (w, w * p.vx[b], w * p.vy[b], w * p.vzeta[b])
        for dz, wz in ((0, 1.0 - fz), (1, fz)):
            for dy, wy in ((0, 1.0 - fy), (1, fy)):
                for dx, wx in ((0, 1.0 - fx), (1, fx)):
                    idx = (k + dz) * sy + (j + dy) * sx + (i + dx)
                    share = (wz * wy) * wx
                    for m, v in enumerate(values):
                        np.add.at(total[m], idx, v * share)
    return total.reshape(4, mesh.nzeta, mesh.ny, mesh.nx) / mesh.dual_volume_3d


def reference_push(p, force, dt, mesh):
    """The elementwise push formulas the blocked push must reproduce bit for
    bit: the kept particles' new phase space, the keep mask, and the largest
    drift along any axis in cells."""
    vx = p.vx + force[0] * dt
    vy = p.vy + force[1] * dt
    vzeta = p.vzeta - force[2] * dt
    x, y, zeta = p.x + vx * dt, p.y + vy * dt, p.zeta + vzeta * dt
    keep = ((x > mesh.x0) & (x < mesh.x0 + mesh.a) & (y > mesh.y0) & (y < mesh.y0 + mesh.b)
            & (zeta > 0.0) & (zeta < mesh.zlen))
    drift = max((float(np.abs(v).max()) * dt / h
                 for v, h in ((vx, mesh.hx), (vy, mesh.hy), (vzeta, mesh.hzeta)) if len(v)),
                default=0.0)
    kept = {"ids": p.ids, "x": x, "y": y, "zeta": zeta, "vx": vx, "vy": vy, "vzeta": vzeta,
            "weight": p.weight}
    return {name: v[keep] for name, v in kept.items()}, keep, drift


PHASE_SPACE = ("ids", "x", "y", "zeta", "vx", "vy", "vzeta", "weight")


@pytest.fixture
def coupling_case():
    rng = np.random.default_rng(12)
    mesh = build_mesh(1.5, 1.0, 2.0, 11, 9, 7, x0=-0.5)
    p = random_ensemble(mesh, 3 * BLOCK + 5, rng)
    # particles on the far walls take the last cell's stencil
    p.x[:3], p.y[3:6], p.zeta[6:9] = mesh.x0 + mesh.a, mesh.y0 + mesh.b, mesh.zlen
    return mesh, p, random_hierarchy(mesh, 2, rng)


def test_coupling_does_not_depend_on_the_cpu_count(monkeypatch, coupling_case):
    # gather, deposit and push give the same bits on 1, 2 and 3 CPUs.  The
    # deposit adds its fixed spans' bincount partials in another order than
    # the serial scatter, so it matches that only to rounding.
    mesh, p, h = coupling_case
    F = np.stack([h.order(0).Ez.values, h.order(1).Bz.values])
    want = reference_deposit(mesh, p)
    force = assemble_force(2, h, p, eta=0.1)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parax.fields, "_usable_cpus", lambda: cpus)
        m = deposit_sources(p, mesh)
        moments = np.stack([m.rho.values, m.Jperp.x, m.Jperp.y, m.Jzeta.values])
        for got, ref in zip(moments, want):
            # measured at most 1.3e-15 of max |moment| here, 8.3e-15 on
            # 17^2 x 9 with 400k particles
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        q = p.copy()
        shift = push_particles(q, force, 0.05, mesh)
        assert q.absorbed_total > 0
        results.append([interpolate_to_particles(mesh, F, p)]
                       + [assemble_force(n, h, p, eta=0.1) for n in range(3)]
                       + [moments, shift]
                       + [getattr(q, name) for name in PHASE_SPACE])
    for other in results[1:]:
        for a, b in zip(results[0], other):
            np.testing.assert_array_equal(a, b)


def test_interpolation_partition_of_unity():
    mesh = mesh_small()
    ones = np.ones((mesh.nzeta, mesh.ny, mesh.nx))
    p = sample_initial_distribution(mesh, "uniform", 50, seed=5, radius=0.4)
    np.testing.assert_allclose(interpolate_to_particles(mesh, ones[None], p)[0], 1.0,
                               rtol=1e-13)


# -- forces ------------------------------------------------------------------------

def test_force_order0_is_electric_only():
    mesh = mesh_small()
    h = uniform_field_hierarchy(mesh, o0={"Ecal_x": 2.0, "Ez": 1.0, "Bz": 9.0, "Bx": 3.0})
    p = single_particle(mesh, 0.5, 0.5, 1.0, vx=1.0, vy=2.0, vzeta=3.0)
    fx, fy, fz = assemble_force(0, h, p, eta=0.1)
    assert fx[0] == pytest.approx(2.0)
    assert fy[0] == pytest.approx(0.0)
    assert fz[0] == pytest.approx(1.0)


def order1_force(h, p, eta):
    """F^1 at the particles: the order-1 increment of the truncated force."""
    f1 = assemble_force(1, h, p, eta=eta)
    f0 = assemble_force(0, h, p, eta=eta)
    return [(a - b) / eta for a, b in zip(f1, f0)]


def test_force_order1_magnetic_rotation():
    mesh = mesh_small()
    # order-0 carries Bz = 1; particle with v_perp = (1, 0):
    # F1_perp = (Bz v) x e_z = (0, -1)
    h = uniform_field_hierarchy(mesh, o0={"Bz": 1.0})
    p = single_particle(mesh, 0.5, 0.5, 1.0, vx=1.0)
    fx, fy, _ = order1_force(h, p, eta=0.1)
    assert fx[0] == pytest.approx(0.0)
    assert fy[0] == pytest.approx(-1.0)
    # F1_z = v . (B x e_z) with Bperp = (0,1), v = (1,0): = 1
    h2 = uniform_field_hierarchy(mesh, o0={"By": 1.0})
    _, _, fz = order1_force(h2, p, eta=0.1)
    assert fz[0] == pytest.approx(1.0)
    for n in (-1, 5):
        with pytest.raises(ValueError):
            assemble_force(n, h, p, eta=0.1)


def test_force_truncation_totals():
    mesh = mesh_small()
    h = uniform_field_hierarchy(mesh, o0={"Ecal_x": 1.0, "Bz": 2.0},
                                o1={"Ecal_x": 0.5})
    p = single_particle(mesh, 0.5, 0.5, 1.0, vx=0.0, vy=1.0)
    eta = 0.1
    fx0 = assemble_force(0, h, p, eta=eta)[0][0]
    fx1 = assemble_force(1, h, p, eta=eta)[0][0]
    # order-1 x-force: Ecal1_x + Bz0 * vy = 0.5 + 2 = 2.5
    assert fx1 - fx0 == pytest.approx(eta * 2.5)


@pytest.mark.parametrize("n, nz", [(9, 7), (10, 8), (17, 9)])
def test_cic_self_force_vanishes_by_symmetry(n, nz):
    # one particle's own field, gathered back with the deposit's weights,
    # cancels wherever the box is mirror-symmetric about the particle
    mesh = build_mesh(2.0, 2.0, 2.0, n, n, nz, x0=-1.0, y0=-1.0)

    def self_force(x, y, zeta):
        p = single_particle(mesh, x, y, zeta, vx=0.3, vzeta=0.2)
        h = HierarchySolver(mesh, BETA).solve_hierarchy(1, deposit_sources(p, mesh), time=0.0)
        o = h.order(0)
        scale = max(np.abs(o.Ecal.x).max(), np.abs(o.Ecal.y).max())
        return np.array(assemble_force(1, h, p, eta=0.1))[:, 0], scale

    # the centre: mirror-symmetric in x, y and zeta
    f, scale = self_force(0.0, 0.0, 1.0)
    assert np.abs(f).max() <= 1e-13 * scale
    # off axis on the y = 0 plane the wall images pull along x, not y
    f, scale = self_force(0.013, 0.0, 1.0)
    assert abs(f[1]) <= 1e-13 * scale


# -- push ---------------------------------------------------------------------------

def test_ballistic_drift():
    mesh = mesh_small()
    p = single_particle(mesh, 0.3, 0.4, 0.5, vx=0.1, vy=-0.05, vzeta=0.2)
    zero = (np.zeros(1), np.zeros(1), np.zeros(1))
    push_particles(p, zero, 0.25, mesh)
    assert p.x[0] == pytest.approx(0.3 + 0.1 * 0.25)
    assert p.y[0] == pytest.approx(0.4 - 0.05 * 0.25)
    assert p.zeta[0] == pytest.approx(0.5 + 0.2 * 0.25)
    assert p.vx[0] == 0.1  # velocities untouched without force


def test_fz_sign_convention():
    # constant F_z = 1 decelerates v_zeta: after k kicks v_zeta = -k dt
    mesh = mesh_small()
    p = single_particle(mesh, 0.5, 0.5, 1.0)
    dt = 0.01
    for _ in range(5):
        push_particles(p, (np.zeros(1), np.zeros(1), np.ones(1)), dt, mesh)
    assert p.vzeta[0] == pytest.approx(-5 * dt)


def test_constant_force_kinematics():
    # kick-drift with constant F reproduces uniform acceleration to O(dt^2)/step
    mesh = build_mesh(4.0, 4.0, 4.0, 9, 9, 9, x0=-2.0, y0=-2.0)
    F = 0.3
    for dt in (0.02, 0.01):
        p = single_particle(mesh, 0.0, 0.0, 2.0)
        steps = int(round(0.4 / dt))
        # half-step backward kick makes the scheme leapfrog-accurate
        p = ParticleEnsemble(p.ids, p.x, p.y, p.zeta, p.vx - 0.5 * F * dt, p.vy,
                             p.vzeta, p.weight)
        for _ in range(steps):
            push_particles(p, (np.full(1, F), np.zeros(1), np.zeros(1)), dt, mesh)
        t = steps * dt
        exact = 0.5 * F * t**2
        assert p.x[0] == pytest.approx(exact, abs=2 * F * dt**2)


def test_absorption_at_walls():
    mesh = mesh_small()
    p = single_particle(mesh, 0.95, 0.5, 1.0, vx=1.0)
    push_particles(p, (np.zeros(1), np.zeros(1), np.zeros(1)), 0.2, mesh)
    assert len(p) == 0 and p.absorbed_total == 1


@pytest.mark.parametrize("absorbs", [False, True])
def test_push_updates_its_ensemble_in_place(absorbs):
    # the push returns its drift, leaves the ensemble's arrays the leading
    # rows of the input's, and leaves the force as it was
    rng = np.random.default_rng(13)
    mesh = mesh_small()
    p = random_ensemble(mesh, 500, rng)
    p.x = np.clip(p.x, 0.1, 0.9)
    p.y = np.clip(p.y, 0.1, 0.9)
    p.zeta = np.clip(p.zeta, 0.1, 1.9)
    for v in (p.vx, p.vy, p.vzeta):
        v *= 0.1  # a drift of at most a few hundredths
    if absorbs:
        p.vx[::7] = 50.0
    force = rng.normal(size=(3, len(p)))
    before = p.copy()
    force_before = force.copy()
    dt = 0.05
    inputs = {name: getattr(p, name) for name in PHASE_SPACE}
    shift = push_particles(p, force, dt, mesh)
    assert type(shift) is float
    for name in PHASE_SPACE:
        got = getattr(p, name)
        assert np.shares_memory(got, inputs[name]), name
        assert got.ctypes.data == inputs[name].ctypes.data, name
    np.testing.assert_array_equal(force, force_before)
    want, keep, drift = reference_push(before, force, dt, mesh)
    assert p.absorbed_total == before.absorbed_total + int((~keep).sum())
    assert (p.absorbed_total > 0) == absorbs
    assert shift == drift
    for name in PHASE_SPACE:
        np.testing.assert_array_equal(getattr(p, name), want[name])


@pytest.mark.parametrize("cpus", [1, 3])
def test_blocked_push_equals_the_elementwise_formulas(monkeypatch, cpus):
    # particles leave through each of the six walls, some from the first or
    # last row of a push block; every kept particle, the absorbed count and
    # the drift match the elementwise formulas bit for bit.  The threads
    # share the ensemble's arrays; a short switch interval interleaves them
    # finely.
    monkeypatch.setattr(parax.fields, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(14)
    mesh = build_mesh(1.5, 1.0, 2.0, 11, 9, 7, x0=-0.5)
    n = 2 * PUSH_BLOCK + 77
    p = random_ensemble(mesh, n, rng)
    p.x = np.clip(p.x, mesh.x0 + 0.1, mesh.x0 + mesh.a - 0.1)
    p.y = np.clip(p.y, mesh.y0 + 0.1, mesh.y0 + mesh.b - 0.1)
    p.zeta = np.clip(p.zeta, 0.1, mesh.zlen - 0.1)
    for v in (p.vx, p.vy, p.vzeta):
        v *= 0.1
    # the rows on either side of each block bound, as map_blocks cuts them
    count = -(-n // PUSH_BLOCK)
    bounds = [n * b // count for b in range(count + 1)]
    edges = sorted({row for b in bounds for row in (b - 1, b) if 0 <= row < n})
    leaving = edges + list(rng.choice(np.arange(1, n - 1), 30, replace=False))
    for i, row in enumerate(leaving):
        # a drift of 5 crosses any wall of the box
        getattr(p, ("vx", "vy", "vzeta")[i % 3])[row] = 100.0 if i % 6 < 3 else -100.0
    force = rng.normal(size=(3, n))
    dt = 0.05
    before = p.copy()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shift = push_particles(p, force, dt, mesh)
    finally:
        sys.setswitchinterval(old)
    want, keep, drift = reference_push(before, force, dt, mesh)
    assert not keep[edges].any() and p.absorbed_total == int((~keep).sum()) >= len(edges)
    assert shift == drift
    for name in PHASE_SPACE:
        np.testing.assert_array_equal(getattr(p, name), want[name])


def test_push_of_no_particles_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(parax.fields, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    mesh = mesh_small()
    empty = ParticleEnsemble(np.zeros(0, dtype=np.int64), *[np.zeros(0)] * 7)
    shift = push_particles(empty, np.zeros((3, 0)), 0.05, mesh)
    assert len(empty) == 0 and empty.absorbed_total == 0
    assert shift == 0.0
    # the patch does catch a pool: two push blocks on three CPUs start one
    many = random_ensemble(mesh, PUSH_BLOCK + 1, np.random.default_rng(0))
    with pytest.raises(AssertionError, match="thread pool"):
        push_particles(many, np.zeros((3, len(many))), 0.05, mesh)


@pytest.mark.parametrize("bad, named", [("vx", "vx"), ("fy", "vy"), ("fz", "vzeta")])
def test_push_refuses_a_non_finite_velocity(bad, named):
    # a NaN velocity, or one kicked by an infinite force, would drift its
    # particle out of the domain to be absorbed without a word
    mesh = mesh_small()
    p = random_ensemble(mesh, 100, np.random.default_rng(15))
    force = np.zeros((3, len(p)))
    if bad == "vx":
        p.vx[37] = np.nan
    else:
        force["xyz".index(bad[1]), 37] = np.inf
    with pytest.raises(FieldShapeError, match=f"^push: {named} is non-finite$"):
        push_particles(p, force, 0.05, mesh)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_deposit_refuses_a_non_finite_position():
    mesh = mesh_small()
    p = random_ensemble(mesh, 100, np.random.default_rng(16))
    p.zeta[37] = np.nan
    with pytest.raises(ValueError, match="^deposit: rho is non-finite$"):
        deposit_sources(p, mesh)


# -- charge conservation -------------------------------------------------------------

def test_static_ensemble_conserves_exactly():
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "cold", 40, seed=2)
    m1 = deposit_sources(p, mesh)
    m2 = deposit_sources(p, mesh)
    res = check_charge_conservation(m2, m1, 0.1, mesh)
    assert res["l2"] == 0.0


def test_empty_ensemble_residual_zero():
    mesh = mesh_small()
    empty = ParticleEnsemble(*[np.zeros(0)] * 8 if False else (
        np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0),
        np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)))
    m1 = deposit_sources(empty, mesh)
    m2 = deposit_sources(empty, mesh)
    assert check_charge_conservation(m2, m1, 0.1, mesh)["l2"] == 0.0


@pytest.mark.parametrize("dt", [0.0, -0.1])
def test_charge_check_refuses_a_non_positive_dt(dt):
    # the backward quotient needs the earlier moments first: a negative dt
    # flips the sign of d rho/dt, and dt = 0 divides by zero
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "cold", 40, seed=2)
    m1, m2 = deposit_sources(p, mesh), deposit_sources(p, mesh)
    with pytest.raises(ValueError, match="^dt must be positive"):
        check_charge_conservation(m2, m1, dt, mesh)


def smooth_moving_bunch(mesh, t, v=(0.2, 0.0, 0.3), sig=0.3):
    """Analytic drifting Gaussian moments sampled on the nodes."""
    X, Y, Z = mesh.grids3d()
    cx = mesh.x0 + mesh.a / 2 + v[0] * t
    cy = mesh.y0 + mesh.b / 2 + v[1] * t
    cz = mesh.zlen / 2 + v[2] * t
    rho = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2) / (2 * sig**2))
    return SourceTerms(
        rho=ScalarField(mesh, rho),
        Jperp=VectorField2(mesh, v[0] * rho, v[1] * rho),
        Jzeta=ScalarField(mesh, v[2] * rho),
    )


def test_moving_charge_residual_order():
    # manufactured smooth bunch: residual drops at O(h^2 + dt) when h and dt
    # halve together (dt chosen ~ h^2 so the spatial part dominates)
    res = []
    for n, dt in ((17, 2e-3), (33, 1e-3)):
        mesh = build_mesh(2.0, 2.0, 4.0, n, n, n, x0=-1.0, y0=-1.0)
        m_prev = smooth_moving_bunch(mesh, 0.0)
        m_now = smooth_moving_bunch(mesh, dt)
        res.append(check_charge_conservation(m_now, m_prev, dt, mesh)["l2"])
    assert res[0] / res[1] > 3.0


def test_single_particle_drift_residual_decreases():
    rs = []
    for n, dt in ((9, 0.02), (17, 0.01)):
        mesh = mesh_small(n, n)
        v = 0.37
        m_prev = deposit_sources(single_particle(mesh, 0.31, 0.5, 1.0, vx=v), mesh)
        m_now = deposit_sources(single_particle(mesh, 0.31 + v * dt, 0.5, 1.0, vx=v), mesh)
        # point-charge moments blow up as the dual cell shrinks; compare
        # the conservation defect against the current scale
        scale = norms(np.abs(m_now.Jperp.x), mesh)["max"]
        rs.append(check_charge_conservation(m_now, m_prev, dt, mesh)["max"] / scale)
    assert rs[1] < rs[0]


# -- transport loop -------------------------------------------------------------------

def test_run_pic_zero_charge_ballistic():
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "cold", 20, seed=11, radius=0.2)
    # zero weight is rejected; emulate zero charge via weightless force only:
    # a cold beam with zero velocities under zero fields stays put, so verify
    # positions are unchanged after several steps
    x0 = p.x.copy()
    final, last, recs = run_pic(mesh, BETA, 0.1, p, n_max=0, dt=0.05, steps=3)
    assert last.time == 3 * 0.05 and last.n_max == 0  # the last step's snapshot
    # self-fields from the tiny bunch push particles outward slightly, so
    # compare against a truly source-free run with vanishing weights instead
    assert recs[0].n_particles == 20
    assert len(recs) == 4

    tiny = sample_initial_distribution(mesh, "cold", 20, seed=11, radius=0.2,
                                       total_weight=1e-300)
    final2, _, recs2 = run_pic(mesh, BETA, 0.1, tiny, n_max=0, dt=0.05, steps=3)
    np.testing.assert_allclose(final2.x, x0, atol=1e-150)


def test_run_pic_steps_zero_snapshot_only():
    mesh = mesh_small()
    p = sample_initial_distribution(mesh, "cold", 10, seed=1)
    final, last, recs = run_pic(mesh, BETA, 0.1, p, n_max=0, dt=0.1, steps=0)
    assert last.time == 0.0 and last.n_max == 0
    assert len(recs) == 1 and recs[0].step == 0
    assert len(final) == 10


def test_run_pic_deterministic_replay():
    mesh = mesh_small()
    p1 = sample_initial_distribution(mesh, "gaussian", 60, seed=9, sigma=0.15, vth=0.05)
    p2 = sample_initial_distribution(mesh, "gaussian", 60, seed=9, sigma=0.15, vth=0.05)
    f1, _, r1 = run_pic(mesh, BETA, 0.1, p1, n_max=0, dt=0.02, steps=3, n_chunks=3)
    f2, _, r2 = run_pic(mesh, BETA, 0.1, p2, n_max=0, dt=0.02, steps=3, n_chunks=3)
    np.testing.assert_array_equal(f1.x, f2.x)
    np.testing.assert_array_equal(f1.vzeta, f2.vzeta)
    assert [dataclasses.asdict(r) for r in r1] == [dataclasses.asdict(r) for r in r2]


def test_run_pic_cold_beam_defocuses():
    # self-field of a centered cold bunch expands it transversally and the
    # total weight never grows
    mesh = build_mesh(2.0, 2.0, 2.0, 17, 17, 9, x0=-1.0, y0=-1.0)
    p = sample_initial_distribution(mesh, "cold", 400, seed=21, radius=0.25,
                                    center=(0.0, 0.0), zeta_width=0.8,
                                    total_weight=5.0)
    r_in = np.hypot(p.x, p.y).mean()
    final, _, recs = run_pic(mesh, BETA, 0.1, p, n_max=0, dt=0.05, steps=6)
    r_out = np.hypot(final.x, final.y).mean()
    assert r_out > r_in
    weights = [r.total_weight for r in recs]
    assert all(w2 <= w1 + 1e-12 for w1, w2 in zip(weights, weights[1:]))


def test_mirrored_beam_follows_mirrored_trajectories():
    # the box is symmetric under x -> -x; with no external Bz, a sample
    # mirrored in x (x and vx negated) must stay the mirror image of the
    # unmirrored one through deposit, chain, gather and push
    mesh = build_mesh(2.0, 1.5, 2.0, 11, 9, 7, x0=-1.0, y0=-0.5)
    p = sample_initial_distribution(mesh, "gaussian", 2000, seed=5, total_weight=3.0,
                                    center=(0.15, 0.2), sigma=0.25, zeta_width=0.4,
                                    vth=0.1, vzeta_mean=0.05, vzeta_th=0.05)
    mirrored = ParticleEnsemble(p.ids, -p.x, p.y, p.zeta, -p.vx, p.vy, p.vzeta, p.weight)
    a, _, _ = run_pic(mesh, BETA, 0.1, p, n_max=2, dt=0.05, steps=4)
    b, _, _ = run_pic(mesh, BETA, 0.1, mirrored, n_max=2, dt=0.05, steps=4)
    assert a.absorbed_total > 0
    np.testing.assert_array_equal(a.ids, b.ids)
    for name, sign in (("x", -1), ("y", 1), ("zeta", 1), ("vx", -1), ("vy", 1), ("vzeta", 1)):
        got, want = getattr(a, name), sign * getattr(b, name)
        # measured at most 6.2e-16 of max |value|
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def test_run_pic_leaves_the_callers_ensemble_unchanged():
    # the loop pushes its own copy in place: the caller's eight arrays keep
    # every bit through runs that absorb particles, here for a sample and
    # its mirror image, which shares six of its arrays with the sample
    mesh = build_mesh(2.0, 1.5, 2.0, 11, 9, 7, x0=-1.0, y0=-0.5)
    p = sample_initial_distribution(mesh, "gaussian", 2000, seed=5, total_weight=3.0,
                                    center=(0.15, 0.2), sigma=0.25, zeta_width=0.4,
                                    vth=0.1, vzeta_mean=0.05, vzeta_th=0.05)
    mirrored = ParticleEnsemble(p.ids, -p.x, p.y, p.zeta, -p.vx, p.vy, p.vzeta, p.weight)
    ensembles = (p, mirrored)
    before = [[getattr(e, name).copy() for name in PHASE_SPACE] for e in ensembles]
    for e in ensembles:
        final, _, _ = run_pic(mesh, BETA, 0.1, e, n_max=1, dt=0.05, steps=3)
        assert final.absorbed_total > 0 and final is not e
    for e, arrays in zip(ensembles, before):
        assert e.absorbed_total == 0
        for name, want in zip(PHASE_SPACE, arrays):
            got = getattr(e, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_run_pic_peak_memory_stays_under_two_ensembles(monkeypatch):
    # the loop holds one working copy of the ensemble, pushed in place, and
    # the (3, N) force; with pushes that fill new phase-space arrays it
    # peaked at 2.42 ensembles above its input, in place at 1.74
    monkeypatch.setattr(parax.fields, "_usable_cpus", lambda: 1)
    mesh = build_mesh(2.0, 2.0, 2.0, 9, 9, 5)
    p = sample_initial_distribution(mesh, "gaussian", 200_000, seed=1, total_weight=5.0,
                                    sigma=0.3, zeta_width=0.5, vth=0.05)
    ensemble = sum(getattr(p, name).nbytes for name in PHASE_SPACE)
    tracemalloc.start()
    try:
        run_pic(mesh, BETA, 0.1, p, n_max=1, dt=0.05, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * ensemble, peak / ensemble


def test_pic_losing_every_particle_warns(caplog):
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 9)
    p = sample_initial_distribution(mesh, "uniform", 50, seed=0, vth=50.0)
    with caplog.at_level("WARNING", logger="parax.pic"):
        final, _, records = run_pic(mesh, 0.5, 0.1, p, n_max=0, dt=0.5, steps=2)
    assert len(final) == 0 and records[1].absorbed == 50 and records[2].absorbed == 0
    assert caplog.text.count("every particle has left the domain") == 1


def test_gaussian_bunch_outside_box_fails_fast():
    from parax.pic import SamplingError

    mesh = mesh_small()
    with pytest.raises(SamplingError):
        sample_initial_distribution(mesh, "gaussian", 100, seed=0, zeta_center=100.0)
    with pytest.raises(SamplingError):
        sample_initial_distribution(mesh, "gaussian", 100, seed=0, center=(-5.0, 0.5))
    # a bunch centred on a face keeps enough mass inside to be drawn
    p = sample_initial_distribution(mesh, "gaussian", 1000, seed=0, center=(0.0, 0.5),
                                    sigma=0.2)
    assert len(p) == 1000 and np.all((p.x > 0.0) & (p.x < 1.0))
