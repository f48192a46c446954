"""The block CSV writers against the per-row writers they replaced, byte for byte."""

import numpy as np
import pytest

from parax.cli import _write_particles
from parax.fields import CSV_ROWS, FieldShapeError, write_field_csv
from parax.mesh import build_mesh
from parax.pic import ParticleEnsemble


def reference_field_csv(path, mesh, components):
    names = list(components)
    arrays = []
    for name in names:
        v = np.asarray(components[name], dtype=float)
        if v.ndim == 2:
            v = v[None, :, :]
        arrays.append(v)
    nz = arrays[0].shape[0]
    X, Y = mesh.xy()
    zs = mesh.zeta[:nz] if nz > 1 else mesh.zeta[:1]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,zeta," + ",".join(names) + "\n")
        for k in range(nz):
            for j in range(mesh.ny):
                for i in range(mesh.nx):
                    row = [X[j, i], Y[j, i], zs[k]] + [a[k, j, i] for a in arrays]
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def reference_particles_csv(path, p):
    with open(path, "w", newline="") as fh:
        fh.write("id,x,y,zeta,vx,vy,vzeta,weight\n")
        for k in range(len(p)):
            row = (p.ids[k], p.x[k], p.y[k], p.zeta[k], p.vx[k], p.vy[k],
                   p.vzeta[k], p.weight[k])
            fh.write(f"{row[0]:d}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")


EDGE_VALUES = [-0.0, 1e-300, 1.0 / 3.0, -1e308, 5e-324, 123456789.125]


def assert_same_bytes(tmp_path, write, reference, *args):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(str(new), *args)
    reference(str(old), *args)
    assert new.read_bytes() == old.read_bytes()


def test_field_csv_3d_matches_row_writer(tmp_path):
    mesh = build_mesh(1.0, 0.7, 2.0, 17, 13, 21, x0=-0.5, y0=1.0 / 3.0)
    assert mesh.nx * mesh.ny * mesh.nzeta > CSV_ROWS
    rng = np.random.default_rng(0)
    a = rng.normal(size=(mesh.nzeta, mesh.ny, mesh.nx))
    b = rng.normal(size=a.shape) * 1e-200
    b.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    assert_same_bytes(tmp_path, write_field_csv, reference_field_csv, mesh,
                      {"Bx": a, "By": b})


def test_field_csv_2d_matches_row_writer(tmp_path):
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 11, 5)
    rng = np.random.default_rng(1)
    ez = rng.normal(size=(mesh.ny, mesh.nx))
    ez.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    assert_same_bytes(tmp_path, write_field_csv, reference_field_csv, mesh, {"Ez": ez})


def test_field_csv_rejects_mismatched_components(tmp_path):
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 5)
    with pytest.raises(FieldShapeError, match="'b'"):
        write_field_csv(str(tmp_path / "f.csv"), mesh,
                        {"a": np.zeros((5, 9, 9)), "b": np.zeros((9, 9))})


def ensemble(n, rng):
    return ParticleEnsemble(
        ids=np.arange(n, dtype=np.int64), x=rng.uniform(size=n), y=rng.normal(size=n),
        zeta=rng.uniform(0, 2, size=n), vx=rng.normal(size=n) * 1e-250,
        vy=rng.normal(size=n), vzeta=-rng.uniform(size=n), weight=rng.uniform(size=n),
    )


@pytest.mark.parametrize("n", [
    pytest.param(0, id="empty"),
    pytest.param(1, id="one_row"),
    pytest.param(CSV_ROWS, id="one_block"),
    pytest.param(2 * CSV_ROWS + 17, id="two_blocks_and_17"),
])
def test_particle_csv_matches_row_writer(tmp_path, n):
    p = ensemble(n, np.random.default_rng(n))
    if n:
        p.ids[0] = 2**63 - 1
        p.ids[-1] = 2**62 + 3
        p.vx[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    assert_same_bytes(tmp_path, _write_particles, reference_particles_csv, p)
