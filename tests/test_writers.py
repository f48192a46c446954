"""The block CSV writers against the per-row writers they replaced, byte for
byte, on one to three formatting threads."""

import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

import parax
from parax import fields
from parax.cli import _write_particles, _write_study_csv
from parax.fields import CSV_NUMBERS, FieldShapeError, write_blocks, write_field_csv
from parax.mesh import build_mesh
from parax.pic import ParticleEnsemble


def reference_field_csv(path, mesh, components):
    names = list(components)
    arrays = [np.asarray(components[name], dtype=float) for name in names]
    X, Y = mesh.xy()
    with open(path, "w", newline="") as fh:
        fh.write("x,y,zeta," + ",".join(names) + "\n")
        for k in range(mesh.nzeta):
            for j in range(mesh.ny):
                for i in range(mesh.nx):
                    row = [X[j, i], Y[j, i], mesh.zeta[k]] + [a[k, j, i] for a in arrays]
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def reference_particles_csv(path, p):
    with open(path, "w", newline="") as fh:
        fh.write("id,x,y,zeta,vx,vy,vzeta,weight\n")
        for k in range(len(p)):
            row = (p.ids[k], p.x[k], p.y[k], p.zeta[k], p.vx[k], p.vy[k],
                   p.vzeta[k], p.weight[k])
            fh.write(f"{row[0]:d}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")


def reference_study_csv(path, params, errors):
    with open(path, "w", newline="") as fh:
        fh.write("parameter,error\n")
        for p, e in zip(params, errors):
            fh.write(f"{p:.17g},{e:.17g}\n")


EDGE_VALUES = [-0.0, 1e-300, 1.0 / 3.0, -1e308, 5e-324, 123456789.125]


def assert_same_bytes(tmp_path, monkeypatch, write, reference, *args):
    """The writer's bytes equal the reference's with 1, 2 and 3 usable CPUs."""
    old = tmp_path / "old.csv"
    reference(str(old), *args)
    for workers in (1, 2, 3):
        monkeypatch.setattr(fields, "_usable_cpus", lambda: workers)
        new = tmp_path / f"new{workers}.csv"
        write(str(new), *args)
        assert new.read_bytes() == old.read_bytes(), workers


def test_field_csv_3d_matches_row_writer(tmp_path, monkeypatch):
    mesh = build_mesh(1.0, 0.7, 2.0, 17, 13, 121, x0=-0.5, y0=1.0 / 3.0)
    # at least three blocks of the two-component file, whose rows hold
    # five numbers
    assert mesh.nx * mesh.ny * mesh.nzeta > 2 * (CSV_NUMBERS // 5)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(mesh.nzeta, mesh.ny, mesh.nx))
    b = rng.normal(size=a.shape) * 1e-200
    b.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    assert_same_bytes(tmp_path, monkeypatch, write_field_csv, reference_field_csv, mesh,
                      {"Bx": a, "By": b})


def test_field_csv_rejects_mismatched_components(tmp_path):
    mesh = build_mesh(1.0, 1.0, 2.0, 9, 9, 5)
    with pytest.raises(FieldShapeError, match="'b'"):
        write_field_csv(str(tmp_path / "f.csv"), mesh,
                        {"a": np.zeros((5, 9, 9)), "b": np.zeros((9, 9))})
    # the writer takes whole volumes only: too few zeta slices are refused,
    # in the first component as in a later one
    for comps, name in (({"a": np.zeros((4, 9, 9))}, "'a'"),
                        ({"a": np.zeros((5, 9, 9)), "b": np.zeros((4, 9, 9))}, "'b'")):
        with pytest.raises(FieldShapeError, match=name):
            write_field_csv(str(tmp_path / "f.csv"), mesh, comps)


def ensemble(n, rng):
    return ParticleEnsemble(
        ids=np.arange(n, dtype=np.int64), x=rng.uniform(size=n), y=rng.normal(size=n),
        zeta=rng.uniform(0, 2, size=n), vx=rng.normal(size=n) * 1e-250,
        vy=rng.normal(size=n), vzeta=-rng.uniform(size=n), weight=rng.uniform(size=n),
    )


PARTICLE_ROWS = CSV_NUMBERS // 8  # an id and seven floats a row


@pytest.mark.parametrize("n", [
    pytest.param(0, id="empty"),
    pytest.param(1, id="one_row"),
    pytest.param(PARTICLE_ROWS, id="one_block"),
    pytest.param(2 * PARTICLE_ROWS + 17, id="two_blocks_and_17"),
])
def test_particle_csv_matches_row_writer(tmp_path, monkeypatch, n):
    p = ensemble(n, np.random.default_rng(n))
    if n:
        p.ids[0] = 2**63 - 1
        p.ids[-1] = 2**62 + 3
        p.vx[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    assert_same_bytes(tmp_path, monkeypatch, _write_particles, reference_particles_csv, p)


STUDY_ROWS = CSV_NUMBERS // 2


@pytest.mark.parametrize("n", [
    pytest.param(0, id="empty"),
    pytest.param(1, id="one_row"),
    pytest.param(STUDY_ROWS, id="one_block"),
    pytest.param(3 * STUDY_ROWS + 17, id="three_blocks_and_17"),
])
def test_study_csv_matches_row_writer(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    params, errors = rng.uniform(size=n), rng.normal(size=n) * 1e-9
    errors[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    assert_same_bytes(tmp_path, monkeypatch, _write_study_csv, reference_study_csv, params, errors)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fail_row", [None, 0, 2], ids=["ok", "first_fails", "second_fails"])
def test_block_writer_leaves_no_threads(tmp_path, monkeypatch, workers, fail_row):
    # the pool lives inside one call; an error from a block reaches the
    # caller, whichever thread formats it
    monkeypatch.setattr(fields, "_usable_cpus", lambda: workers)
    path = tmp_path / "blocks.csv"

    def block(start, stop):
        if fail_row is not None and start <= fail_row < stop:
            raise RuntimeError(f"row {fail_row}")
        return b"".join(b"%d\n" % i for i in range(start, stop))

    before = threading.active_count()
    if fail_row is None:
        write_blocks(str(path), b"i\n", block, 11, 2)
        assert path.read_bytes() == b"i\n" + b"".join(b"%d\n" % i for i in range(11))
    else:
        with pytest.raises(RuntimeError, match=f"row {fail_row}"):
            write_blocks(str(path), b"i\n", block, 11, 2)
    assert threading.active_count() == before


# writes one 50k-particle CSV three times, lets the allocator keep freed
# memory, writes it three more times, and prints the after / before ratio of
# the minor page faults
REFAULT_SCRIPT = """
import resource, sys
from parax import cli
from parax.mesh import build_mesh
from parax.pic import sample_initial_distribution

mesh = build_mesh(2.0, 2.0, 2.0, 17, 17, 9, x0=-1.0, y0=-1.0)
p = sample_initial_distribution(mesh, "gaussian", 50_000, 1, sigma=0.15, vth=0.05)

def faults():
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        cli._write_particles(sys.argv[1], p)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

before = faults()
cli._keep_freed_memory()
print(faults() / before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_kept_memory_stops_csv_blocks_refaulting(tmp_path):
    # a fresh process, so no earlier test has set the thresholds.  Measured
    # ratios (2 vCPUs): 0.05-0.23 with the thresholds set, 0.72-0.96 without
    src = os.path.dirname(os.path.dirname(os.path.abspath(parax.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REFAULT_SCRIPT, str(tmp_path / "p.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.4


# lets the allocator keep freed memory, then makes and frees ten 3.2 MB
# arrays (one per-particle array of 400k particles) one after the other, and
# prints their minor page faults in units of one array's pages
ARRAY_REFAULT_SCRIPT = """
import resource
import numpy as np
from parax import cli

cli._keep_freed_memory()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(400_000)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
      / (400_000 * 8 / resource.getpagesize()))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_kept_memory_keeps_particle_arrays_on_the_heap():
    # the first array grows the heap and the others reuse it: measured 0.98
    # arrays' pages (2 vCPUs); an mmap threshold below 3.2 MB maps each
    # array anew, and the ten fault about ten arrays' pages
    src = os.path.dirname(os.path.dirname(os.path.abspath(parax.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", ARRAY_REFAULT_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2
