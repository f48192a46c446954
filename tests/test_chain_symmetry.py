"""Metamorphic properties of the whole field chain: with no external field
it is linear in its sources over a timeline, and the box is mirror-symmetric
in x and in y, also under an external Bz, which a mirror negates.  These
need no oracle, so they vouch for changes that move the bits of every field.

Negation, linearity and mirrors all commute with flipping the sign of one
component, so none of them sees a sign slip between the x and y components
(in Bperp's rotation, say).  The x <-> y transpose of a square box does, but
the discrete chain keeps it only to the discretization error: the div-curl
split integrates its corner-bilinear part along x and its boundary contour
from the y_lo face.  That test uses smooth moments and bounds per order."""

import numpy as np
import pytest

from parax.fields import ScalarField, VectorField2
from parax.hierarchy import ExternalField, FieldHistory, HierarchySolver, SourceTerms
from parax.mesh import build_mesh

BETA = 0.5
N_MAX = 2
DT = 0.05
SNAPSHOTS = 3
BZ = 0.7
MESH = build_mesh(1.0, 1.3, 2.0, 11, 9, 7)

# the eight arrays of an order, and their signs under the mirrors x -> -x and
# y -> -y: E is a vector, B a pseudovector (under the x-mirror Bperp.x keeps
# its sign, Bperp.y and Bz flip; under the y-mirror Bperp.x and Bz flip)
COMPONENTS = (("Ez", +1, +1), ("Ecal.x", -1, +1), ("Ecal.y", +1, -1),
              ("Eperp.x", -1, +1), ("Eperp.y", +1, -1), ("Bperp.x", +1, -1),
              ("Bperp.y", -1, +1), ("Bz", -1, -1))


def chain(timeline, mesh=MESH, bz=0.0) -> dict[tuple, np.ndarray]:
    """Every field of every order of every snapshot of a timeline of
    (rho, Jx, Jy, Jzeta) moments under the external field ``bz``, keyed
    (snapshot, order, component)."""
    solver = HierarchySolver(mesh, BETA, external=ExternalField(bz=bz))
    hist = FieldHistory()
    out = {}
    for k, (rho, jx, jy, jz) in enumerate(timeline):
        src = SourceTerms(ScalarField(mesh, rho), VectorField2(mesh, jx, jy),
                          ScalarField(mesh, jz))
        h = solver.solve_hierarchy(N_MAX, src, hist, time=k * DT)
        hist.push(h)
        for o in h.orders:
            out.update({(k, o.n, c): a for c, a in o.arrays().items()})
    return out


def moments(seed):
    rng = np.random.default_rng(seed)
    shape = (MESH.nzeta, MESH.ny, MESH.nx)
    return [tuple(rng.standard_normal(shape) for _ in range(4)) for _ in range(SNAPSHOTS)]


def smooth_moments(mesh, seed):
    """Moments made of the lowest sine modes in x and y, with random weights."""
    rng = np.random.default_rng(seed)
    X, Y, Z = mesh.grids3d()
    modes = [np.sin(p * np.pi * (X - mesh.x0) / mesh.a) * np.sin(q * np.pi * (Y - mesh.y0) / mesh.b)
             * np.cos(r * np.pi * Z / mesh.zlen)
             for p in (1, 2) for q in (1, 2) for r in (0, 1)]
    return [tuple(sum(rng.standard_normal() * m for m in modes) for _ in range(4))
            for _ in range(SNAPSHOTS)]


def gaps(got: dict, want: dict) -> dict[int, float]:
    """Largest gap of any array per order, relative to the largest entry of
    its component at that order over all snapshots (order 2 of the cold
    first snapshot is zero)."""
    scale, out = {}, {}
    for (_, n, c), a in want.items():
        scale[n, c] = max(scale.get((n, c), 0.0), np.abs(a).max())
    for k in want:
        out[k[1]] = max(out.get(k[1], 0.0), np.abs(got[k] - want[k]).max() / scale[k[1:]])
    return out


def worst_gap(got: dict, want: dict) -> float:
    return max(gaps(got, want).values())


@pytest.fixture(scope="module")
def base():
    timeline = moments(1)
    return timeline, chain(timeline)


def test_negated_sources_negate_every_field_exactly(base):
    timeline, fields = base
    negated = chain([tuple(-m for m in snap) for snap in timeline])
    for key, a in fields.items():
        assert np.array_equal(negated[key], -a), key


def test_chain_is_linear_in_its_sources(base):
    timeline_a, fields_a = base
    timeline_b = moments(2)
    fields_b = chain(timeline_b)
    mixed = chain([tuple(a + 2.5 * b for a, b in zip(sa, sb))
                   for sa, sb in zip(timeline_a, timeline_b)])
    want = {key: fields_a[key] + 2.5 * fields_b[key] for key in fields_a}
    # measured 5.5e-14 for these moments, at most 1.2e-13 over six seeds
    assert worst_gap(mixed, want) < 1e-12


def mirror_gaps(timeline, fields, bz=0.0) -> dict[str, float]:
    """worst_gap of the x- and y-mirrored runs against the mirrored
    ``fields``: reflect the arrays along x (or y), negate Jx (or Jy) and the
    external Bz."""
    mirrors = (("x", lambda a: a[..., ::-1], -1, 1), ("y", lambda a: a[..., ::-1, :], 1, -1))
    out = {}
    for column, (name, flip, sx, sy) in enumerate(mirrors, start=1):
        mirrored = chain([(flip(rho), sx * flip(jx), sy * flip(jy), flip(jz))
                          for rho, jx, jy, jz in timeline], bz=-bz)
        sign = {c[0]: c[column] for c in COMPONENTS}
        want = {key: sign[key[2]] * flip(a) for key, a in fields.items()}
        out[name] = worst_gap(mirrored, want)
    return out


def test_x_mirror_gives_the_mirrored_fields(base):
    # and the y-mirror
    timeline, fields = base
    # measured 2.2e-13 (x) and 3.5e-13 (y) for these moments, at most
    # 7.7e-13 and 5.7e-13 over six seeds
    for name, gap in mirror_gaps(timeline, fields).items():
        assert gap < 5e-12, name


def test_mirrors_negate_the_external_field(base):
    timeline, _ = base
    fields = chain(timeline, bz=BZ)
    # measured 2.1e-13 (x) and 3.6e-13 (y) for these moments, at most 5.2e-13
    # and 5.5e-13 over six seeds; mirrored runs that keep +Bz give about 0.09
    for name, gap in mirror_gaps(timeline, fields, BZ).items():
        assert gap < 5e-12, name


def test_transpose_of_a_square_box_holds_to_discretization():
    mesh = build_mesh(1.0, 1.0, 2.0, 13, 13, 7)
    timeline = smooth_moments(mesh, 1)
    fields = chain(timeline, mesh)
    T = lambda a: np.swapaxes(a, -1, -2)
    swapped = chain([(T(rho), T(jy), T(jx), T(jz)) for rho, jx, jy, jz in timeline], mesh)
    # x and y trade places; B is a pseudovector, so Bperp and Bz change sign
    image = {"Ez": ("Ez", 1), "Ecal.x": ("Ecal.y", 1), "Ecal.y": ("Ecal.x", 1),
             "Eperp.x": ("Eperp.y", 1), "Eperp.y": ("Eperp.x", 1),
             "Bperp.x": ("Bperp.y", -1), "Bperp.y": ("Bperp.x", -1), "Bz": ("Bz", -1)}
    want = {(k, n, c): image[c][1] * T(fields[k, n, image[c][0]]) for k, n, c in fields}
    # measured 1.4e-3, 4.8e-2 and 0.20 per order (at most 2.0e-3, 7.6e-2 and
    # 0.20 over three seeds, all in Bperp, falling about 3x at 17^2 x 9); a
    # sign slip between Bperp's components gives about 2 at every order
    got = gaps(swapped, want)
    assert got[0] < 1e-2 and got[1] < 0.3 and got[2] < 0.6, got
