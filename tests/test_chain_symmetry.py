"""Metamorphic properties of the whole field chain: with no external field
it is linear in its sources over a timeline, and the box is mirror-symmetric
in x.  These need no oracle, so they vouch for changes that move the bits of
every field.

Negation, linearity and mirrors all commute with flipping the sign of one
component, so none of them sees a sign slip between the x and y components
(in Bperp's rotation, say).  The x <-> y transpose of a square box does, but
the discrete chain keeps it only to the discretization error: the div-curl
split integrates its corner-bilinear part along x and its boundary contour
from the y_lo face.  That test uses smooth moments and bounds per order."""

import numpy as np
import pytest

from parax.fields import ScalarField, VectorField2
from parax.hierarchy import FieldHistory, HierarchySolver, SourceTerms
from parax.mesh import build_mesh

BETA = 0.5
N_MAX = 2
DT = 0.05
SNAPSHOTS = 3
MESH = build_mesh(1.0, 1.3, 2.0, 11, 9, 7)

# the eight arrays of an order, and their sign under the mirror x -> -x:
# E is a vector, B a pseudovector (Bperp_x keeps its sign, Bperp_y and Bz flip)
COMPONENTS = (("Ez", +1), ("Ecal_x", -1), ("Ecal_y", +1), ("Eperp_x", -1),
              ("Eperp_y", +1), ("Bperp_x", +1), ("Bperp_y", -1), ("Bz", -1))


def _arrays(order) -> dict[str, np.ndarray]:
    return {"Ez": order.Ez.values, "Ecal_x": order.Ecal.x, "Ecal_y": order.Ecal.y,
            "Eperp_x": order.Eperp.x, "Eperp_y": order.Eperp.y,
            "Bperp_x": order.Bperp.x, "Bperp_y": order.Bperp.y, "Bz": order.Bz.values}


def chain(timeline, mesh=MESH) -> dict[tuple, np.ndarray]:
    """Every field of every order of every snapshot of a timeline of
    (rho, Jx, Jy, Jzeta) moments, keyed (snapshot, order, component)."""
    solver = HierarchySolver(mesh, BETA)
    hist = FieldHistory()
    out = {}
    for k, (rho, jx, jy, jz) in enumerate(timeline):
        src = SourceTerms(ScalarField(mesh, rho), VectorField2(mesh, jx, jy),
                          ScalarField(mesh, jz))
        h = solver.solve_hierarchy(N_MAX, src, hist, time=k * DT)
        hist.push(h)
        for o in h.orders:
            out.update({(k, o.n, c): a for c, a in _arrays(o).items()})
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


def test_x_mirror_gives_the_mirrored_fields(base):
    timeline, fields = base
    mirrored = chain([(rho[..., ::-1], -jx[..., ::-1], jy[..., ::-1], jz[..., ::-1])
                      for rho, jx, jy, jz in timeline])
    sign = dict(COMPONENTS)
    want = {key: sign[key[2]] * a[..., ::-1] for key, a in fields.items()}
    # measured 2.2e-13 for these moments, at most 7.7e-13 over six seeds
    assert worst_gap(mirrored, want) < 5e-12


def test_transpose_of_a_square_box_holds_to_discretization():
    mesh = build_mesh(1.0, 1.0, 2.0, 13, 13, 7)
    timeline = smooth_moments(mesh, 1)
    fields = chain(timeline, mesh)
    T = lambda a: np.swapaxes(a, -1, -2)
    swapped = chain([(T(rho), T(jy), T(jx), T(jz)) for rho, jx, jy, jz in timeline], mesh)
    # x and y trade places; B is a pseudovector, so Bperp and Bz change sign
    image = {"Ez": ("Ez", 1), "Ecal_x": ("Ecal_y", 1), "Ecal_y": ("Ecal_x", 1),
             "Eperp_x": ("Eperp_y", 1), "Eperp_y": ("Eperp_x", 1),
             "Bperp_x": ("Bperp_y", -1), "Bperp_y": ("Bperp_x", -1), "Bz": ("Bz", -1)}
    want = {(k, n, c): image[c][1] * T(fields[k, n, image[c][0]]) for k, n, c in fields}
    # measured 1.4e-3, 4.8e-2 and 0.20 per order (at most 2.0e-3, 7.6e-2 and
    # 0.20 over three seeds, all in Bperp, falling about 3x at 17^2 x 9); a
    # sign slip between Bperp's components gives about 2 at every order
    got = gaps(swapped, want)
    assert got[0] < 1e-2 and got[1] < 0.3 and got[2] < 0.6, got
