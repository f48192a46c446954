"""Tensor-product mesh over the transverse section Omega x (0, Z).

Omega is a rectangle [x0, x0+a] x [y0, y0+b]; the longitudinal beam-frame
coordinate zeta runs over [0, Z].  Nodes are collocated (no staggering) and
boundary metadata (outward normal nu, tangent tau = (-nu_y, nu_x)) is
precomputed per face of the transverse boundary Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Transverse faces of Gamma in counterclockwise traversal order, with their
# outward unit normals.  The tangent tau = (-nu_y, nu_x) then points along the
# counterclockwise direction, which is what the circulation integral assumes.
FACE_ORDER = ("y_lo", "x_hi", "y_hi", "x_lo")
FACE_NORMALS = {
    "x_lo": (-1.0, 0.0),
    "x_hi": (1.0, 0.0),
    "y_lo": (0.0, -1.0),
    "y_hi": (0.0, 1.0),
}
# Every face of the box, the zeta faces included: the array axis it lies
# across, counted from the end of (nzeta, ny, nx), and its end index on that
# axis.  Each axis lists its low face before its high one.
FACE_AXIS = {
    "x_lo": (-1, 0), "x_hi": (-1, -1),
    "y_lo": (-2, 0), "y_hi": (-2, -1),
    "zeta_lo": (-3, 0), "zeta_hi": (-3, -1),
}

# The fewest zeta nodes the field chain runs on: the one-sided end stencil of
# the second zeta derivative (operators.dzeta2) reads four nodes.  A mesh of
# transverse slices only (the 2D solves) needs 3, like nx and ny.
MIN_NZETA = 4


def face_tangent(face: str) -> tuple[float, float]:
    nx_, ny_ = FACE_NORMALS[face]
    return (-ny_, nx_)


@dataclass(frozen=True)
class Mesh:
    a: float          # transverse extent along x
    b: float          # transverse extent along y
    zlen: float       # longitudinal extent Z
    nx: int
    ny: int
    nzeta: int
    x0: float = 0.0   # lower-left corner of Omega
    y0: float = 0.0

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nzeta", self.nzeta)):
            if n < 3:
                raise ValueError(f"{name} must be >= 3, got {n}")
        for name, e in (("a", self.a), ("b", self.b), ("zlen", self.zlen)):
            if e <= 0:
                raise ValueError(f"extent {name} must be positive, got {e}")

    @property
    def hx(self) -> float:
        return self.a / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.b / (self.ny - 1)

    @property
    def hzeta(self) -> float:
        return self.zlen / (self.nzeta - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    @cached_property
    def zeta(self) -> np.ndarray:
        return self.hzeta * np.arange(self.nzeta)

    def xy(self):
        """Transverse coordinate grids X, Y of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y, indexing="xy")

    def grids3d(self):
        """Coordinate grids X, Y, ZETA of shape (nzeta, ny, nx)."""
        Z, Y, X = np.meshgrid(self.zeta, self.y, self.x, indexing="ij")
        return X, Y, Z

    # -- boundary metadata ---------------------------------------------------

    def face_size(self, face: str) -> int:
        """Node count along a transverse face: ny on an x face, nx on a y face."""
        return self.ny if FACE_AXIS[face][0] == -1 else self.nx

    def face_step(self, face: str) -> float:
        """Node spacing along a transverse face: hy on an x face, hx on a y face."""
        return self.hy if FACE_AXIS[face][0] == -1 else self.hx

    def face_nodes(self, face: str):
        """(j, i) index arrays of the nodes on a transverse face.

        Ordered along the face's own axis (increasing x for y-faces,
        increasing y for x-faces); both corner nodes are included.
        """
        if face not in FACE_ORDER:
            raise ValueError(f"unknown face {face!r}")
        axis, end = FACE_AXIS[face]
        along = np.arange(self.face_size(face))
        across = np.full_like(along, end % (self.ny, self.nx)[axis])
        return (along, across) if axis == -1 else (across, along)

    @cached_property
    def boundary_table(self):
        """Per-node (j, i, nu) over Gamma, each node listed once.

        Corner nodes, where two faces meet, carry the normalized diagonal
        normal so that |nu| = 1 holds everywhere.
        """
        nu = np.zeros((self.ny, self.nx, 2))
        for f in FACE_ORDER:
            j, i = self.face_nodes(f)
            nu[j, i, 0] += FACE_NORMALS[f][0]
            nu[j, i, 1] += FACE_NORMALS[f][1]
        mask = np.zeros((self.ny, self.nx), dtype=bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        jj, ii = np.nonzero(mask)
        vecs = nu[jj, ii]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return jj, ii, vecs

    def interior_mask_2d(self) -> np.ndarray:
        m = np.zeros((self.ny, self.nx), dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    # -- quadrature weights ----------------------------------------------------

    @cached_property
    def dual_area_2d(self) -> np.ndarray:
        """Trapezoid dual-cell areas (ny, nx): boundary nodes own half cells."""
        wx = np.full(self.nx, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return np.outer(wy, wx)

    @cached_property
    def dual_volume_3d(self) -> np.ndarray:
        wz = np.full(self.nzeta, self.hzeta)
        wz[0] = wz[-1] = 0.5 * self.hzeta
        return wz[:, None, None] * self.dual_area_2d[None, :, :]

    def integrate_2d(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid integral over Omega; works on (..., ny, nx) stacks."""
        return np.sum(values * self.dual_area_2d, axis=(-2, -1))


def build_mesh(
    a: float,
    b: float,
    zlen: float,
    nx: int,
    ny: int,
    nzeta: int,
    x0: float = 0.0,
    y0: float = 0.0,
) -> Mesh:
    """Construct a mesh, validating node counts (>= 3) and extents (> 0)."""
    return Mesh(a=a, b=b, zlen=zlen, nx=nx, ny=ny, nzeta=nzeta, x0=x0, y0=y0)
