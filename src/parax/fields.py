"""Scalar and 2-component vector fields on the mesh, plus CSV serialization.

Field values live on all mesh nodes.  Arrays are either (ny, nx) for a single
transverse slice or (nzeta, ny, nx) for the full domain; every operator acts
on the trailing two axes so both layouts flow through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


class FieldShapeError(ValueError):
    pass


def _check_shape(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape == (mesh.ny, mesh.nx) or values.shape == (mesh.nzeta, mesh.ny, mesh.nx):
        return values
    raise FieldShapeError(
        f"field shape {values.shape} matches neither ({mesh.ny}, {mesh.nx}) "
        f"nor ({mesh.nzeta}, {mesh.ny}, {mesh.nx})"
    )


@dataclass
class ScalarField:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_shape(self.mesh, self.values)
        if not np.all(np.isfinite(self.values)):
            raise FieldShapeError("field contains non-finite entries")

    @property
    def is3d(self) -> bool:
        return self.values.ndim == 3

    @classmethod
    def zeros(cls, mesh: Mesh, volumetric: bool = True) -> "ScalarField":
        shape = (mesh.nzeta, mesh.ny, mesh.nx) if volumetric else (mesh.ny, mesh.nx)
        return cls(mesh, np.zeros(shape))


@dataclass
class VectorField2:
    mesh: Mesh
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = _check_shape(self.mesh, self.x)
        self.y = _check_shape(self.mesh, self.y)
        if self.x.shape != self.y.shape:
            raise FieldShapeError("vector components have mismatched shapes")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise FieldShapeError("field contains non-finite entries")

    @property
    def is3d(self) -> bool:
        return self.x.ndim == 3

    @classmethod
    def zeros(cls, mesh: Mesh, volumetric: bool = True) -> "VectorField2":
        shape = (mesh.nzeta, mesh.ny, mesh.nx) if volumetric else (mesh.ny, mesh.nx)
        return cls(mesh, np.zeros(shape), np.zeros(shape))


def same_mesh(*fields) -> Mesh:
    mesh = fields[0].mesh
    for f in fields[1:]:
        if f.mesh is not mesh and f.mesh != mesh:
            raise FieldShapeError("fields live on different meshes")
    return mesh


# -- CSV serialization --------------------------------------------------------
#
# Format: header "x,y,zeta,<component...>", one row per node, row-major over
# (zeta, y, x) with x fastest, 17 significant digits.

def write_field_csv(path, mesh: Mesh, components: dict[str, np.ndarray]) -> None:
    names = list(components)
    arrays = []
    for name in names:
        v = np.asarray(components[name], dtype=float)
        if v.ndim == 2:
            v = v[None, :, :]
        if v.shape != (v.shape[0], mesh.ny, mesh.nx):
            raise FieldShapeError(f"component {name!r} has shape {v.shape}")
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


def read_field_csv(path):
    """Returns (names, coords (N,3), data (N, ncomp)); inverse of write_field_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header[3:], body[:, :3], body[:, 3:]
