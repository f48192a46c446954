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
# (zeta, y, x) with x fastest, 17 significant digits.  Rows are formatted
# CSV_ROWS at a time, so only one block of each column is ever held as
# Python numbers; the field writer also keeps one plane of "x,y," strings.

CSV_ROWS = 1024


def write_csv_rows(fh, template: str, columns) -> None:
    """Write ``template % row`` for each row of equal-length 1-D columns."""
    for s in range(0, len(columns[0]), CSV_ROWS):
        block = [c[s:s + CSV_ROWS].tolist() for c in columns]
        fh.writelines(template % row for row in zip(*block))


def write_field_csv(path, mesh: Mesh, components: dict[str, np.ndarray]) -> None:
    names = list(components)
    arrays = [np.asarray(components[name], dtype=float) for name in names]
    arrays = [v[None, :, :] if v.ndim == 2 else v for v in arrays]
    nz = arrays[0].shape[0]
    for name, v in zip(names, arrays):
        if v.shape != (nz, mesh.ny, mesh.nx) or nz > mesh.nzeta:
            raise FieldShapeError(f"component {name!r} has shape {v.shape}")
    # each distinct coordinate is formatted once: one plane of "x,y," strings,
    # and each zeta plane's row template carries its zeta string
    xs = ["%.17g," % x for x in mesh.x.tolist()]
    plane = ["%s%.17g," % (x, y) for y in mesh.y.tolist() for x in xs]
    values = [v.reshape(nz, len(plane)) for v in arrays]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,zeta," + ",".join(names) + "\n")
        for k, z in enumerate(mesh.zeta[:nz].tolist()):
            template = "%s" + ",".join(["%.17g" % z] + ["%.17g"] * len(values)) + "\n"
            for s in range(0, len(plane), CSV_ROWS):
                rows = zip(plane[s:s + CSV_ROWS], *[v[k, s:s + CSV_ROWS].tolist() for v in values])
                fh.writelines(map(template.__mod__, rows))


def read_field_csv(path):
    """Returns (names, coords (N,3), data (N, ncomp)); inverse of write_field_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header[3:], body[:, :3], body[:, 3:]
