"""Surfaces of revolution from profile curves, and OBJ export.

A profile row at (rho, t) becomes a ring of m vertices at height t; the
doubled variant mirrors the rows below the neck plane.  Two embeddings
of the hyperbolic radius are offered: the Poincare disk (Euclidean
radius tanh(rho/2), so everything lands inside the unit disk) and plain
cylindrical polar coordinates.

This is the one module of hcat that imports numpy; only the `mesh` and
`family` commands load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .core import CmcParams, ProfileCurve, profile
from .errors import PreconditionError
from .report import write_json


class EmbeddingMode(Enum):
    POINCARE_DISK = "poincare_disk"
    CYLINDER_POLAR = "cylinder_polar"


def _embed_radius(rho: float, mode: EmbeddingMode) -> float:
    if mode is EmbeddingMode.POINCARE_DISK:
        return math.tanh(0.5 * rho)
    return rho


def _as_rows(data, dtype, width: int, what: str) -> np.ndarray:
    """`data` as a read-only (k, width) array of `dtype`; empty input gives
    (0, width).  Entries that `dtype` holds only by a change of kind (float
    face indices, say) are refused rather than truncated."""
    rows = np.asarray(data)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    elif (rows.ndim != 2 or rows.shape[1] != width
          or not np.can_cast(rows.dtype, dtype, "same_kind")):
        raise PreconditionError(
            f"{what} must be rows of {width} {np.dtype(dtype).name}, "
            f"got {rows.dtype} of shape {rows.shape}")
    # a view, so that an array the caller passed in stays writeable
    rows = rows.astype(dtype, copy=False).view()
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Quad mesh of a revolved profile: an (N, 3) float64 `vertices` array
    and an (F, 4) int64 `faces` array of 0-based vertex indices."""

    vertices: np.ndarray
    faces: np.ndarray
    metadata: dict

    def __post_init__(self):
        vertices = _as_rows(self.vertices, np.float64, 3, "vertices")
        faces = _as_rows(self.faces, np.int64, 4, "faces")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise PreconditionError(
                f"face index out of range [0, {len(vertices)}): "
                f"min {faces.min()}, max {faces.max()}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)


def revolve(
    curve: ProfileCurve,
    m: int,
    mode: EmbeddingMode = EmbeddingMode.POINCARE_DISK,
    doubled: bool = True,
) -> SurfaceMesh:
    """Revolve a profile into a closed-in-angle quad mesh.

    With n profile samples the doubled mesh has 2n-1 rows (the neck row
    at height 0 is shared with its reflection), hence (2n-1)*m vertices
    and (2n-2)*m quads.  Vertex (i, j) is row i at angle 2 pi j / m, and
    its coordinates are the float products radius * cos(angle) and
    radius * sin(angle), with `math.cos`/`math.sin` taken once per angle.
    """
    if m < 3:
        raise PreconditionError(f"need at least 3 angular steps, got {m}")
    rows = [(s.rho, -s.t) for s in reversed(curve.samples[1:])] if doubled else []
    rows += [(s.rho, s.t) for s in curve.samples]

    radius = np.array([_embed_radius(rho, mode) for rho, _ in rows])[:, None]
    # math.cos, not np.cos: numpy's SIMD kernels may differ in the last bit,
    # and the OBJ bytes must not depend on the platform's numpy build
    angles = [2.0 * math.pi * j / m for j in range(m)]
    vertices = np.empty((len(rows), m, 3))
    vertices[..., 0] = radius * np.array([math.cos(a) for a in angles])
    vertices[..., 1] = radius * np.array([math.sin(a) for a in angles])
    vertices[..., 2] = np.array([t for _, t in rows])[:, None]

    # quad (i, j) joins columns j and j + 1 (mod m) of rows i and i + 1
    base = m * np.arange(len(rows) - 1)[:, None]
    j = np.arange(m)
    jn = (j + 1) % m
    faces = np.stack([base + j, base + jn, base + m + jn, base + m + j], axis=-1)

    metadata = {
        "H": curve.params.H,
        "d": curve.params.d,
        "embedding": mode.value,
        "doubled": doubled,
        "profile_samples": len(curve.samples),
        "angular_steps": m,
        "rows": len(rows),
        "vertex_count": len(rows) * m,
        "face_count": (len(rows) - 1) * m,
        "version": __version__,
    }
    return SurfaceMesh(vertices.reshape(-1, 3), faces.reshape(-1, 4), metadata)


def family_frames(
    H: float,
    d_list: list[float],
    rho_max: float,
    n: int,
    m: int,
    mode: EmbeddingMode = EmbeddingMode.POINCARE_DISK,
) -> list[SurfaceMesh]:
    """One mesh per family parameter, in a shared embedding.

    For visual exploration of the nested family only; no disjointness is
    implied for uncertified pairs.
    """
    meshes = []
    for d in d_list:
        params = CmcParams(H, d)
        curve = profile(params, rho_max, n)
        meshes.append(revolve(curve, m, mode, doubled=not params.is_entire_graph))
    return meshes


# lines formatted per write: bounds the Python strings and ints alive at once
_LINES_PER_WRITE = 8192


def _write_lines(fh, template: str, rows: np.ndarray) -> None:
    """Write `template` once per row, filled with that row's entries."""
    for lo in range(0, len(rows), _LINES_PER_WRITE):
        block = rows[lo:lo + _LINES_PER_WRITE]
        fh.write(template * len(block) % tuple(block.ravel().tolist()))


def export_obj(mesh: SurfaceMesh, path: str | Path) -> None:
    """Write Wavefront OBJ: `v x y z` lines then 1-based `f` quads.

    Output bytes are a pure function of the mesh: every coordinate is
    printed with 17 significant digits.  Each distinct bit pattern is
    formatted once, so -0.0 keeps its sign apart from 0.0.
    """
    vertices = mesh.vertices
    if not len(vertices):
        raise PreconditionError("refusing to export an empty mesh")
    bits, where = np.unique(vertices.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(np.float64).tolist()], dtype=object)
    with open(path, "w") as fh:
        _write_lines(fh, "v %s %s %s\n", text[where.reshape(vertices.shape)])
        _write_lines(fh, "f %d %d %d %d\n", mesh.faces + 1)


def export_meta(mesh: SurfaceMesh, path: str | Path) -> None:
    """Write the mesh metadata sidecar as deterministic JSON."""
    with open(path, "w") as fh:
        write_json(mesh.metadata, fh)
