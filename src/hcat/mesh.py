"""Surfaces of revolution from profile curves, and OBJ/CSV export.

A profile row at (rho, t) becomes a ring of m vertices at height t; the
doubled variant mirrors the rows below the neck plane.  Two embeddings
of the hyperbolic radius are offered: the Poincare disk (Euclidean
radius tanh(rho/2), so everything lands inside the unit disk) and plain
cylindrical polar coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import __version__
from .core import CmcParams, ProfileCurve, profile
from .errors import PreconditionError


class EmbeddingMode(Enum):
    POINCARE_DISK = "poincare_disk"
    CYLINDER_POLAR = "cylinder_polar"


def _embed_radius(rho: float, mode: EmbeddingMode) -> float:
    if mode is EmbeddingMode.POINCARE_DISK:
        return math.tanh(0.5 * rho)
    return rho


@dataclass(frozen=True)
class SurfaceMesh:
    """Quad mesh of a revolved profile."""

    vertices: tuple[tuple[float, float, float], ...]
    faces: tuple[tuple[int, int, int, int], ...]
    metadata: dict

    def __post_init__(self):
        n = len(self.vertices)
        for face in self.faces:
            if any(not (0 <= idx < n) for idx in face):
                raise PreconditionError(f"face index out of range: {face}")


def revolve(
    curve: ProfileCurve,
    m: int,
    mode: EmbeddingMode = EmbeddingMode.POINCARE_DISK,
    doubled: bool = True,
) -> SurfaceMesh:
    """Revolve a profile into a closed-in-angle quad mesh.

    With n profile samples the doubled mesh has 2n-1 rows (the neck row
    at height 0 is shared with its reflection), hence (2n-1)*m vertices
    and (2n-2)*m quads.
    """
    if m < 3:
        raise PreconditionError(f"need at least 3 angular steps, got {m}")
    rows = [(s.rho, -s.t) for s in reversed(curve.samples[1:])] if doubled else []
    rows += [(s.rho, s.t) for s in curve.samples]

    vertices = []
    for rho, t in rows:
        radius = _embed_radius(rho, mode)
        for j in range(m):
            ang = 2.0 * math.pi * j / m
            vertices.append((radius * math.cos(ang), radius * math.sin(ang), t))

    faces = []
    for i in range(len(rows) - 1):
        base, nxt = i * m, (i + 1) * m
        for j in range(m):
            jn = (j + 1) % m
            faces.append((base + j, base + jn, nxt + jn, nxt + j))

    metadata = {
        "H": curve.params.H,
        "d": curve.params.d,
        "embedding": mode.value,
        "doubled": doubled,
        "profile_samples": len(curve.samples),
        "angular_steps": m,
        "rows": len(rows),
        "vertex_count": len(vertices),
        "face_count": len(faces),
        "quad_tol": curve.quad_tol,
        "version": __version__,
    }
    return SurfaceMesh(tuple(vertices), tuple(faces), metadata)


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_obj(mesh: SurfaceMesh, path: str | Path) -> None:
    """Write Wavefront OBJ: `v x y z` lines then 1-based `f` quads.

    Output bytes are a pure function of the mesh (17 significant digits).
    """
    if not mesh.vertices:
        raise PreconditionError("refusing to export an empty mesh")
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for a, b, c, d in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1} {d + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_meta(mesh: SurfaceMesh, path: str | Path) -> None:
    """Write the mesh metadata sidecar as deterministic JSON."""
    Path(path).write_text(
        json.dumps(mesh.metadata, indent=2, sort_keys=True) + "\n"
    )


def export_csv(curve: ProfileCurve, path: str | Path) -> None:
    """Write the profile as CSV with columns rho,t."""
    Path(path).write_text(curve.to_csv())
