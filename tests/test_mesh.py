"""Revolved meshes: counting rules, symmetry, and byte-deterministic export."""

import math
from pathlib import Path

import pytest

from hcat.core import CmcParams, ProfileCurve, ProfileSample, necksize, profile
from hcat.errors import PreconditionError
from hcat.mesh import (
    EmbeddingMode,
    SurfaceMesh,
    export_meta,
    export_obj,
    family_frames,
    revolve,
)

from conftest import DATA_DIR

GOLDEN_OBJ = DATA_DIR / "tiny.obj"


def _tiny_curve():
    return ProfileCurve(
        CmcParams(0.25, 2.0),
        (ProfileSample(1.0, 0.0), ProfileSample(2.0, 1.0), ProfileSample(3.0, 2.0)),
    )


class TestRevolve:
    def test_counts_doubled(self):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR, doubled=True)
        # 2n - 1 rows of m vertices, (2n - 2) * m quads for n = m = 3
        assert len(mesh.vertices) == 5 * 3
        assert len(mesh.faces) == 4 * 3

    def test_counts_single_sided(self):
        mesh = revolve(_tiny_curve(), 4, EmbeddingMode.CYLINDER_POLAR, doubled=False)
        assert len(mesh.vertices) == 3 * 4
        assert len(mesh.faces) == 2 * 4

    def test_doubled_mesh_is_z_symmetric(self):
        curve = profile(CmcParams(0.25, 2.0), 5.0, 9)
        mesh = revolve(curve, 8, EmbeddingMode.POINCARE_DISK, doubled=True)
        flipped = sorted((x, y, -z) for x, y, z in mesh.vertices)
        assert flipped == sorted(mesh.vertices)

    def test_neck_ring_radius_in_poincare_disk(self):
        params = CmcParams(0.25, 2.0)
        curve = profile(params, 5.0, 9)
        mesh = revolve(curve, 8, EmbeddingMode.POINCARE_DISK, doubled=False)
        x, y, z = mesh.vertices[0]
        assert z == 0.0
        assert math.hypot(x, y) == pytest.approx(math.tanh(0.5 * necksize(params)))

    def test_poincare_vertices_inside_unit_disk(self):
        curve = profile(CmcParams(0.25, 2.0), 20.0, 9)
        mesh = revolve(curve, 8, EmbeddingMode.POINCARE_DISK)
        assert all(math.hypot(x, y) < 1.0 for x, y, _ in mesh.vertices)

    def test_quads_wrap_around(self):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR, doubled=False)
        # each vertex of the non-final rows appears in exactly 2 quads per
        # neighbouring ring; the wrap quad reuses column 0
        assert mesh.faces[2] == (2, 0, 3, 5)

    def test_metadata(self):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR, doubled=True)
        md = mesh.metadata
        assert md["vertex_count"] == len(mesh.vertices)
        assert md["face_count"] == len(mesh.faces)
        assert md["angular_steps"] == 3
        assert md["embedding"] == "cylinder_polar"
        assert md["doubled"] is True

    def test_too_few_angular_steps_rejected(self):
        with pytest.raises(PreconditionError):
            revolve(_tiny_curve(), 2)

    def test_face_index_validation(self):
        with pytest.raises(PreconditionError):
            SurfaceMesh(((0.0, 0.0, 0.0),), ((0, 1, 2, 3),), {})


class TestFamilyFrames:
    def test_one_mesh_per_parameter(self):
        meshes = family_frames(0.25, [-0.5, 0.0, 2.0], rho_max=3.0, n=5, m=4)
        assert len(meshes) == 3
        # the family floor member is a graph: not doubled
        assert meshes[0].metadata["doubled"] is False
        assert meshes[1].metadata["doubled"] is True
        assert [m.metadata["d"] for m in meshes] == [-0.5, 0.0, 2.0]


class TestExport:
    def test_golden_file_byte_equality(self, tmp_path):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR, doubled=True)
        out = tmp_path / "tiny.obj"
        export_obj(mesh, out)
        assert out.read_bytes() == GOLDEN_OBJ.read_bytes()

    def test_export_is_deterministic(self, tmp_path):
        curve = profile(CmcParams(0.25, 2.0), 5.0, 9)
        mesh = revolve(curve, 8)
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        export_obj(mesh, a)
        export_obj(revolve(profile(CmcParams(0.25, 2.0), 5.0, 9), 8), b)
        assert a.read_bytes() == b.read_bytes()

    def test_obj_structure(self, tmp_path):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR)
        out = tmp_path / "m.obj"
        export_obj(mesh, out)
        lines = out.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == len(mesh.vertices)
        assert len(f_lines) == len(mesh.faces)
        # 1-based indices, all within range
        for line in f_lines:
            idx = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= len(mesh.vertices) for i in idx)

    def test_empty_mesh_rejected(self, tmp_path):
        empty = SurfaceMesh((), (), {})
        with pytest.raises(PreconditionError):
            export_obj(empty, tmp_path / "nope.obj")

    def test_meta_sidecar(self, tmp_path):
        import json

        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR)
        out = tmp_path / "m.json"
        export_meta(mesh, out)
        data = json.loads(out.read_text())
        assert data == mesh.metadata
