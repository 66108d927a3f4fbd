"""Revolved meshes: counting rules, symmetry, and byte-deterministic export."""

import hashlib
import math

import numpy as np
import pytest

from hcat.cli import EXIT_OK, run
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
        rows = [tuple(v) for v in mesh.vertices.tolist()]
        flipped = sorted((x, y, -z) for x, y, z in rows)
        assert flipped == sorted(rows)

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
        assert mesh.faces[2].tolist() == [2, 0, 3, 5]

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

    @pytest.mark.parametrize("bad", [4, -1], ids=["equals_vertex_count", "negative"])
    def test_face_index_just_out_of_range(self, bad):
        square = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))
        SurfaceMesh(square, ((0, 1, 2, 3), (3, 2, 1, 0)), {})
        with pytest.raises(PreconditionError):
            SurfaceMesh(square, ((0, 1, 2, 3), (3, bad, 1, 0)), {})

    @pytest.mark.parametrize("vertices, faces", [
        (((0.0, 0.0),), ()),
        (((0.0, 0.0, 0.0),), ((0, 0, 0),)),
        (((0.0, 0.0, 0.0),), ((0, 0, 0, 0.5),)),
        (((0.0, 0.0, "x"),), ()),
    ], ids=["vertex_of_two", "triangle", "float_index", "text_coordinate"])
    def test_row_validation(self, vertices, faces):
        with pytest.raises(PreconditionError):
            SurfaceMesh(vertices, faces, {})

    def test_arrays_are_read_only(self):
        mesh = revolve(_tiny_curve(), 3, EmbeddingMode.CYLINDER_POLAR)
        assert mesh.vertices.shape == (15, 3) and mesh.vertices.dtype == np.float64
        assert mesh.faces.shape == (12, 4) and mesh.faces.dtype == np.int64
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 1.0


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


# sha256 of every file a command writes, fixed before `revolve` and
# `export_obj` moved onto arrays; any change to these bytes needs a reason.
# The OBJ files were re-pinned when the height table's first piece became
# u in [0, 1]: profile heights moved at rounding level, so some vertex
# heights did, by at most 8.9e-16 in the meshes (78 336 of 261 376 lines
# at n = m = 256) and 6.7e-16 in the family frames; the JSON sidecars and
# the family manifest are unchanged
PINNED_MESHES = {
    "poincare_doubled": (
        ["--H", "0.25", "--d", "2", "--rho-max", "6", "--n", "256", "--m", "256"],
        "b2950499dd69c64cd475af463ee8527de66c10f3843bea81bf398176f8b0e541",
        "56d903841e5c8aa9c7c4fb09e011153083388ba5d24ca08ffe21579f9527ea17",
    ),
    "cylinder_doubled": (
        ["--H", "0.3", "--d", "1.5", "--rho-max", "4", "--n", "33", "--m", "24",
         "--mode", "cylinder_polar"],
        "04e056263b9a043a981742760ebe8cb0612573d3e2772a4addb2b77e22e20b08",
        "0066d580124f9b8e955979c8006288cca71e0cf8ac2119ddd9d5ebbf2bc4a2f2",
    ),
    "not_doubled": (
        ["--H", "0.2", "--d", "5", "--rho-max", "8", "--n", "40", "--m", "17",
         "--no-doubled"],
        "3fa430f0e43b421bdf11068b8478c4d28c39d8c90ca8b3a834f244cf11a4c40c",
        "7f7c415870c1246cfba234d3a9b973f0d0ea77fb42888d58c752fac142de41ed",
    ),
    # d = -2H: the neck ring has radius 0, so 63 of its coordinates are -0.0
    "entire_graph": (
        ["--H", "0.25", "--d", "-0.5", "--rho-max", "3", "--n", "20", "--m", "64"],
        "1164ca1d6ddf59a06eba1cc1a65f2bedb41117899868219b8fcaeaccfbbd0421",
        "ec3565f6311eae7baef8d3a173460c76073532996e857e6cbb441223e0f14cb7",
    ),
}

PINNED_FAMILY = {
    "family.json": "9a672336b63c90f679be964b6530112cf638729e25c9803e0481c894f12e75c1",
    "frame_d_-0.5.obj": "538f626374f84960baba5f84da214b76b3fddccd8371faf007a1d597cc47c39b",
    "frame_d_0.obj": "b466a2943c8ca3488ae8a3ddb9e5682054b5b8321f8e7c0d77ec80b349a248e6",
    "frame_d_2.obj": "498183a80eb9cc7174089730f01ef2fb0e2074c24b2463c64ae462cfd5a597a1",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("name", PINNED_MESHES)
    def test_mesh_files(self, name, tmp_path):
        argv, obj_hash, meta_hash = PINNED_MESHES[name]
        out = tmp_path / f"{name}.obj"
        assert run(["mesh", *argv, "--out", str(out)]) == EXIT_OK
        assert _sha256(out) == obj_hash
        assert _sha256(out.with_suffix(".json")) == meta_hash

    def test_entire_graph_keeps_negative_zeros(self, tmp_path):
        out = tmp_path / "entire.obj"
        assert run(["mesh", *PINNED_MESHES["entire_graph"][0], "--out", str(out)]) == EXIT_OK
        tokens = [tok for line in out.read_text().splitlines() if line.startswith("v ")
                  for tok in line.split()[1:]]
        assert tokens.count("-0") == 63

    def test_family_files(self, tmp_path):
        argv = ["family", "--H", "0.25", "--d-list", "-0.5", "0", "2",
                "--rho-max", "3", "--n", "16", "--m", "12", "--out-dir", str(tmp_path)]
        assert run(argv) == EXIT_OK
        assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == PINNED_FAMILY
