import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg.mesh import (
    Mesh,
    MeshError,
    build_dual_graph,
    face_balls,
    load_mesh_path,
    save_off,
)
from meshseg.synth import icosphere
from shapes import cube, tetrahedron
from shapes import concave_corner, plane_grid

RIGHT_TRIANGLE_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def _load_text(tmp_path, text, ext="off"):
    """The mesh of the given file text, written to a file with extension ext."""
    path = tmp_path / f"mesh.{ext}"
    path.write_text(text)
    return load_mesh_path(path)


def test_off_right_triangle(tmp_path):
    mesh = _load_text(tmp_path, RIGHT_TRIANGLE_OFF)
    assert mesh.n_vertices == 3 and mesh.n_faces == 1
    assert mesh.face_areas == pytest.approx([0.5])
    assert mesh.face_normals[0] == pytest.approx([0.0, 0.0, 1.0])


def test_off_face_shortfall_names_missing_count(tmp_path):
    text = "OFF\n4 4 0\n" + "\n".join("0 0 %d" % i for i in range(4))
    text += "\n3 0 1 2\n3 0 1 3\n3 0 2 3\n"
    with pytest.raises(MeshError, match="expected 4 face"):
        _load_text(tmp_path, text)


def test_off_vertex_count_larger_than_the_file_fails_before_allocating(tmp_path):
    # 99,999,999,999 vertices would need 2.18 TiB
    text = RIGHT_TRIANGLE_OFF.replace("3 1 0", "99999999999 1 0")
    with pytest.raises(MeshError, match=rf"^{re.escape(str(tmp_path / 'mesh.off'))}: "
                                        r"line 2: expected 99999999999 vertices, "
                                        r"found 4 lines after the counts line$"):
        _load_text(tmp_path, text)


def test_off_face_count_larger_than_the_file_fails_before_allocating(tmp_path):
    text = RIGHT_TRIANGLE_OFF.replace("3 1 0", "3 99999999999 0")
    with pytest.raises(MeshError, match=rf"^{re.escape(str(tmp_path / 'mesh.off'))}: "
                                        r"line 2: expected 99999999999 faces, "
                                        r"found 1 lines after the vertices$"):
        _load_text(tmp_path, text)


def test_off_reports_line_numbers(tmp_path):
    bad = "OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n"
    with pytest.raises(MeshError, match="line 4"):
        _load_text(tmp_path, bad)


def test_obj_round_trip(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh_path(path)
    assert mesh.n_faces == 1
    assert mesh.face_areas == pytest.approx([0.5])


def test_obj_rejects_negative_indices(tmp_path):
    with pytest.raises(MeshError, match="negative"):
        _load_text(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 -2 -3\n", "obj")


def test_save_off_round_trips_bitwise(tmp_path):
    mesh = icosphere(1)
    path = tmp_path / "m.off"
    save_off(mesh, path)
    back = load_mesh_path(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_tetrahedron_dual_graph(tet, tet_graph):
    assert tet.n_faces == 4
    assert len(tet_graph.edges) == 6
    # every pair of faces of a tetrahedron shares an edge
    assert {tuple(e) for e in tet_graph.edges} == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_tetrahedron_dihedral_uniform_convex(tet_graph):
    # regular tetrahedron: adjacent outward normals meet at arccos(-1/3),
    # so the exterior dihedral is pi + arccos(-1/3) = 2*pi - arccos(1/3)
    expected = 2.0 * math.pi - math.acos(1.0 / 3.0)
    assert tet_graph.edge_dihedral == pytest.approx(
        np.full(6, expected), abs=1e-12)
    assert (tet_graph.edge_dihedral > math.pi).all()  # convex


def test_coplanar_pair_is_flat():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    faces = [[0, 1, 2], [1, 3, 2]]
    graph = build_dual_graph(Mesh(verts, faces))
    assert len(graph.edges) == 1
    assert graph.edge_dihedral[0] == pytest.approx(math.pi, abs=1e-12)


def test_concave_corner_dihedral():
    graph = build_dual_graph(concave_corner())
    # the fold between the two walls closes to a quarter turn
    assert graph.edge_dihedral.min() == pytest.approx(math.pi / 2, abs=1e-12)
    assert (graph.edge_dihedral <= math.pi + 1e-12).all()


def test_icosphere_edge_count(ico2):
    graph = build_dual_graph(ico2)
    assert len(graph.edges) == 3 * ico2.n_faces // 2


def test_edge_with_three_faces_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(MeshError, match="3 faces"):
        build_dual_graph(Mesh(verts, faces))


def _grid_off(bad_faces):
    """OFF text of plane_grid(3, 3) with some faces' indices replaced."""
    grid = plane_grid(3, 3)
    faces = grid.faces.tolist()
    for f, idx in bad_faces.items():
        faces[f] = idx
    return "\n".join(["OFF", f"{grid.n_vertices} {len(faces)} 0",
                      *(" ".join(map(str, v)) for v in grid.vertices),
                      *(f"3 {a} {b} {c}" for a, b, c in faces)]) + "\n"


def test_first_bad_face_is_reported_with_its_line(tmp_path):
    # face 3 is out of range and face 7 repeats an index: face 3 comes
    # first, on line 2 + 16 vertices + 4 = 22
    text = _grid_off({3: [0, 1, 99], 7: [4, 4, 5]})
    with pytest.raises(MeshError, match=r"line 22: face 3 references vertex "
                                        r"out of range \[0, 16\)"):
        _load_text(tmp_path, text)
    with pytest.raises(MeshError, match="line 22: face 3 repeats"):
        _load_text(tmp_path, _grid_off({3: [7, 7, 5], 7: [0, 1, 99]}))


def test_repeat_wins_over_range_within_one_face(tmp_path):
    with pytest.raises(MeshError, match="face 2 repeats a vertex index"):
        _load_text(tmp_path, _grid_off({2: [-1, -1, 3]}))
    with pytest.raises(MeshError, match="face 0 references vertex out of range"):
        Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, -1]])


def test_degenerate_face_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


def test_neighborhood_zero_hops(tet_graph):
    assert set(face_balls(tet_graph, 0)[2].indices) == {2}


def test_neighborhood_planar_interior():
    mesh = plane_grid(4, 4)
    graph = build_dual_graph(mesh)
    degree = np.bincount(graph.edges.ravel(), minlength=graph.n_faces)
    interior = np.nonzero(degree == 3)[0]
    assert interior.size
    u = int(interior[0])
    neighbors = {int(b if a == u else a) for a, b in graph.edges if u in (a, b)}
    ball = set(face_balls(graph, 1)[u].indices)
    assert ball == {u, *neighbors}
    assert len(ball) == 4


def test_neighborhood_tet_two_hops_covers_all(tet_graph):
    assert set(face_balls(tet_graph, 2)[0].indices) == {0, 1, 2, 3}


@settings(max_examples=25, deadline=None)
@given(u=st.integers(0, 79), k1=st.integers(0, 3), k2=st.integers(0, 3))
def test_neighborhood_monotone_in_hops(u, k1, k2):
    graph = build_dual_graph(icosphere(1))
    lo, hi = sorted((k1, k2))
    assert set(face_balls(graph, lo)[u].indices) <= set(face_balls(graph, hi)[u].indices)


@settings(max_examples=25, deadline=None)
@given(u=st.integers(0, 19), v=st.integers(0, 19), k=st.integers(0, 4))
def test_neighborhood_symmetric_membership(u, v, k):
    graph = build_dual_graph(icosphere(0))
    balls = face_balls(graph, k)
    assert (v in balls[u].indices) == (u in balls[v].indices)


def test_enclosed_volume_of_box():

    # synth cube spans [-1, 1]^3
    assert cube().enclosed_volume() == pytest.approx(8.0)


def test_writes_are_blocked(tet):
    with pytest.raises(ValueError):
        tet.vertices[0, 0] = 5.0


def test_dual_graph_stays_read_only_through_pickle(ico2):
    # feature worker processes send dual graphs back pickled
    graph = build_dual_graph(ico2)
    copy = pickle.loads(pickle.dumps(graph))
    for name in ("edges", "edge_dihedral"):
        assert np.array_equal(getattr(copy, name), getattr(graph, name))
        assert not getattr(copy, name).flags.writeable, name
    assert copy.n_faces == graph.n_faces
