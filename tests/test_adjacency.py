"""Mesh adjacency against the loop oracles: the half-edge table behind the
dual graph, the boundary mask and the umbrella operator, and the sparse
ball operator behind multi-scale stacking."""
import numpy as np
import pytest

import oracles
from shapes import concave_corner, cube, cylinder, plane_grid, tetrahedron
from meshseg.features.matrix import multiscale
from meshseg.mesh import Mesh, MeshError, build_dual_graph, face_balls
from meshseg.smoothing import umbrella_operator
from meshseg.synth import dumbbell, icosphere

MESHES = {
    **{f"dumbbell({s})": (dumbbell, s) for s in range(1, 5)},
    "icosphere(2)": (icosphere, 2),
    "cube": (cube,),
    "tetrahedron": (tetrahedron,),
    "cylinder(48)": (cylinder, 48),
    "concave_corner": (concave_corner,),
    "plane_grid(3, 3)": (plane_grid, 3, 3),
    "no faces": (Mesh, np.eye(3), np.zeros((0, 3), dtype=np.int64)),
}


@pytest.fixture(scope="module", params=list(MESHES))
def mesh(request):
    make, *args = MESHES[request.param]
    return make(*args)


def test_dual_graph_equals_loop_oracle(mesh):
    graph = build_dual_graph(mesh)
    edges, dihedrals = oracles.dual_graph_loops(mesh)
    for got, want in ((graph.edges, edges), (graph.edge_dihedral, dihedrals)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_boundary_mask_equals_loop_oracle(mesh):
    assert np.array_equal(mesh.boundary_vertices(),
                          oracles.boundary_vertices_loops(mesh))


def test_umbrella_operator_equals_pair_set_oracle(mesh):
    got, want = umbrella_operator(mesh), oracles.umbrella_operator_pairs(mesh)
    for attr in ("indptr", "indices", "data"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_half_edge_table_is_read_only(mesh):
    for arr in (mesh.half_edges, mesh.edge_start):
        assert not arr.flags.writeable


def test_non_manifold_message_names_first_edge_in_sorted_order():
    # edges (0, 1) and (2, 3) are each shared by three faces; (0, 1) sorts first
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1], [0, -1, 0],
                      [1, 1, 1], [-1, 1, 0], [1, -1, 2]], dtype=float)
    faces = [[2, 3, 5], [0, 1, 2], [3, 2, 6], [0, 1, 3], [2, 3, 7], [1, 0, 4]]
    mesh = Mesh(verts, faces)
    with pytest.raises(MeshError) as want:
        oracles.dual_graph_loops(mesh)
    with pytest.raises(MeshError) as got:
        build_dual_graph(mesh)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "non-manifold mesh edge (0, 1) shared by 3 faces"


@pytest.mark.parametrize("hops", range(4))
def test_face_balls_equal_bfs_balls(mesh, hops):
    graph = build_dual_graph(mesh)
    balls = face_balls(graph, hops)
    assert balls.dtype == bool
    rows = [balls.indices[a:b].tolist() for a, b in zip(balls.indptr, balls.indptr[1:])]
    assert rows == oracles.bfs_balls(graph, hops)


def test_face_balls_reject_negative_hops(tet_graph):
    with pytest.raises(ValueError, match="nonnegative"):
        face_balls(tet_graph, -1)


def test_multiscale_equals_bfs_oracle(mesh):
    graph = build_dual_graph(mesh)
    values = np.random.default_rng(mesh.n_faces).normal(size=(mesh.n_faces, 3))
    got = multiscale(values, graph, scales=4)
    want = oracles.multiscale_bfs(values, graph, scales=4)
    assert np.abs(got - want).max(initial=0) <= 1e-15 * np.abs(want).max(initial=0)
