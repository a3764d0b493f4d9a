import numpy as np
import pytest

from meshseg.mesh import Mesh, MeshError
from meshseg.smoothing import taubin_smooth, umbrella_operator
from meshseg.synth import dumbbell, icosphere
from shapes import tetrahedron
from shapes import plane_grid, spiked_sphere


def laplacian_smooth(mesh, iterations, step=0.5):
    """Shrinking control: repeated plain umbrella steps, no inflate pass."""
    op = umbrella_operator(mesh)
    v = np.array(mesh.vertices)
    for _ in range(iterations):
        v = v + step * (op @ v)
    return Mesh(v, mesh.faces)


def vertex_rings_from_boundary(mesh):
    """Graph distance of every vertex from the boundary ring."""
    neigh = [set() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces:
        neigh[a] |= {b, c}
        neigh[b] |= {a, c}
        neigh[c] |= {a, b}
    dist = np.full(mesh.n_vertices, -1)
    frontier = list(np.nonzero(mesh.boundary_vertices())[0])
    dist[frontier] = 0
    d = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in neigh[v]:
                if dist[u] < 0:
                    dist[u] = d + 1
                    nxt.append(u)
        frontier, d = nxt, d + 1
    return dist


def test_planar_interior_is_fixed_point():
    # one iteration = two umbrella passes, so boundary motion reaches two
    # rings in; vertices deeper than that sit in flat symmetric stencils
    mesh = plane_grid(8, 8)
    levels = taubin_smooth(mesh, iterations=1)
    deep = vertex_rings_from_boundary(mesh) > 2
    assert deep.any()
    moved = np.abs(levels[-1].vertices - mesh.vertices)[deep]
    assert moved.max() < 1e-12


def test_volume_preserved_vs_laplacian_shrinkage():
    mesh = icosphere(3)
    vol0 = mesh.enclosed_volume()
    taubin = taubin_smooth(mesh, iterations=5)[-1]
    assert abs(taubin.enclosed_volume() - vol0) / vol0 <= 0.02
    shrunk = laplacian_smooth(mesh, 5)
    assert (vol0 - shrunk.enclosed_volume()) / vol0 > 0.05


def test_spike_height_decreases():
    mesh = spiked_sphere(2, spike=3.0)
    radial = np.linalg.norm(mesh.vertices, axis=1)
    before = radial.max() - 1.0
    one = taubin_smooth(mesh, iterations=1)[0]
    after = np.linalg.norm(one.vertices, axis=1).max() - 1.0
    assert after < before


def test_levels_are_cumulative():
    mesh = icosphere(1)
    levels = taubin_smooth(mesh, iterations=5)
    assert len(levels) == 5
    # level i equals one more iteration applied to level i-1
    again = taubin_smooth(levels[1], iterations=1)[0]
    assert levels[2].vertices == pytest.approx(again.vertices, abs=1e-12)
    for lvl in levels:
        assert np.array_equal(lvl.faces, mesh.faces)


def test_levels_share_the_base_topology():
    mesh = dumbbell(2)
    for lvl in taubin_smooth(mesh, iterations=5):
        assert lvl.faces is mesh.faces
        assert lvl.half_edges is mesh.half_edges
        assert lvl.edge_start is mesh.edge_start
        fresh = Mesh(lvl.vertices, mesh.faces)
        for name in ("vertices", "faces", "face_areas", "face_centroids",
                     "face_normals", "half_edges", "edge_start"):
            assert getattr(lvl, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert not getattr(lvl, name).flags.writeable, name


def test_level_that_degenerates_raises():
    # shrinking a tetrahedron by lambda = 3/4 moves every vertex onto the
    # centroid: all four faces of the first level have zero area
    with pytest.raises(MeshError, match="face 0 is degenerate"):
        taubin_smooth(tetrahedron(), iterations=1, lambda_shrink=0.75, mu_inflate=-0.8)


def test_with_vertices_checks_positions():
    mesh = tetrahedron()
    bad = np.array(mesh.vertices)
    bad[2, 1] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        mesh.with_vertices(bad)
    with pytest.raises(MeshError, match="shape"):
        mesh.with_vertices(mesh.vertices[:3])
    merged = np.array(mesh.vertices)
    merged[3] = merged[0]  # faces holding both vertices lose their area
    with pytest.raises(MeshError, match="degenerate"):
        mesh.with_vertices(merged)


def test_parameter_precondition():
    mesh = icosphere(0)
    with pytest.raises(ValueError, match="0 < lambda < -mu"):
        taubin_smooth(mesh, lambda_shrink=0.6, mu_inflate=-0.5)
    with pytest.raises(ValueError, match="0 < lambda < -mu"):
        taubin_smooth(mesh, lambda_shrink=0.5, mu_inflate=0.0)
    with pytest.raises(ValueError):
        taubin_smooth(mesh, iterations=0)


def test_umbrella_row_semantics():
    mesh = plane_grid(3, 3)
    op = umbrella_operator(mesh)
    x = np.array(mesh.vertices[:, 0])
    out = op @ x
    # rows compute mean-of-neighbors minus self
    neigh = {v: set() for v in range(mesh.n_vertices)}
    for face in mesh.faces:
        for i in face:
            neigh[int(i)].update(int(j) for j in face if j != i)
    for v in range(mesh.n_vertices):
        expected = np.mean([x[u] for u in sorted(neigh[v])]) - x[v]
        assert out[v] == pytest.approx(expected, abs=1e-12)
