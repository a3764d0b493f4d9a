import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import synth
from meshseg.mesh import Mesh, build_dual_graph
from meshseg.smoothing import taubin_smooth
from meshseg.features import geodesic, matrix, sdf
from meshseg.features.conformal import conformal_factor_field, vertex_to_face
from meshseg.features.curvature import (
    angle_deficits,
    barycentric_areas,
    corner_terms,
    curvature_field,
    target_curvature,
)
from meshseg.features.geodesic import average_geodesic_distance
from meshseg.features.matrix import DEFAULT_CHANNELS, compute_features, fit_stats, multiscale
from meshseg.features.sdf import (
    build_bvh,
    cone_directions,
    nearest_hits,
    robust_thickness,
    shape_diameter,
    tangent_frames,
)
import shapes
from conftest import random_small_mesh
from oracles import (
    agd_reference,
    feature_matrix_reference,
    sdf_ray_distances,
    sdf_robust_thickness,
)


# ---------------------------------------------------------------- curvature

def test_flat_interior_deficit_zero():
    grid = shapes.plane_grid(6, 6)
    deficits = curvature_field(grid).integrated_curvature
    interior = ~grid.boundary_vertices()
    assert interior.any()
    assert np.abs(deficits[interior]).max() < 1e-12


def test_cube_corner_deficit():
    cube = shapes.cube()
    field = curvature_field(cube)
    deficits = field.integrated_curvature
    # three flat quadrants meet at each corner: 2*pi - 3*pi/2
    assert deficits == pytest.approx(np.full(8, math.pi / 2), abs=1e-12)
    assert np.array_equal(deficits, angle_deficits(cube, corner_terms(cube)))
    areas = barycentric_areas(cube)
    assert field.gaussian_curvature == pytest.approx(deficits / areas, rel=1e-12)


def test_closed_surface_total_curvature():
    # sum of deficits = 2*pi*euler characteristic, = 4*pi on a sphere
    ico = synth.icosphere(2)
    field = curvature_field(ico)
    assert field.integrated_curvature.sum() == pytest.approx(4 * math.pi, abs=1e-6)
    areas = barycentric_areas(ico)
    assert (field.gaussian_curvature * areas).sum() == pytest.approx(4 * math.pi, abs=1e-6)


def test_vertex_without_faces_is_rejected():
    ico = synth.icosphere(0)
    loose = Mesh(np.vstack([ico.vertices, [[5.0, 5.0, 5.0]]]), ico.faces)
    with pytest.raises(ValueError, match="vertex 12 has an empty one-ring"):
        curvature_field(loose)


def test_icosahedron_target_equals_integrated():
    # all 12 vertices are equivalent, so redistribution is a no-op
    ico = synth.icosphere(0)
    field = curvature_field(ico)
    assert field.target_curvature == pytest.approx(field.integrated_curvature, rel=1e-12)


def test_target_conserves_total():
    rng = np.random.default_rng(3)
    mesh = shapes.bumpy_patch(7, 7, seed=5)
    curvature = curvature_field(mesh)
    target = curvature.target_curvature
    total = curvature.integrated_curvature.sum()
    assert abs(target.sum() - total) <= 1e-9 * max(1.0, abs(total))
    # redistribution also conserves an arbitrary vertex field
    field = rng.normal(size=mesh.n_vertices)
    areas = barycentric_areas(mesh)
    assert target_curvature(mesh, field, areas).sum() == pytest.approx(field.sum(),
                                                                      rel=1e-12)


def test_target_proportional_to_area():
    # two coplanar triangles sharing an edge, the second three times larger;
    # their exclusive vertices get target curvature in the same 3:1 ratio
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 2, 0]])
    mesh = Mesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))
    assert mesh.face_areas[1] == pytest.approx(3 * mesh.face_areas[0])
    target = curvature_field(mesh).target_curvature
    assert target[3] == pytest.approx(3 * target[0], rel=1e-12)


def test_curvature_field_bundles_smoothed_levels(ico2):
    levels = taubin_smooth(ico2, 3)
    field = curvature_field(ico2, levels)
    assert len(field.smoothed_target_curvature) == 3
    for level, target in zip(levels, field.smoothed_target_curvature):
        assert target == pytest.approx(target_curvature(
            level, angle_deficits(level, corner_terms(level)), barycentric_areas(level)))


def test_corner_terms_computed_once_per_mesh_and_level():
    # the mesh and its five smoothed levels, one call each, by whatever
    # name the caller reaches corner_terms
    code = corner_terms.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(profile)
    try:
        compute_features(synth.dumbbell(1))
    finally:
        sys.setprofile(None)
    assert len(calls) == 6


# ---------------------------------------------------------- conformal factor

def test_sphere_conformal_factor_near_zero():
    # a sphere already satisfies its own target curvature
    phi = conformal_factor_field(synth.icosphere(3)).original_cf
    assert np.abs(phi).max() < 1e-3


def test_conformal_factor_peaks_at_spike():
    spiked = shapes.spiked_sphere(2, spike=3.0)
    phi = conformal_factor_field(spiked).original_cf
    assert int(np.argmax(np.abs(phi))) == 0  # vertex 0 carries the spike


def test_conformal_factor_zero_mean():
    phi = conformal_factor_field(synth.dumbbell(1)).original_cf
    assert abs(phi.mean()) < 1e-10


def test_conformal_factor_translation_exact():
    # snap coordinates to a power-of-two grid; translating by integers is
    # then exact in floating point, so the outputs must match bitwise
    base = synth.icosphere(1)
    grid = math.ldexp(1.0, -20)
    verts = np.round(base.vertices / grid) * grid
    mesh_a = Mesh(verts, base.faces)
    mesh_b = Mesh(verts + np.array([3.0, -7.0, 11.0]), base.faces)
    assert np.array_equal(conformal_factor_field(mesh_a).original_cf,
                          conformal_factor_field(mesh_b).original_cf)


def test_conformal_factor_rotation_invariant(ico2):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = Mesh(ico2.vertices @ q.T, ico2.faces)
    diff = (conformal_factor_field(rotated).original_cf
            - conformal_factor_field(ico2).original_cf)
    assert np.abs(diff).max() < 1e-9


def test_conformal_factor_of_disjoint_copies_matches_each_copy():
    # two grid-snapped copies side by side, so translating the second is
    # exact: each component gets its own solve, and each half of the joint
    # factor equals the factor of one copy alone
    base = synth.dumbbell(1)
    grid = math.ldexp(1.0, -20)
    verts = np.round(base.vertices / grid) * grid
    n = len(verts)
    both = Mesh(np.vstack([verts, verts + np.array([8.0, 0.0, 0.0])]),
                np.vstack([base.faces, base.faces + n]))
    want = conformal_factor_field(Mesh(verts, base.faces)).original_cf
    phi = conformal_factor_field(both).original_cf
    for half in (phi[:n], phi[n:]):
        assert np.array_equal(half, want)
        assert abs(half.mean()) < 1e-10


_CF_HASH = """
import hashlib
import numpy as np
from meshseg import synth
from meshseg.features.conformal import conformal_factor_field
from meshseg.features.curvature import curvature_field
from meshseg.smoothing import taubin_smooth
mesh = synth.dumbbell(5)
levels = taubin_smooth(mesh)
field = conformal_factor_field(mesh, levels, curvature_field(mesh, levels))
print(hashlib.sha256(np.column_stack([field.original_cf, *field.smoothed_cf])
                     .tobytes()).hexdigest())
"""


def test_conformal_factor_bytes_do_not_depend_on_blas_threads():
    # BLAS reads its thread count once, at load: one process per count.
    # 10,242 vertices: OpenBLAS splits dot products this long across its
    # threads, which moved the CG iterates' last bits at 2 threads
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _CF_HASH], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        hashes.append(done.stdout)
    assert hashes[0] == hashes[1]


def test_conformal_factor_field_needs_a_target_per_level(ico2):
    levels = taubin_smooth(ico2, 2)
    with pytest.raises(ValueError):
        conformal_factor_field(ico2, levels, curvature_field(ico2, levels[:1]))


def test_smoothed_conformal_factor_sphere_small(ico2):
    # smoothing barely moves a sphere, so the residual factors stay tiny
    field = conformal_factor_field(ico2, taubin_smooth(ico2, 5))
    assert len(field.smoothed_cf) == 5
    phi0 = np.abs(field.original_cf).max()
    for phi_s in field.smoothed_cf:
        assert abs(phi_s.mean()) < 1e-10
        assert np.abs(phi_s).max() < 1e-3
        assert np.abs(phi_s).max() < phi0


@pytest.mark.parametrize("amplitude", [1.0, 2.0, 3.0])
def test_smoothing_shrinks_conformal_factor_on_spike(amplitude):
    mesh = shapes.spiked_sphere(2, spike=amplitude)
    field = conformal_factor_field(mesh, taubin_smooth(mesh, 1))
    before = np.abs(vertex_to_face(mesh, field.original_cf)).max()
    after = np.abs(vertex_to_face(mesh, field.smoothed_cf[0])).max()
    assert after < before


def test_vertex_to_face_corner_mean(tet):
    values = np.arange(float(tet.n_vertices))
    per_face = vertex_to_face(tet, values)
    expected = values[tet.faces].mean(axis=1)
    assert per_face == pytest.approx(expected, rel=1e-15)


# --------------------------------------------------------------------- agd

def test_agd_symmetric_solid(tet, tet_graph):
    # every face of a regular tetrahedron is equivalent: all values hit the max
    agd = average_geodesic_distance(tet, tet_graph)
    assert agd == pytest.approx(np.ones(4), rel=1e-12)


def test_agd_strip_center_min(strip5):
    # dual graph is the path 0-1-2-3-4: the middle face is closest to the
    # rest on average, the ends are farthest
    graph = build_dual_graph(strip5)
    agd = average_geodesic_distance(strip5, graph)
    assert int(np.argmin(agd)) == 2
    assert agd[0] > agd[1] and agd[4] > agd[3]
    assert agd.max() == 1.0


def test_agd_matches_all_pairs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mesh = random_small_mesh(rng)
        graph = build_dual_graph(mesh)
        got = average_geodesic_distance(mesh, graph)
        want = agd_reference(mesh, graph)
        assert np.array_equal(got, want)  # identical, not merely close


def test_agd_row_blocks_match_all_pairs_oracle(monkeypatch):
    # 320 faces span two 256-row blocks; a block of 7 rows splits the
    # small meshes, some of them disconnected, at many places
    mesh = synth.dumbbell(2)
    graph = build_dual_graph(mesh)
    assert graph.n_faces > geodesic.AGD_BLOCK
    assert np.array_equal(average_geodesic_distance(mesh, graph),
                          agd_reference(mesh, graph))
    monkeypatch.setattr(geodesic, "AGD_BLOCK", 7)
    rng = np.random.default_rng(23)
    for _ in range(5):
        mesh = random_small_mesh(rng)
        graph = build_dual_graph(mesh)
        assert np.array_equal(average_geodesic_distance(mesh, graph),
                              agd_reference(mesh, graph))


# --------------------------------------------------------------------- sdf

def _robust_mean(values):
    med = np.median(values)
    keep = np.abs(values - med) <= values.std()
    return values[keep].mean() if keep.any() else med


def _ray_directions(mesh, n_rays=30, half_angle=math.radians(60.0)):
    local = cone_directions(n_rays, half_angle)
    axis = -mesh.face_normals
    t1, t2 = tangent_frames(axis)
    return (local[None, :, 0, None] * t1[:, None, :]
            + local[None, :, 1, None] * t2[:, None, :]
            + local[None, :, 2, None] * axis[:, None, :])


def test_sdf_sphere_matches_chord_lengths(ico2):
    # oracle: exact chord of the unit sphere along each cast ray
    result = shape_diameter(ico2)
    dirs = _ray_directions(ico2)
    for f in range(ico2.n_faces):
        p = ico2.face_centroids[f]
        pd = dirs[f] @ p
        chords = -pd + np.sqrt(pd * pd + 1.0 - p @ p)
        assert result.raw[f] == pytest.approx(_robust_mean(chords), rel=0.05)
    assert result.fallback_faces.size == 0
    assert result.normalized.min() >= 0.0 and result.normalized.max() <= 1.0


def test_sdf_cylinder_side_matches_chord_lengths():
    # tall closed cylinder; side-face rays stay on the wall, where the
    # chord through an infinite unit cylinder is available in closed form
    cyl = shapes.cylinder(n_segments=48, radius=1.0, height=12.0)
    result = shape_diameter(cyl)
    assert result.fallback_faces.size == 0
    dirs = _ray_directions(cyl)
    side = np.nonzero(np.abs(cyl.face_normals[:, 2]) < 1e-9)[0]
    assert len(side) == 96
    for f in side:
        p = cyl.face_centroids[f]
        d = dirs[f]
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (p[0] * d[:, 0] + p[1] * d[:, 1])
        c = p[0] ** 2 + p[1] ** 2 - 1.0
        chords = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        assert result.raw[f] == pytest.approx(_robust_mean(chords), rel=0.02)


def test_sdf_open_surface_falls_back():
    grid = shapes.plane_grid(3, 3)
    result = shape_diameter(grid)
    assert np.array_equal(result.fallback_faces, np.arange(grid.n_faces))
    assert np.all(result.hit_counts == 0)
    assert np.all(result.raw == 0.0)
    assert np.all(result.normalized == 0.0)


def test_sdf_normalization_is_log_scaled(ico2):
    result = shape_diameter(ico2)
    raw = result.raw
    expected = np.log1p(4.0 * (raw - raw.min()) / (raw.max() - raw.min())) / math.log1p(4.0)
    assert result.normalized == pytest.approx(expected, rel=1e-12)
    assert result.normalized[np.argmin(raw)] == 0.0
    assert result.normalized[np.argmax(raw)] == 1.0


def _seeded_dumbbell(subdivisions, seed):
    rng = np.random.default_rng(seed)
    return synth.dumbbell(subdivisions, top=rng.uniform(0.9, 1.2),
                          bottom=rng.uniform(0.55, 0.8),
                          neck=rng.uniform(0.3, 0.42))


SDF_SHAPES = {
    **{f"dumbbell{sub}-seed{seed}": (lambda sub=sub, seed=seed:
                                     _seeded_dumbbell(sub, seed))
       for sub in (1, 2, 3) for seed in (0, 1, 2)},
    "icosphere2": lambda: synth.icosphere(2),
    "spiked_sphere": lambda: shapes.spiked_sphere(),
    "cylinder48": lambda: shapes.cylinder(48),
    "cube": shapes.cube,
    "tetrahedron": shapes.tetrahedron,
    "plane_grid3x3": lambda: shapes.plane_grid(3, 3),
    "concave_corner": shapes.concave_corner,
}


def _bvh_ray_distances(mesh, dirs, faces, eps):
    n_rays = dirs.shape[1]
    return nearest_hits(
        build_bvh(mesh), np.repeat(mesh.face_centroids[faces], n_rays, axis=0),
        dirs[faces].reshape(-1, 3), np.repeat(faces, n_rays),
        eps).reshape(len(faces), n_rays)


@pytest.mark.parametrize("name", sorted(SDF_SHAPES))
def test_sdf_bvh_equals_brute_force(name):
    mesh = SDF_SHAPES[name]()
    dirs = _ray_directions(mesh)
    eps = 1e-6 * mesh.bbox_diagonal()
    want = sdf_ray_distances(mesh, dirs, eps)
    got = _bvh_ray_distances(mesh, dirs, np.arange(mesh.n_faces), eps)
    assert np.array_equal(got, want)  # bit for bit, misses included

    raw, hits = sdf_robust_thickness(want)
    fallback = np.nonzero(hits == 0)[0]
    if fallback.size and fallback.size < mesh.n_faces:
        raw[fallback] = np.median(raw[hits > 0])
    result = shape_diameter(mesh)
    assert np.array_equal(result.raw, raw)
    assert np.array_equal(result.hit_counts, hits)
    assert np.array_equal(result.fallback_faces, fallback)


def test_sdf_bvh_equals_brute_force_at_5120_faces():
    # the paper's mesh scale: 64 seeded source faces against the all-pairs
    # sweep restricted to them
    mesh = synth.dumbbell(4)
    assert mesh.n_faces == 5120
    faces = np.sort(np.random.default_rng(64).choice(mesh.n_faces, 64,
                                                     replace=False))
    dirs = _ray_directions(mesh)
    eps = 1e-6 * mesh.bbox_diagonal()
    want = sdf_ray_distances(mesh, dirs, eps, faces)
    got = _bvh_ray_distances(mesh, dirs, faces, eps)
    assert np.isfinite(want).mean() > 0.9
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [lambda: synth.icosphere(2), shapes.cube])
def test_sdf_bvh_skips_the_source_face(make):
    # with no eps cut-off, a ray meets its own face at t ~ 0; only the
    # source-face rule keeps it out
    mesh = make()
    dirs = _ray_directions(mesh)
    faces = np.arange(mesh.n_faces)
    want = sdf_ray_distances(mesh, dirs, 0.0)
    assert want.min() > 1e-3
    assert np.array_equal(_bvh_ray_distances(mesh, dirs, faces, 0.0), want)


def test_sdf_bvh_axis_aligned_rays_on_the_cube():
    # every direction with exact zero components (the 6 axes and the 12
    # edge diagonals), cast from every face: inward along the normal,
    # grazing along the face plane and outward. Zero components give
    # infinite inverse directions and 0 * inf in the slab test.
    mesh = shapes.cube()
    axes = np.array([v for v in np.ndindex(3, 3, 3) if v != (1, 1, 1)
                     and sum(c != 1 for c in v) <= 2], dtype=float) - 1.0
    assert len(axes) == 18
    dirs = np.repeat((axes / np.linalg.norm(axes, axis=1)[:, None])[None],
                     mesh.n_faces, axis=0)
    eps = 1e-6 * mesh.bbox_diagonal()
    want = sdf_ray_distances(mesh, dirs, eps)
    got = _bvh_ray_distances(mesh, dirs, np.arange(mesh.n_faces), eps)
    assert np.array_equal(got, want)
    inward = [np.flatnonzero((axes == -n).all(axis=1))[0] for n in mesh.face_normals]
    assert np.array_equal(want[np.arange(mesh.n_faces), inward],
                          np.full(mesh.n_faces, 2.0))


def test_sdf_bvh_ray_chunk_does_not_change_hits(monkeypatch):
    mesh = synth.dumbbell(2)
    dirs = _ray_directions(mesh)
    eps = 1e-6 * mesh.bbox_diagonal()
    faces = np.arange(mesh.n_faces)
    want = _bvh_ray_distances(mesh, dirs, faces, eps)
    monkeypatch.setattr(sdf, "RAY_CHUNK", 7)
    assert np.array_equal(_bvh_ray_distances(mesh, dirs, faces, eps), want)
    assert np.isfinite(want).all()


class _GrowthSpy(sdf._Scratch):
    """Scratch that counts reallocations of arrays it already held."""

    regrown = []

    def __call__(self, name, shape, dtype=np.float64):
        held = self._arrays.get(name)
        view = super().__call__(name, shape, dtype)
        if held is not None and self._arrays[name] is not held:
            self.regrown.append(name)
        return view


def _pairs_per_ray(bvh, origins, dirs):
    ray, leaf = sdf._trace(bvh, np.ascontiguousarray(origins.T),
                           1.0 / np.ascontiguousarray(dirs.T), sdf._Scratch())
    return np.bincount(ray, weights=bvh.count[leaf], minlength=len(origins))


@pytest.mark.parametrize("ray_chunk, pair_chunk, grows",
                         [(1, 8192, True), (7, 8192, True), (256, 10**6, True),
                          (512, 1, False), (10**6, 8192, False), (10**6, 100, False)])
def test_sdf_scratch_reuse_across_chunks_equals_brute_force(monkeypatch, ray_chunk,
                                                            pair_chunk, grows):
    # 40 faces of dumbbell(2), each casting its fan outward and inward,
    # the rays sorted by how many (ray, triangle) pairs they reach (5 to
    # 70): the first batch needs the fewest, so with whole ray chunks as
    # batches a later one outgrows the scratch arrays the first sized
    mesh = synth.dumbbell(2)
    bvh = build_bvh(mesh)
    faces = np.sort(np.random.default_rng(40).choice(mesh.n_faces, 40, replace=False))
    inward = _ray_directions(mesh)
    dirs = np.concatenate([-inward, inward], axis=1)  # (F, 60, 3)
    eps = 1e-6 * mesh.bbox_diagonal()
    want = sdf_ray_distances(mesh, dirs, eps, faces).ravel()
    assert np.isfinite(want).mean() == 0.5  # every inward ray hits, no outward one

    origins = np.repeat(mesh.face_centroids[faces], 60, axis=0)
    flat_dirs = dirs[faces].reshape(-1, 3)
    with np.errstate(divide="ignore"):
        order = np.argsort(_pairs_per_ray(bvh, origins, flat_dirs), kind="stable")
    monkeypatch.setattr(sdf, "RAY_CHUNK", ray_chunk)
    monkeypatch.setattr(sdf, "PAIR_CHUNK", pair_chunk)
    monkeypatch.setattr(sdf, "_Scratch", _GrowthSpy)
    monkeypatch.setattr(_GrowthSpy, "regrown", [])
    got = np.empty(len(order))
    got[order] = nearest_hits(bvh, origins[order], flat_dirs[order],
                              np.repeat(faces, 60)[order], eps)
    assert np.array_equal(got, want)
    if grows:
        assert "vectors" in _GrowthSpy.regrown  # pair-sized arrays grew mid-call


def test_sdf_rays_that_reach_no_leaf_miss():
    # rays from outside the cube pointing away from it reach no box at all
    bvh = build_bvh(shapes.cube())
    origins = np.tile([10.0, 10.0, 10.0], (5, 1))
    dirs = np.tile([1.0, 0.0, 0.0], (5, 1))
    got = nearest_hits(bvh, origins, dirs, np.zeros(5, dtype=np.int64), 1e-9)
    assert np.array_equal(got, np.full(5, np.inf))


def test_sdf_concurrent_calls_equal_serial_calls():
    meshes = [_seeded_dumbbell(2, 1), synth.icosphere(3)]
    serial = [shape_diameter(m) for m in meshes]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(shape_diameter, meshes))
    for a, b in zip(serial, threaded):
        assert a.raw.tobytes() == b.raw.tobytes()
        assert a.normalized.tobytes() == b.normalized.tobytes()
        assert a.hit_counts.tobytes() == b.hit_counts.tobytes()


def test_sdf_warm_scratch_allocates_no_pair_sized_array(monkeypatch):
    # with 32-triangle leaves, one float row per (ray, triangle) pair is
    # about 20 times the size of a row per (ray, leaf) pair, so a gather
    # that allocates its output shows against the leaf-sized index work
    monkeypatch.setattr(sdf, "LEAF_SIZE", 32)
    mesh = synth.dumbbell(2)
    bvh = build_bvh(mesh)
    dirs = _ray_directions(mesh).reshape(-1, 3)[:512]
    origins = np.repeat(mesh.face_centroids, 30, axis=0)[:512]
    source = np.repeat(np.arange(mesh.n_faces), 30)[:512]
    eps = 1e-6 * mesh.bbox_diagonal()
    o, d = np.ascontiguousarray(origins.T), np.ascontiguousarray(dirs.T)
    scratch = sdf._Scratch()
    ray, leaf = sdf._trace(bvh, o, 1.0 / d, scratch)
    pairs = int(bvh.count[leaf].sum())
    assert pairs > 15 * len(leaf)
    best = np.full(512, np.inf)
    sdf._intersect_leaves(bvh, o, d, source, eps, best, ray, leaf, scratch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = np.full(512, np.inf)
        sdf._intersect_leaves(bvh, o, d, source, eps, again, ray, leaf, scratch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * pairs // 2
    assert np.array_equal(again, best)
    want = sdf_ray_distances(mesh, _ray_directions(mesh), eps).ravel()[:512]
    assert np.array_equal(best, want)


def test_robust_thickness_equals_per_face_loop():
    rng = np.random.default_rng(3)
    for miss_rate in (0.0, 0.2, 0.6, 0.95):
        # rounding to a coarse grid makes ties
        dist = np.round(rng.uniform(0.1, 2.0, size=(500, 30)), 1)
        dist[rng.random(dist.shape) < miss_rate] = np.inf
        dist[:3] = np.inf  # faces with no hits at all
        raw, hits = robust_thickness(dist)
        want_raw, want_hits = sdf_robust_thickness(dist)
        assert np.array_equal(raw, want_raw)
        assert np.array_equal(hits, want_hits)


def test_cone_directions_cover_the_cap():
    dirs = cone_directions(30, math.radians(60.0))
    assert dirs.shape == (30, 3)
    assert np.linalg.norm(dirs, axis=1) == pytest.approx(np.ones(30), rel=1e-12)
    assert dirs[:, 2].min() >= 0.5 - 1e-12  # nothing outside the cone
    assert dirs[:, 2].max() <= 1.0
    with pytest.raises(ValueError):
        cone_directions(0, 1.0)
    with pytest.raises(ValueError):
        cone_directions(4, math.pi)


# ----------------------------------------------------------- feature matrix

def test_default_channel_order():
    assert DEFAULT_CHANNELS == (
        "gaussian_curvature", "conformal_factor",
        "conformal_factor_s1", "conformal_factor_s2", "conformal_factor_s3",
        "conformal_factor_s4", "conformal_factor_s5",
        "agd", "sdf",
    )


def test_compute_features_shapes(ico2):
    values, fallback = compute_features(ico2)
    assert values.shape == (ico2.n_faces, len(DEFAULT_CHANNELS))
    assert np.isfinite(values).all()
    assert fallback.size == 0


def test_compute_features_reports_fallbacks():
    grid = shapes.plane_grid(3, 3)
    _, fallback = compute_features(grid)
    assert grid.n_faces == 18
    assert fallback.tolist() == list(range(grid.n_faces))


def test_non_finite_channel_is_named(tet, monkeypatch):
    def poisoned(mesh, graph):
        col = np.zeros(mesh.n_faces)
        col[2] = np.nan
        return col

    monkeypatch.setattr(matrix, "average_geodesic_distance", poisoned)
    with pytest.raises(FloatingPointError) as err:
        compute_features(tet)
    assert "'agd'" in str(err.value) and "face 2" in str(err.value)


@pytest.mark.parametrize("make", [lambda: synth.dumbbell(2),
                                  lambda: synth.icosphere(2)],
                         ids=["dumbbell(2)", "icosphere(2)"])
def test_compute_features_equals_per_extractor_assembly(make):
    mesh = make()
    got, _ = compute_features(mesh)
    names, values = feature_matrix_reference(mesh)
    assert names == DEFAULT_CHANNELS
    assert np.array_equal(got, values)


# ------------------------------------------------------------ normalization

def test_fit_stats_zscores_training_rows():
    rng = np.random.default_rng(0)
    values = rng.normal(loc=3.0, scale=2.0, size=(200, 4))
    stats = fit_stats(values)
    z = stats.apply(values)
    assert z.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
    assert z.std(axis=0) == pytest.approx(np.ones(4), rel=1e-12)


def test_fit_stats_constant_channel_maps_to_zero():
    values = np.column_stack([np.full(50, 7.5), np.arange(50.0)])
    stats = fit_stats(values)
    assert stats.scale[0] == 1.0
    assert np.all(stats.apply(values)[:, 0] == 0.0)


def test_training_stats_leave_test_rows_shifted():
    rng = np.random.default_rng(1)
    train = rng.normal(loc=0.0, size=(300, 1))
    test = rng.normal(loc=2.0, size=(300, 1))
    z = fit_stats(train).apply(test)
    assert abs(z.mean()) > 1.0  # test distribution is not re-centered


def test_fit_stats_rejects_empty():
    with pytest.raises(ValueError):
        fit_stats(np.zeros((0, 3)))


# --------------------------------------------------------------- multiscale

def _strip(n_faces):
    nx = (n_faces + 1) // 2 + 1
    verts = np.array([[x, y, 0.0] for x in range(nx) for y in (0, 1)])
    faces = []
    for i in range(n_faces):
        a = i + 1
        faces.append([i, a + 1, a] if i % 2 == 0 else [i, a, a + 1])
    return Mesh(verts, np.array(faces))


def test_multiscale_scale_one_is_identity(strip5):
    graph = build_dual_graph(strip5)
    values = np.arange(float(strip5.n_faces))[:, None]
    ms = multiscale(values, graph, scales=1)
    assert np.array_equal(ms[:, 0, :], values)


def test_multiscale_three_face_strip():
    mesh = _strip(3)
    graph = build_dual_graph(mesh)
    values = np.array([[1.0], [4.0], [7.0]])
    ms = multiscale(values, graph, scales=2)
    # middle face averages all three; the ends only reach their neighbor
    assert ms[:, 1, 0] == pytest.approx([2.5, 4.0, 5.5])
    assert ms[:, 0, 0] == pytest.approx([1.0, 4.0, 7.0])


def test_multiscale_constant_field(ico2):
    graph = build_dual_graph(ico2)
    values = np.full((ico2.n_faces, 2), 3.25)
    ms = multiscale(values, graph, scales=4)
    assert np.all(ms == 3.25)


def test_multiscale_scale_bounds(strip5):
    graph = build_dual_graph(strip5)
    assert multiscale(np.zeros((5, 1)), graph, scales=2).shape == (5, 2, 1)
    with pytest.raises(ValueError):
        multiscale(np.zeros((4, 1)), graph, scales=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_multiscale_is_linear(seed, a, b):
    mesh = _strip(6)
    graph = build_dual_graph(mesh)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(6, 2))
    g = rng.normal(size=(6, 2))
    lhs = multiscale(a * f + b * g, graph, scales=3)
    rhs = (a * multiscale(f, graph, scales=3)
           + b * multiscale(g, graph, scales=3))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_multiscale_commutes_with_affine_normalization(ico2):
    # z-scoring per channel then averaging equals averaging then z-scoring,
    # which lets cached raw multiscale values serve every train/test split
    graph = build_dual_graph(ico2)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(ico2.n_faces, 3)) * [1.0, 5.0, 0.2] + [0.0, -2.0, 9.0]
    stats = fit_stats(values)
    direct = multiscale(stats.apply(values), graph, scales=3)
    deferred = multiscale(values, graph, scales=3)
    deferred = (deferred - stats.mean) / stats.scale
    assert direct == pytest.approx(deferred, abs=1e-12)
