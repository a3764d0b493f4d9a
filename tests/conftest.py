import math
import struct
import tracemalloc

import numpy as np
import pytest

from meshseg.features.matrix import DEFAULT_CHANNELS
from meshseg.formats import FEATURE_MAGIC, FORMAT_VERSION, PROB_MAGIC
from meshseg.graphcut import GraphCutProblem
from meshseg.mesh import DualGraph, Mesh, build_dual_graph
from meshseg.synth import icosphere
from shapes import cube, tetrahedron


@pytest.fixture
def tet():
    return tetrahedron()


@pytest.fixture
def tet_graph(tet):
    return build_dual_graph(tet)


@pytest.fixture
def box():
    return cube()


@pytest.fixture(scope="session")
def ico2():
    return icosphere(2)


@pytest.fixture
def strip5():
    """Five-face triangle strip whose dual graph is a path 0-1-2-3-4."""
    verts = np.array([[x, y, 0.0] for x in range(4) for y in (0.0, 1.0)])
    faces = np.array([[0, 2, 1], [1, 2, 3], [2, 4, 3], [3, 4, 5], [4, 6, 5]])
    return Mesh(verts, faces)


def _text(s):
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def write_feature_cache(path, names, values, key):
    """A feature cache file of any channel names, packed field by field
    (`save_feature_cache` writes only the DEFAULT_CHANNELS): the names and
    the key as text, then the values as the tensor `features`."""
    values = np.ascontiguousarray(values, dtype="<f8")
    path.write_bytes(FEATURE_MAGIC + struct.pack("<I", FORMAT_VERSION)
                     + _text("\n".join(names)) + _text(key)
                     + _text("features") + struct.pack("<IQQ", 2, *values.shape)
                     + values.tobytes())


def version_one_feature_cache(values, key):
    """The bytes of a feature cache of the DEFAULT_CHANNELS as version 1
    laid it out: the names, a u64 face count, the key, then the values."""
    return (FEATURE_MAGIC + struct.pack("<I", 1) + _text("\n".join(DEFAULT_CHANNELS))
            + struct.pack("<Q", len(values)) + _text(key)
            + np.ascontiguousarray(values, dtype="<f8").tobytes())


def version_one_probabilities(probs):
    """The bytes of a probability grid as version 1 laid it out: a u64 face
    count, a u32 class count, then the values."""
    return (PROB_MAGIC + struct.pack("<IQI", 1, *probs.shape)
            + np.ascontiguousarray(probs, dtype="<f8").tobytes())


def same_mesh_in_other_files(off_path, out_dir):
    """(OBJ path, OFF path) of two files that store the mesh of the OFF
    file at off_path in other bytes: once as OBJ with the same vertex
    tokens, once as OFF behind an added comment line."""
    text = off_path.read_text()
    lines = text.splitlines()
    nv, nf = map(int, lines[1].split()[:2])
    obj = out_dir / f"{off_path.stem}.obj"
    obj.write_text("".join(f"v {ln}\n" for ln in lines[2:2 + nv])
                   + "".join("f " + " ".join(str(int(i) + 1) for i in ln.split()[1:4])
                             + "\n" for ln in lines[2 + nv:2 + nv + nf]))
    commented = out_dir / f"{off_path.stem}-commented.off"
    commented.write_text("# the same mesh, in other bytes\n" + text)
    return obj, commented


def random_small_mesh(rng, max_faces=50):
    """Jittered icosahedron patches for oracle comparisons."""
    base = icosphere(rng.integers(0, 2))
    verts = np.array(base.vertices) * (1.0 + 0.2 * rng.standard_normal(
        (base.n_vertices, 1)))
    if base.n_faces > max_faces:
        keep = np.sort(rng.choice(base.n_faces, size=max_faces, replace=False))
        faces = np.array(base.faces)[keep]
        used = np.unique(faces)
        remap = {int(v): i for i, v in enumerate(used)}
        verts = verts[used]
        faces = np.vectorize(remap.get)(faces)
    else:
        faces = np.array(base.faces)
    return Mesh(verts, faces)


def synthetic_graph(n_faces, edges, dihedrals):
    """Face-adjacency graph, built directly."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return DualGraph(
        n_faces=n_faces,
        edges=edges,
        edge_dihedral=np.asarray(dihedrals, dtype=np.float64),
    )


def random_problem(rng, max_faces=6, max_classes=3):
    """Small connected labeling instance for exhaustive-oracle comparison."""
    n = int(rng.integers(2, max_faces + 1))
    c = int(rng.integers(2, max_classes + 1))
    edges = {(u, u + 1) for u in range(n - 1)}  # spanning path keeps it connected
    for _ in range(n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    dihedrals = rng.uniform(0.3 * math.pi, 1.7 * math.pi, len(edges))
    probs = rng.dirichlet(np.ones(c), size=n)
    feature = rng.uniform(0.0, 1.0, n)
    graph = synthetic_graph(n, edges, dihedrals)
    return GraphCutProblem(graph, probs, feature,
                           lam=float(rng.uniform(0.0, 2.0)),
                           omega=float(rng.uniform(0.0, 2.0)))


def traced_peak_mb(call, *args):
    """Peak of the memory that tracemalloc sees allocated during one call,
    in MB (1e6 bytes); numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
