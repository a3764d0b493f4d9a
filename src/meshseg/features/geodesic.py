"""Average geodesic distance over the face dual graph.

Path lengths use centroid-to-centroid edge weights snapped to a
power-of-two grid. On that grid every path sum is exact in double
precision, so shortest-path distances are independent of visit order and
algorithm; without it, Dijkstra and all-pairs algorithms disagree by ulps
depending on summation order.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from meshseg.mesh import DualGraph, Mesh

WEIGHT_GRID_BITS = 30
# bytes of float64 distances per dijkstra call: each call gets
# max(1, AGD_BLOCK_BYTES // (8 * F)) source rows, so the (rows, F) blocks
# it holds (the distances, dijkstra's working copy, the zeroed copy) stay
# near 1 MB each at every mesh size, never F x F
AGD_BLOCK_BYTES = 1 << 20


def quantize_weights(weights: np.ndarray, scale: float) -> np.ndarray:
    """Snap positive weights to multiples of scale * 2^-30 (at least one)."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    q = math.ldexp(1.0, math.floor(math.log2(scale)) - WEIGHT_GRID_BITS)
    return np.maximum(np.rint(weights / q), 1.0) * q


def agd_edge_weights(mesh: Mesh, graph: DualGraph) -> np.ndarray:
    """Quantized centroid distances for each dual edge."""
    if len(graph.edges) == 0:
        return np.zeros(0)
    c = mesh.face_centroids
    d = np.linalg.norm(c[graph.edges[:, 0]] - c[graph.edges[:, 1]], axis=1)
    return quantize_weights(d, max(mesh.bbox_diagonal(), 1e-300))


def average_geodesic_distance(mesh: Mesh, graph: DualGraph) -> np.ndarray:
    """Per-face mean shortest-path distance, scaled to [0, 1] by the max.

    On a disconnected dual graph the mean runs over the face's own
    component; the normalizing max is still global.
    """
    n = graph.n_faces
    if n == 0:
        return np.zeros(0)
    w = agd_edge_weights(mesh, graph)
    adj = sp.csr_matrix((w, (graph.edges[:, 0], graph.edges[:, 1])), shape=(n, n))
    adj = (adj + adj.T).tocsr()  # symmetric once, not per dijkstra call
    agd = np.empty(n)
    block = max(1, AGD_BLOCK_BYTES // (8 * n))
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        dist = dijkstra(adj, directed=True, indices=rows)
        finite = np.isfinite(dist)
        agd[rows] = np.where(finite, dist, 0.0).sum(axis=1) / finite.sum(axis=1)
    peak = float(agd.max())
    if peak <= 0.0:
        return np.zeros(n)
    return agd / peak
