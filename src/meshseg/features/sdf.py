"""Shape diameter: local thickness from rays cast into the mesh.

Each face shoots a deterministic fan of rays from its centroid into a
cone around the inward normal; the nearest intersection along each ray
gives a thickness sample. A median-filtered mean makes the estimate
robust to rays escaping through holes or grazing long tunnels.

Nearest hits come from a bounding-volume hierarchy (median split on the
longest axis of the centroid bounds, at most LEAF_SIZE triangles per
leaf) stored as flat arrays. Rays walk it breadth-first as a batched
frontier of (ray, node) pairs: a node is dropped when the ray misses its
box or enters it beyond the ray's best hit so far. Each surviving
(ray, triangle) pair runs the Möller–Trumbore test with exactly the
arithmetic of an all-pairs sweep, and the minimum over accepted pairs is
taken without arithmetic, so the nearest hits equal brute force bit for
bit. That needs every hit Möller–Trumbore accepts to lie inside its
leaf's box, rounding included; each box is therefore padded by
BOX_PAD times the bounding-box diagonal, orders of magnitude above the
rounding error of a hit point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meshseg.mesh import Mesh

LEAF_SIZE = 8
BOX_PAD = 1e-9
# rays traced per frontier batch; bounds the (ray, node) and
# (ray, triangle) arrays of one batch
RAY_CHUNK = 2048


@dataclass(frozen=True)
class SdfResult:
    raw: np.ndarray          # per-face thickness before normalization
    normalized: np.ndarray   # log-scaled to [0, 1] per mesh
    fallback_faces: np.ndarray  # faces with no ray hits, filled with the median
    hit_counts: np.ndarray


@dataclass(frozen=True)
class TriangleBvh:
    """Triangles in Möller–Trumbore form plus a flat-array hierarchy.

    Node 0 is the root. An inner node's children are child and child + 1;
    a leaf has child -1 and holds the triangles order[start:start + count].
    lo/hi are the padded boxes of each node's triangles.
    """

    v0: np.ndarray      # (F, 3) first corner
    e1: np.ndarray      # (F, 3) second corner - first
    e2: np.ndarray      # (F, 3) third corner - first
    lo: np.ndarray      # (3, N) box minima, one row per axis
    hi: np.ndarray      # (3, N) box maxima
    child: np.ndarray   # (N,)
    start: np.ndarray   # (N,)
    count: np.ndarray   # (N,)
    order: np.ndarray   # (F,) triangle ids, leaf by leaf


def cone_directions(n_rays: int, half_angle: float) -> np.ndarray:
    """Evenly spread unit vectors inside the cone of the given half-angle
    around +z: a golden-angle spiral over the spherical cap."""
    if n_rays < 1:
        raise ValueError("need at least one ray")
    if not 0.0 < half_angle <= math.pi / 2:
        raise ValueError("half-angle must be in (0, pi/2]")
    i = np.arange(n_rays)
    z = 1.0 - (1.0 - math.cos(half_angle)) * (i + 0.5) / n_rays
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def tangent_frames(axis: np.ndarray):
    """Orthonormal tangent pairs completing each unit axis vector."""
    helper = np.where(np.abs(axis[:, :1]) > 0.9,
                      np.tile([0.0, 1.0, 0.0], (len(axis), 1)),
                      np.tile([1.0, 0.0, 0.0], (len(axis), 1)))
    t1 = np.cross(axis, helper)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(axis, t1)


def build_bvh(mesh: Mesh) -> TriangleBvh:
    """Median-split hierarchy over the mesh's triangles."""
    corners = mesh.vertices[mesh.faces]                   # (F, 3, 3)
    tri_lo = corners.min(axis=1)
    tri_hi = corners.max(axis=1)
    centroids = mesh.face_centroids
    pad = BOX_PAD * mesh.bbox_diagonal()
    order = np.arange(mesh.n_faces)
    ranges = [(0, mesh.n_faces)]
    child = []
    i = 0
    while i < len(ranges):  # nodes are numbered breadth-first
        s, e = ranges[i]
        i += 1
        if e - s <= LEAF_SIZE:
            child.append(-1)
            continue
        ids = order[s:e]
        c = centroids[ids]
        axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        mid = (s + e) // 2
        order[s:e] = ids[np.argpartition(c[:, axis], mid - s)]
        child.append(len(ranges))
        ranges += [(s, mid), (mid, e)]
    bounds = np.array(ranges, dtype=np.int64)
    lo = np.array([tri_lo[order[s:e]].min(axis=0) for s, e in ranges]).T - pad
    hi = np.array([tri_hi[order[s:e]].max(axis=0) for s, e in ranges]).T + pad
    v0 = mesh.vertices[mesh.faces[:, 0]]
    return TriangleBvh(
        v0=v0, e1=mesh.vertices[mesh.faces[:, 1]] - v0,
        e2=mesh.vertices[mesh.faces[:, 2]] - v0, lo=lo, hi=hi,
        child=np.array(child, dtype=np.int64), start=bounds[:, 0],
        count=bounds[:, 1] - bounds[:, 0], order=order)


def nearest_hits(bvh: TriangleBvh, origins: np.ndarray, dirs: np.ndarray,
                 source: np.ndarray, eps: float) -> np.ndarray:
    """Distance to the nearest triangle along each ray, inf on a miss.

    A ray ignores its source triangle and hits closer than eps.
    """
    best = np.full(len(origins), np.inf)
    for lo in range(0, len(origins), RAY_CHUNK):
        sl = slice(lo, lo + RAY_CHUNK)
        _trace(bvh, origins[sl], dirs[sl], source[sl], eps, best[sl])
    return best


def _trace(bvh, o, d, src, eps, best):
    """Breadth-first frontier walk; lowers best (a view) in place."""
    with np.errstate(divide="ignore", invalid="ignore"):
        o_axes = np.ascontiguousarray(o.T)
        inv_axes = 1.0 / np.ascontiguousarray(d.T)
        ray = np.arange(len(o))
        node = np.zeros(len(o), dtype=np.int64)
        while ray.size:
            # slab test, one coordinate axis per row; fmin/fmax skip the
            # NaN of 0 * inf on a zero direction component. A box entered
            # beyond the ray's best hit so far holds no nearer hit.
            oo, inv = o_axes[:, ray], inv_axes[:, ray]
            t1 = (bvh.lo[:, node] - oo) * inv
            t2 = (bvh.hi[:, node] - oo) * inv
            tn = np.fmin(t1, t2)
            tf = np.fmax(t1, t2)
            near = np.fmax(np.fmax(tn[0], tn[1]), tn[2])
            far = np.fmin(np.fmin(tf[0], tf[1]), tf[2])
            live = (near <= far) & (far >= 0.0) & (near <= best[ray])
            ray, node = ray[live], node[live]
            kid = bvh.child[node]
            leaf = kid < 0
            _intersect_leaves(bvh, o, d, src, eps, best, ray[leaf], node[leaf])
            inner = ~leaf
            ray = np.repeat(ray[inner], 2)
            node = (kid[inner, None] + np.array([0, 1])).ravel()


def _intersect_leaves(bvh, o, d, src, eps, best, ray, node):
    """Möller–Trumbore on every (ray, triangle) pair of the given leaves."""
    count = bvh.count[node]
    first = np.repeat(bvh.start[node] - (np.cumsum(count) - count), count)
    tri = bvh.order[first + np.arange(len(first))]
    ray = np.repeat(ray, count)
    own = tri == src[ray]
    ray, tri = ray[~own], tri[~own]
    dd = d[ray]
    e1, e2 = bvh.e1[tri], bvh.e2[tri]
    h = np.cross(dd, e2)
    a = np.einsum("pk,pk->p", e1, h)
    s = o[ray] - bvh.v0[tri]
    q = np.cross(s, e1)
    inv = 1.0 / a
    u = inv * np.einsum("pk,pk->p", s, h)
    w = inv * np.einsum("pk,pk->p", dd, q)
    t = inv * np.einsum("pk,pk->p", e2, q)
    ok = ((np.abs(a) > 1e-300) & (u >= 0.0) & (w >= 0.0)
          & (u + w <= 1.0) & (t >= eps))
    np.minimum.at(best, ray[ok], t[ok])


def robust_thickness(dist: np.ndarray):
    """(raw, hit counts) from per-face, per-ray hit distances (inf = miss).

    A face's thickness is the mean of its hits within one standard
    deviation of their median, or the median if none is. Faces are
    grouped by hit count, and then by kept count, so each group reduces
    as one (faces, k) array in ray order.
    """
    finite = np.isfinite(dist)
    hits = finite.sum(axis=1)
    med = np.zeros(len(dist))
    sd = np.zeros(len(dist))
    for k in np.unique(hits[hits > 0]):
        rows = np.nonzero(hits == k)[0]
        vals = dist[rows][finite[rows]].reshape(-1, k)
        med[rows] = np.median(vals, axis=1)
        sd[rows] = vals.std(axis=1)
    keep = np.abs(dist - med[:, None]) <= sd[:, None]  # a miss is never kept
    kept = keep.sum(axis=1)
    raw = med
    for m in np.unique(kept[kept > 0]):
        rows = np.nonzero(kept == m)[0]
        raw[rows] = dist[rows][keep[rows]].reshape(-1, m).mean(axis=1)
    return raw, hits


def shape_diameter(mesh: Mesh, n_rays: int = 30,
                   cone_half_angle: float = math.radians(60.0),
                   alpha: float = 4.0, eps_factor: float = 1e-6) -> SdfResult:
    """Robust per-face thickness plus its per-mesh log normalization.

    Rays ignore the source face and hits closer than eps_factor times the
    bounding-box diagonal. Faces whose rays all miss get the mesh median
    and are listed in fallback_faces.
    """
    nf = mesh.n_faces
    eps = eps_factor * mesh.bbox_diagonal()

    local = cone_directions(n_rays, cone_half_angle)
    axis = -mesh.face_normals
    t1, t2 = tangent_frames(axis)
    # world-space ray directions, (faces, rays, 3)
    dirs = (local[None, :, 0, None] * t1[:, None, :]
            + local[None, :, 1, None] * t2[:, None, :]
            + local[None, :, 2, None] * axis[:, None, :])
    dist = nearest_hits(build_bvh(mesh),
                        np.repeat(mesh.face_centroids, n_rays, axis=0),
                        dirs.reshape(-1, 3), np.repeat(np.arange(nf), n_rays),
                        eps).reshape(nf, n_rays)
    raw, hits = robust_thickness(dist)

    fallback = np.nonzero(hits == 0)[0]
    if fallback.size and fallback.size < nf:
        raw[fallback] = np.median(raw[hits > 0])

    span = float(raw.max() - raw.min())
    if span > 0.0:
        normalized = np.log1p(alpha * (raw - raw.min()) / span) / math.log1p(alpha)
    else:
        normalized = np.zeros(nf)
    return SdfResult(raw=raw, normalized=normalized,
                     fallback_faces=fallback, hit_counts=hits)
