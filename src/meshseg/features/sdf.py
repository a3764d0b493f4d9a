"""Shape diameter: local thickness from rays cast into the mesh.

Each face shoots a deterministic fan of rays from its centroid into a
cone around the inward normal; the nearest intersection along each ray
gives a thickness sample. A median-filtered mean makes the estimate
robust to rays escaping through holes or grazing long tunnels.

Nearest hits come from a bounding-volume hierarchy (median split on the
longest axis of the centroid bounds, at most LEAF_SIZE triangles per
leaf) stored as flat arrays. Rays walk it breadth-first as a batched
frontier of (ray, node) pairs, one slab axis at a time: a node is dropped
when the ray misses its box. Every leaf a ray reaches is collected, with
no cut at the ray's best hit so far (a median split puts the leaves at
one depth, so such a cut would almost never fire), and each chunk's
(ray, triangle) pairs run the Möller–Trumbore test in one batch. That
test works on per-axis component rows with exactly the arithmetic of an
all-pairs sweep (np.cross's products, einsum's summation order), and the
minimum over accepted pairs is taken without arithmetic, so the nearest
hits equal brute force bit for bit. That needs every hit Möller–Trumbore
accepts to lie inside its leaf's box, rounding included; each box is
therefore padded by BOX_PAD times the bounding-box diagonal, orders of
magnitude above the rounding error of a hit point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meshseg.mesh import Mesh

LEAF_SIZE = 8
BOX_PAD = 1e-9
# rays traced per batch; bounds the (ray, node), (ray, leaf) and
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

    v0: np.ndarray      # (3, F) first corner, one row per axis
    e1: np.ndarray      # (3, F) second corner - first
    e2: np.ndarray      # (3, F) third corner - first
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
    v0, v1, v2 = np.ascontiguousarray(corners.transpose(1, 2, 0))
    return TriangleBvh(
        v0=v0, e1=v1 - v0, e2=v2 - v0, lo=lo, hi=hi,
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
        o = np.ascontiguousarray(origins[sl].T)
        d = np.ascontiguousarray(dirs[sl].T)
        ray, leaf = _trace(bvh, o, d)
        _intersect_leaves(bvh, o, d, source[sl], eps, best[sl], ray, leaf)
    return best


def _trace(bvh, o, d):
    """Breadth-first frontier walk from (3, R) origin and direction rows;
    returns the (ray, leaf) pairs whose boxes the rays reach."""
    rays, leaves = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = 1.0 / d
        ray = np.arange(o.shape[1])
        node = np.zeros(len(ray), dtype=np.int64)
        while ray.size:
            # slab test one axis at a time; fmin/fmax skip the NaN of
            # 0 * inf on a zero direction component
            for ax in range(3):
                oo, inv = o[ax].take(ray), inv_d[ax].take(ray)
                t1 = bvh.lo[ax].take(node)
                t1 -= oo
                t1 *= inv
                t2 = bvh.hi[ax].take(node)
                t2 -= oo
                t2 *= inv
                tn = np.fmin(t1, t2)
                tf = np.fmax(t1, t2, out=t1)
                if ax == 0:
                    near, far = tn, tf
                else:
                    np.fmax(near, tn, out=near)
                    np.fmin(far, tf, out=far)
            live = (near <= far) & (far >= 0.0)
            ray, node = ray[live], node[live]
            kid = bvh.child.take(node)
            leaf = kid < 0
            rays.append(ray[leaf])
            leaves.append(node[leaf])
            inner = ~leaf
            ray = np.repeat(ray[inner], 2)
            node = (kid[inner, None] + np.array([0, 1])).ravel()
    return np.concatenate(rays), np.concatenate(leaves)


def _dot(x, y):
    """Row-wise 3-term dot product, summed in the order einsum("pk,pk->p")
    uses: (x0*y0 + x2*y2) + x1*y1."""
    r = x[0] * y[0]
    r += x[2] * y[2]
    r += x[1] * y[1]
    return r


def _cross(x, y):
    """Row-wise cross product in np.cross's arithmetic."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _intersect_leaves(bvh, o, d, src, eps, best, ray, leaf):
    """Möller–Trumbore on every (ray, triangle) pair of the given leaves;
    lowers best (a view) in place."""
    count = bvh.count[leaf]
    first = np.repeat(bvh.start[leaf] - (np.cumsum(count) - count), count)
    tri = bvh.order[first + np.arange(len(first))]
    ray = np.repeat(ray, count)
    other = tri != src[ray]
    ray, tri = ray[other], tri[other]
    dd = [d[k].take(ray) for k in range(3)]
    e1 = [bvh.e1[k].take(tri) for k in range(3)]
    e2 = [bvh.e2[k].take(tri) for k in range(3)]
    s = [o[k].take(ray) - bvh.v0[k].take(tri) for k in range(3)]
    h = _cross(dd, e2)
    q = _cross(s, e1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = _dot(e1, h)
        inv = 1.0 / a
        u = inv * _dot(s, h)
        w = inv * _dot(dd, q)
        t = inv * _dot(e2, q)
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
