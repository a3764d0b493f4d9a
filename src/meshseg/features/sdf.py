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
one depth, so such a cut would almost never fire), and the (ray,
triangle) pairs of those leaves run the Möller–Trumbore test in batches. That
test works on per-axis component rows with exactly the arithmetic of an
all-pairs sweep (np.cross's products, einsum's summation order), and the
minimum over accepted pairs is taken without arithmetic, so the nearest
hits equal brute force bit for bit. That needs every hit Möller–Trumbore
accepts to lie inside its leaf's box, rounding included; each box is
therefore padded by BOX_PAD times the bounding-box diagonal, orders of
magnitude above the rounding error of a hit point.

shape_diameter walks the faces in batches of RAY_CHUNK // N_RAYS: each
batch builds its own ray fans, gathers its origins and source ids by face,
traces them and reduces its (faces, N_RAYS) distances to thicknesses, so
only per-face vectors grow with the mesh. Every hit is computed on its
own, so where a batch boundary falls cannot change a bit.

Every array the walk and the test fill, one entry per (ray, node) or per
(ray, triangle) pair, is a view of a scratch array that one shape_diameter
call allocates and reuses for all its batches: gathers write into it with
take(..., out=, mode="clip") and the arithmetic with ufunc out=. With a
fresh array per temporary, each batch's arrays went back to the operating
system when it ended and were paged in again by the next: SDF on 24
dumbbells of 320 faces took about 340k minor page faults and a third of
its time in the kernel. The scratch lives in one call and is never shared,
so feature threads stay independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meshseg.mesh import Mesh

LEAF_SIZE = 8
BOX_PAD = 1e-9
# rays per face and the half-angle of their cone about the inward normal;
# the normalization's log strength; the hit cutoff near the source, as a
# fraction of the bounding-box diagonal
N_RAYS = 30
CONE_HALF_ANGLE = math.radians(60.0)
ALPHA = 4.0
EPS_FACTOR = 1e-6
# rays per batch (whole faces of N_RAYS rays: 68 faces, 2040 rays), and
# (ray, triangle) pairs per Möller–Trumbore batch. They bound the working
# memory of a shape_diameter call whatever the mesh size: its scratch
# arrays page in 3.5-3.9 MB once, from 320 to 20,480 faces (a batch of
# rays reaches up to 13 frontier entries per ray at one level), within
# about 11 MB of address space that tracemalloc counts in full.
# Measured on 2 vCPUs (24 dumbbells of 320 faces on 2 threads;
# one of 20,480 faces), 2048 rays beat 512 and 1024 by making fewer numpy
# calls per ray at each level; 8192 pairs beat 4096 (more calls), and
# 16384 faulted in more pages per call for no clear gain.
RAY_CHUNK = 2048
PAIR_CHUNK = 8192


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
                 source: np.ndarray, eps: float, scratch: _Scratch) -> np.ndarray:
    """Distance to the nearest triangle along each ray, inf on a miss.

    A ray ignores its source triangle and hits closer than eps. The rays
    are traced as one batch, so the work arrays in scratch grow with their
    number; shape_diameter passes one batch of faces at a time.
    """
    best = np.full(len(origins), np.inf)
    o = np.ascontiguousarray(origins.T)
    d = np.ascontiguousarray(dirs.T)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    ray, leaf = _trace(bvh, o, inv_d, scratch)
    # Möller–Trumbore in batches of about PAIR_CHUNK (ray, triangle) pairs;
    # pairs[-1:].sum() is the batch's pair count, 0 with no leaf
    pairs = np.cumsum(bvh.count.take(leaf))
    cuts = np.searchsorted(pairs, np.arange(PAIR_CHUNK, pairs[-1:].sum(), PAIR_CHUNK),
                           side="right")
    for a, b in zip([0, *cuts], [*cuts, len(leaf)]):
        _intersect_leaves(bvh, o, d, source, eps, best, ray[a:b], leaf[a:b], scratch)
    return best


class _Scratch:
    """Work arrays of one shape_diameter call, reused by all its batches.

    scratch(name, (..., n), dtype) returns an array of that shape. It is a
    view of the array kept under name, which is reallocated only when a
    batch needs more than it holds, at 4 times the length asked: np.empty
    leaves the pages nothing writes unmapped, so spare length costs address
    space, not memory, and a frontier that widens level by level regrows,
    and pages in a fresh array, less often.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape, dtype=np.float64):
        *lead, n = shape
        arr = self._arrays.get(name)
        if arr is None or arr.shape[-1] < n:
            arr = self._arrays[name] = np.empty((*lead, 4 * n), dtype)
        return arr[..., :n]


def _trace(bvh, o, inv_d, scratch):
    """Breadth-first frontier walk from (3, R) origin and inverse direction
    rows; returns the (ray, leaf) pairs whose boxes the rays reach."""
    rays, leaves = [], []
    ray = np.arange(o.shape[1])
    node = np.zeros(len(ray), dtype=np.int64)
    level = 0
    with np.errstate(invalid="ignore"):
        while ray.size:
            m = len(ray)
            near, far, oo, inv, t1, t2 = scratch("slab", (6, m))
            # slab test one axis at a time; fmin/fmax skip the NaN of
            # 0 * inf on a zero direction component
            for ax in range(3):
                o[ax].take(ray, out=oo, mode="clip")
                inv_d[ax].take(ray, out=inv, mode="clip")
                bvh.lo[ax].take(node, out=t1, mode="clip")
                t1 -= oo
                t1 *= inv
                bvh.hi[ax].take(node, out=t2, mode="clip")
                t2 -= oo
                t2 *= inv
                if ax == 0:
                    np.fmin(t1, t2, out=near)
                    np.fmax(t1, t2, out=far)
                else:
                    np.fmax(near, np.fmin(t1, t2, out=oo), out=near)
                    np.fmin(far, np.fmax(t1, t2, out=oo), out=far)
            inner, leaf = scratch("node_masks", (2, m), bool)
            np.less_equal(near, far, out=inner)
            inner &= np.greater_equal(far, 0.0, out=leaf)  # live nodes so far
            kid = bvh.child.take(node, out=scratch("kid", (m,), np.int64), mode="clip")
            np.logical_and(inner, np.less(kid, 0, out=leaf), out=leaf)  # live leaves
            inner ^= leaf  # live inner nodes
            rays.append(ray[leaf])
            leaves.append(node[leaf])
            # both children of each live inner node, the two frontiers of
            # consecutive levels in separate scratch arrays
            ray_in, kid_in = ray[inner], kid[inner]
            level += 1
            ray, node = scratch(f"frontier{level % 2}", (2, 2 * len(ray_in)), np.int64)
            ray[0::2] = ray_in
            ray[1::2] = ray_in
            node[0::2] = kid_in
            np.add(kid_in, 1, out=node[1::2])
    return np.concatenate(rays), np.concatenate(leaves)


def _runs(first, count, step, out):
    """Fill out with back-to-back runs, run l being the count[l] values
    first[l], first[l] + step, first[l] + 2 * step, ... (np.repeat at step
    0, consecutive ids at step 1), as a running sum of per-entry steps."""
    out.fill(step)
    jump = first.copy()
    jump[1:] -= first[:-1] + step * (count[:-1] - 1)
    out[np.cumsum(count) - count] = jump
    np.cumsum(out, out=out)


def _dot(x, y, out, tmp):
    """Row-wise 3-term dot product into out, summed in the order
    einsum("pk,pk->p") uses: (x0*y0 + x2*y2) + x1*y1."""
    np.multiply(x[0], y[0], out=out)
    out += np.multiply(x[2], y[2], out=tmp)
    out += np.multiply(x[1], y[1], out=tmp)


def _cross(x, y, out, tmp):
    """Row-wise cross product into out, in np.cross's arithmetic."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(x[j], y[k], out=out[i])
        out[i] -= np.multiply(x[k], y[j], out=tmp)
    return out


def _intersect_leaves(bvh, o, d, src, eps, best, ray_l, leaf_l, scratch):
    """Möller–Trumbore on every (ray, triangle) pair of the given (ray,
    leaf) pairs; lowers best (a view) in place.

    Every pair-sized array is a scratch view, and every gather is a
    take(..., out=, mode="clip"): numpy buffers out under mode="raise".
    """
    count = bvh.count.take(leaf_l)
    n = int(count.sum())
    if n == 0:
        return
    ray, idx, tri = scratch("ids", (3, n), np.int64)
    _runs(ray_l, count, 0, ray)
    _runs(bvh.start.take(leaf_l), count, 1, idx)
    bvh.order.take(idx, out=tri, mode="clip")
    dd, e1, e2, s, h = scratch("vectors", (5, 3, n))
    a, u, w, t, tmp = scratch("scalars", (5, n))
    for k in range(3):
        d[k].take(ray, out=dd[k], mode="clip")
        bvh.e1[k].take(tri, out=e1[k], mode="clip")
        bvh.e2[k].take(tri, out=e2[k], mode="clip")
        o[k].take(ray, out=s[k], mode="clip")
        s[k] -= bvh.v0[k].take(tri, out=tmp, mode="clip")
    _cross(dd, e2, h, tmp)
    _dot(e1, h, a, tmp)
    _dot(s, h, u, tmp)
    q = _cross(s, e1, h, tmp)  # h is used up
    _dot(dd, q, w, tmp)
    _dot(e2, q, t, tmp)
    ok, test = scratch("pair_masks", (2, n), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(1.0, a, out=tmp)
        u *= inv  # u = inv * (s . h); IEEE products commute
        w *= inv
        t *= inv
        np.greater(np.abs(a, out=a), 1e-300, out=ok)
        ok &= np.greater_equal(u, 0.0, out=test)
        ok &= np.greater_equal(w, 0.0, out=test)
        ok &= np.less_equal(np.add(u, w, out=u), 1.0, out=test)
        ok &= np.greater_equal(t, eps, out=test)
    src_face = src.take(ray, out=idx, mode="clip")  # idx is used up
    ok &= np.not_equal(tri, src_face, out=test)
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


def shape_diameter(mesh: Mesh) -> SdfResult:
    """Robust per-face thickness plus its per-mesh log normalization.

    Rays ignore the source face and hits closer than EPS_FACTOR times the
    bounding-box diagonal. Faces whose rays all miss get the mesh median
    and are listed in fallback_faces.
    """
    nf = mesh.n_faces
    eps = EPS_FACTOR * mesh.bbox_diagonal()
    bvh = build_bvh(mesh)
    local = cone_directions(N_RAYS, CONE_HALF_ANGLE)
    axis = -mesh.face_normals
    t1, t2 = tangent_frames(axis)
    raw = np.empty(nf)
    hits = np.empty(nf, dtype=np.int64)
    scratch = _Scratch()  # one per call: concurrent calls never share it
    step = max(1, RAY_CHUNK // N_RAYS)
    for lo in range(0, nf, step):
        f = slice(lo, lo + step)
        # world-space ray directions of the batch's faces, (faces, rays, 3)
        dirs = (local[None, :, 0, None] * t1[f, None, :]
                + local[None, :, 1, None] * t2[f, None, :]
                + local[None, :, 2, None] * axis[f, None, :])
        source = np.repeat(np.arange(lo, min(lo + step, nf)), N_RAYS)
        dist = nearest_hits(bvh, mesh.face_centroids[source], dirs.reshape(-1, 3),
                            source, eps, scratch)
        raw[f], hits[f] = robust_thickness(dist.reshape(-1, N_RAYS))

    fallback = np.nonzero(hits == 0)[0]
    if fallback.size and fallback.size < nf:
        raw[fallback] = np.median(raw[hits > 0])

    span = float(raw.max() - raw.min())
    if span > 0.0:
        normalized = np.log1p(ALPHA * (raw - raw.min()) / span) / math.log1p(ALPHA)
    else:
        normalized = np.zeros(nf)
    return SdfResult(raw=raw, normalized=normalized,
                     fallback_faces=fallback, hit_counts=hits)
