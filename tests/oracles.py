"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (dense, exhaustive, loop-based) and
shares no code with the implementations under test.
"""
import itertools
import math

import numpy as np
import scipy.sparse as sp


def floyd_warshall(n: int, edges, weights) -> np.ndarray:
    """All-pairs shortest paths, dense O(n^3); edges undirected."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, weights):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def agd_reference(mesh, graph) -> np.ndarray:
    """AGD via Floyd–Warshall on the quantized dual-edge weights."""
    from meshseg.features.geodesic import agd_edge_weights

    w = agd_edge_weights(mesh, graph)
    d = floyd_warshall(graph.n_faces, graph.edges, w)
    finite = np.isfinite(d)
    raw = np.array([d[u][finite[u]].sum() / finite[u].sum()
                    for u in range(graph.n_faces)])
    top = raw.max()
    return raw / top if top > 0 else np.zeros_like(raw)


def sdf_ray_distances(mesh, dirs, eps, faces=None) -> np.ndarray:
    """Nearest hit along every ray of the given source faces, all-pairs.

    dirs: (F, R, 3) world-space ray directions from each face centroid;
    faces: optional source-face subset (default all). Every ray is tested
    against every triangle with Möller–Trumbore; a ray ignores its own
    face and hits closer than eps. Returns (len(faces), R), inf on a miss.
    """
    nf = mesh.n_faces
    faces = np.arange(nf) if faces is None else np.asarray(faces)
    n_rays = dirs.shape[1]
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    out = np.empty((len(faces), n_rays))
    step = max(1, 2_000_000 // max(n_rays * nf, 1))
    for lo in range(0, len(faces), step):
        src = faces[lo:lo + step]
        d = dirs[src]                                     # (S, R, 3)
        o = mesh.face_centroids[src]                      # (S, 3)
        h = np.cross(d[:, :, None, :], e2[None, None])    # (S, R, F, 3)
        a = np.einsum("fk,srfk->srf", e1, h)
        s = o[:, None, :] - v0[None, :, :]                # (S, F, 3)
        q = np.cross(s, e1[None])                         # (S, F, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / a
            u = inv * np.einsum("sfk,srfk->srf", s, h)
            w = inv * np.einsum("srk,sfk->srf", d, q)
            t = inv * np.einsum("fk,sfk->sf", e2, q)[:, None, :]
            ok = ((np.abs(a) > 1e-300) & (u >= 0.0) & (w >= 0.0)
                  & (u + w <= 1.0) & (t >= eps))
        ok &= np.arange(nf)[None, None, :] != src[:, None, None]
        out[lo:lo + step] = np.where(ok, t, np.inf).min(axis=2)
    return out


def sdf_robust_thickness(dist: np.ndarray):
    """(raw, hit counts) per face with a loop over faces: the mean of the
    hits within one std of their median, the median if none is, 0 for a
    face with no hits."""
    raw = np.zeros(len(dist))
    hits = np.zeros(len(dist), dtype=np.int64)
    for f, row in enumerate(dist):
        dlist = row[np.isfinite(row)]
        hits[f] = len(dlist)
        if len(dlist) == 0:
            continue
        med = np.median(dlist)
        keep = np.abs(dlist - med) <= dlist.std()
        raw[f] = dlist[keep].mean() if keep.any() else med
    return raw, hits


def exhaustive_min_cut(n: int, arcs, source: int, sink: int) -> float:
    """Minimum s-t cut by enumerating every source-side subset."""
    others = [v for v in range(n) if v not in (source, sink)]
    best = np.inf
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            s_side = {source, *subset}
            cut = sum(c for u, v, c in arcs if u in s_side and v not in s_side)
            best = min(best, cut)
    return float(best)


RESIDUAL_EPS = 1e-12


class DinicFlowNetwork:
    """Directed flow network with residual bookkeeping, on float
    capacities: the pure-Python Dinic that `meshseg.graphcut.FlowNetwork`
    replaced.

    add_edge inserts an arc and its reverse (default reverse capacity 0);
    max_flow runs Dinic's algorithm. Phases are bounded by the node count,
    so termination does not depend on capacities being integral.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        self.n_nodes = n_nodes
        # arc storage: to[i], cap[i]; arc i^1 is the reverse of arc i
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float, rev_cap: float = 0.0) -> None:
        if cap < 0.0 or rev_cap < 0.0:
            raise ValueError("capacities must be nonnegative")
        if not (math.isfinite(cap) and math.isfinite(rev_cap)):
            raise ValueError("capacities must be finite")
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(float(cap))
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(float(rev_cap))

    def _levels(self, source: int, sink: int):
        level = [-1] * self.n_nodes
        level[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for a in self.adj[u]:
                    v = self.to[a]
                    if level[v] < 0 and self.cap[a] > RESIDUAL_EPS:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level if level[sink] >= 0 else None

    def max_flow(self, source: int, sink: int) -> float:
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0.0
        while True:
            level = self._levels(source, sink)
            if level is None:
                return total
            it = [0] * self.n_nodes
            path: list[int] = []  # arcs of the current partial path
            u = source
            while True:
                if u == sink:
                    bottleneck = min(self.cap[a] for a in path)
                    total += bottleneck
                    for a in path:
                        self.cap[a] -= bottleneck
                        self.cap[a ^ 1] += bottleneck
                    # retreat to just before the first saturated arc (the
                    # bottleneck arc zeroes exactly, so one always exists)
                    first_sat = next(i for i, a in enumerate(path)
                                     if self.cap[a] <= RESIDUAL_EPS)
                    del path[first_sat:]
                    u = source if not path else self.to[path[-1]]
                    continue
                advanced = False
                while it[u] < len(self.adj[u]):
                    a = self.adj[u][it[u]]
                    v = self.to[a]
                    if self.cap[a] > RESIDUAL_EPS and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    if u == source:
                        break  # blocking flow complete for this phase
                    level[u] = -1  # dead end, prune from the level graph
                    u = self.to[path.pop() ^ 1]

    def source_side(self, source: int) -> np.ndarray:
        """Nodes reachable from the source in the residual graph; with the
        flow maximal, this is a minimum cut's source component."""
        seen = np.zeros(self.n_nodes, dtype=bool)
        seen[source] = True
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for a in self.adj[u]:
                    v = self.to[a]
                    if not seen[v] and self.cap[a] > RESIDUAL_EPS:
                        seen[v] = True
                        nxt.append(v)
            frontier = nxt
        return seen


def smoothness_cost(theta: float, f_u: float, f_v: float, omega: float) -> float:
    """Cost of letting the two faces across an edge keep different labels.

    Concave edges (theta < pi) are natural segment boundaries, yet under
    this term they are the expensive ones to disagree across unless the
    feature distance discounts them; flat and convex edges cost nothing.
    The result is clamped at zero so min-cut capacities stay valid.
    """
    angle = min(theta, math.pi)
    if angle <= 0.0:
        raise ValueError("dihedral angle must be positive")
    return max(0.0, -math.log(angle / math.pi) - omega * abs(f_u - f_v))


def edge_costs_loop(problem) -> np.ndarray:
    """lambda-scaled pairwise cost per dual edge, one edge at a time."""
    g = problem.graph
    out = np.zeros(len(g.edges))
    for e, (u, v) in enumerate(g.edges):
        out[e] = problem.lam * smoothness_cost(
            float(g.edge_dihedral[e]), float(problem.feature[u]),
            float(problem.feature[v]), problem.omega)
    return out


def expansion_move_dinic(problem, labels, alpha, data, pair) -> np.ndarray:
    """One expansion move built one arc at a time and cut by the float
    Dinic: each face not already labeled alpha chooses between keeping its
    label (source side) and switching (sink side)."""
    free = np.nonzero(labels != alpha)[0]
    if len(free) == 0:
        return labels
    node_of = -np.ones(problem.graph.n_faces, dtype=np.int64)
    node_of[free] = np.arange(len(free))
    source = len(free)
    sink = source + 1
    net = DinicFlowNetwork(len(free) + 2)

    t_link = np.zeros(len(free))  # extra cost of keeping the old label
    for i, u in enumerate(free):
        net.add_edge(source, int(i), float(data[u, alpha]))
        t_link[i] += float(data[u, labels[u]])

    for e, (u, v) in enumerate(problem.graph.edges):
        w = float(pair[e])
        if w == 0.0:
            continue
        u_free, v_free = labels[u] != alpha, labels[v] != alpha
        if u_free and v_free:
            if labels[u] == labels[v]:
                net.add_edge(int(node_of[u]), int(node_of[v]), w, w)
            else:
                # cost w unless both switch: w*[u keeps] + w*[u switches, v keeps]
                t_link[node_of[u]] += w
                net.add_edge(int(node_of[v]), int(node_of[u]), w)
        elif u_free:
            t_link[node_of[u]] += w  # v is already alpha
        elif v_free:
            t_link[node_of[v]] += w

    for i in range(len(free)):
        net.add_edge(int(i), sink, float(t_link[i]))

    net.max_flow(source, sink)
    keep = net.source_side(source)
    out = labels.copy()
    out[free[~keep[:len(free)]]] = alpha
    return out


def labeling_energy_reference(problem, labels) -> float:
    """Potts-style energy computed with plain loops from first principles."""
    probs = np.maximum(problem.probabilities, 1e-10)
    total = 0.0
    for u, l in enumerate(labels):
        total += -np.log(probs[u, l])
    g = problem.graph
    for e, (u, v) in enumerate(g.edges):
        if labels[u] == labels[v]:
            continue
        theta = min(g.edge_dihedral[e], np.pi)
        cost = -np.log(theta / np.pi) - problem.omega * abs(
            problem.feature[u] - problem.feature[v])
        total += problem.lam * max(0.0, cost)
    return float(total)


def exhaustive_best_labeling(problem, n_labels: int):
    """(labels, energy) minimizing the reference energy by enumeration."""
    n = problem.graph.n_faces
    best, best_labels = np.inf, None
    for assignment in itertools.product(range(n_labels), repeat=n):
        e = labeling_energy_reference(problem, assignment)
        if e < best:
            best, best_labels = e, np.array(assignment)
    return best_labels, best


def pca_svd(x: np.ndarray, k: int):
    """PCA by SVD of the centered data matrix: (mean, basis, variances).

    Variances follow the unbiased (n-1) covariance convention.
    """
    mean = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    var = s ** 2 / (len(x) - 1)
    return mean, vt[:k].T, var[:k]


def conv1d_loops(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded 1D convolution without bias, with explicit loops.

    x: (batch, length, cin); w: (k, cin, cout).
    """
    batch, length, cin = x.shape
    k, _, cout = w.shape
    half = k // 2
    out = np.zeros((batch, length, cout))
    for n in range(batch):
        for t in range(length):
            for j in range(k):
                src = t + j - half
                if 0 <= src < length:
                    out[n, t] += x[n, src] @ w[j]
    return out


def conv1d_backward_loops(x: np.ndarray, w: np.ndarray, grad: np.ndarray):
    """Gradients of conv1d_loops under upstream `grad`, one tap at a time
    over every tap, padding included.

    Returns (input gradient, weight gradient).
    """
    batch, length, cin = x.shape
    k = w.shape[0]
    half = k // 2
    xp = np.zeros((batch, length + 2 * half, cin))
    xp[:, half:half + length] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for j in range(k):
        gw[j] = np.einsum("blc,blo->co", xp[:, j:j + length], grad)
        gxp[:, j:j + length] += grad @ w[j].T
    return gxp[:, half:half + length], gw


def _conv1d_live_taps(k: int, length: int) -> tuple:
    """(first live tap, live tap count): tap j reads input index
    t + j - k//2, which is padding for every t when it is further than
    length - 1 from the centre."""
    lo = max(0, k // 2 - (length - 1))
    return lo, k - 2 * lo


def _conv1d_unfold(xp: np.ndarray, length: int, taps: int) -> np.ndarray:
    """im2col: read-only (b, length, taps, cin) windows over the padded
    signal, in the weight layout, unfolded to (b·length, taps·cin)."""
    b, _, cin = xp.shape
    s_batch, s_pos, s_chan = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (b, length, taps, cin), (s_batch, s_pos, s_pos, s_chan), writeable=False)
    return windows.reshape(b * length, taps * cin)


def _conv1d_pad(x: np.ndarray, taps: int) -> np.ndarray:
    b, length, cin = x.shape
    pad = taps // 2
    xp = np.zeros((b, length + 2 * pad, cin))
    xp[:, pad:pad + length] = x
    return xp


def conv1d_im2col_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conv1d_loops as one matmul of the unfolded, zero-padded signal
    against the live taps (Chellapilla et al. 2006): the form Conv1D took
    before its banded matmul."""
    b, length, cin = x.shape
    lo, taps = _conv1d_live_taps(w.shape[0], length)
    wl = w[lo:lo + taps].reshape(taps * cin, w.shape[2])
    y = _conv1d_unfold(_conv1d_pad(x, taps), length, taps) @ wl
    return y.reshape(b, length, w.shape[2])


def conv1d_im2col_backward(x: np.ndarray, w: np.ndarray, grad: np.ndarray):
    """Gradients of conv1d_im2col_forward: one weight-gradient matmul over
    the live taps, then col2im for the input gradient. Returns (input
    gradient, weight gradient); dead taps' gradients are exactly 0."""
    b, length, cin = x.shape
    k, _, cout = w.shape
    lo, taps = _conv1d_live_taps(k, length)
    xp = _conv1d_pad(x, taps)
    g2 = grad.reshape(b * length, cout)
    gw = np.zeros_like(w)
    gw[lo:lo + taps] = (_conv1d_unfold(xp, length, taps).T @ g2).reshape(taps, cin, cout)
    wl = w[lo:lo + taps].reshape(taps * cin, cout)
    dcols = (g2 @ wl.T).reshape(b, length, taps, cin)
    # col2im: each tap's column block lands on its shifted window
    gxp = np.zeros_like(xp)
    for j in range(taps):
        gxp[:, j:j + length] += dcols[:, :, j]
    pad = taps // 2
    return gxp[:, pad:pad + length], gw


def solve_zero_mean_dense(a_dense: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares route for the singular system, zero-mean gauge."""
    x, *_ = np.linalg.lstsq(a_dense, b - b.mean(), rcond=None)
    return x - x.mean()


def symmetric_fold(n: int, rows, cols, vals) -> sp.csr_matrix:
    """Full CSR of a symmetric matrix from (row, col, value) triplets,
    folded by hand: every entry moves to the upper triangle, duplicates
    are summed there, and each strict-upper entry is copied below."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    upper = sp.coo_matrix((vals, (np.minimum(rows, cols), np.maximum(rows, cols))),
                          shape=(n, n)).tocsr().tocoo()
    off = upper.row != upper.col
    return sp.coo_matrix(
        (np.concatenate([upper.data, upper.data[off]]),
         (np.concatenate([upper.row, upper.col[off]]),
          np.concatenate([upper.col, upper.row[off]]))),
        shape=(n, n)).tocsr()


def edge_face_map(mesh) -> dict:
    """Each undirected mesh edge (i < j) mapped to the faces containing it,
    in face order."""
    edges: dict = {}
    for f, (a, b, c) in enumerate(mesh.faces):
        for i, j in ((a, b), (b, c), (c, a)):
            key = (int(min(i, j)), int(max(i, j)))
            edges.setdefault(key, []).append(f)
    return edges


def boundary_vertices_loops(mesh) -> np.ndarray:
    """Vertices on a mesh edge with exactly one incident face."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    for (i, j), fs in edge_face_map(mesh).items():
        if len(fs) == 1:
            mask[i] = mask[j] = True
    return mask


def dual_graph_loops(mesh):
    """(edges, dihedrals) of the dual graph with scalar arithmetic
    per mesh edge, in sorted (i, j) order; a mesh edge in more than two
    faces raises the package's MeshError."""
    from meshseg.mesh import MeshError

    pairs, dihedrals = [], []
    for (i, j), fs in sorted(edge_face_map(mesh).items()):
        if len(fs) > 2:
            raise MeshError(f"non-manifold mesh edge ({i}, {j}) shared by {len(fs)} faces")
        if len(fs) != 2:
            continue
        u, v = min(fs), max(fs)
        nu, nv = mesh.face_normals[u], mesh.face_normals[v]
        cosang = float(np.clip(nu @ nv, -1.0, 1.0))
        sinang = float(np.linalg.norm(np.cross(nu, nv)))
        alpha = math.atan2(sinang, cosang)
        concave = float((mesh.face_centroids[v] - mesh.face_centroids[u]) @ nu) > 0.0
        pairs.append((u, v))
        dihedrals.append(math.pi - alpha if concave else math.pi + alpha)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(dihedrals)


def umbrella_operator_pairs(mesh) -> sp.csr_matrix:
    """Uniform-weight vertex Laplacian from a set of directed vertex pairs."""
    n = mesh.n_vertices
    pairs = set()
    for a, b, c in mesh.faces:
        for i, j in ((a, b), (b, c), (c, a)):
            pairs.add((int(i), int(j)))
            pairs.add((int(j), int(i)))
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    adj = sp.csr_matrix((inv[rows], (rows, cols)), shape=(n, n))
    return adj - sp.diags((deg > 0).astype(np.float64))


def bfs_balls(graph, hops: int) -> list:
    """Per face, the sorted faces within `hops` dual-graph steps, by BFS."""
    neighbors = [[] for _ in range(graph.n_faces)]
    for a, b in graph.edges.tolist():
        neighbors[a].append(b)
        neighbors[b].append(a)
    balls = []
    for u in range(graph.n_faces):
        seen, frontier = {u}, [u]
        for _ in range(hops):
            nxt = []
            for f in frontier:
                for g in neighbors[f]:
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
            frontier = nxt
        balls.append(sorted(seen))
    return balls


def multiscale_bfs(values: np.ndarray, graph, scales: int) -> np.ndarray:
    """(faces, scales, channels): scale k is the mean of each face's BFS
    ball of radius k - 1, taken over the ball in ascending face order."""
    out = np.zeros((len(values), scales, values.shape[1]))
    for k in range(scales):
        for u, ball in enumerate(bfs_balls(graph, k)):
            out[u, k] = values[ball].mean(axis=0)
    return out


def feature_matrix_reference(mesh):
    """(channel names, (faces, 9) values): one column per channel, each
    extractor called with the pipeline's settings spelled out (5 smoothing
    levels at 0.5/-0.53; SDF has fixed settings, 30 rays in a 60-degree
    cone, alpha 4), assembled column by column."""
    from meshseg.features.conformal import conformal_factor_field, vertex_to_face
    from meshseg.features.curvature import curvature_field
    from meshseg.features.geodesic import average_geodesic_distance
    from meshseg.features.sdf import shape_diameter
    from meshseg.mesh import build_dual_graph
    from meshseg.smoothing import taubin_smooth

    levels = taubin_smooth(mesh, 5, 0.5, -0.53)
    curvature = curvature_field(mesh, levels)
    conformal = conformal_factor_field(mesh, levels, curvature)
    columns = {
        "gaussian_curvature": vertex_to_face(mesh, curvature.gaussian_curvature),
        "conformal_factor": vertex_to_face(mesh, conformal.original_cf),
    }
    for level in range(5):
        columns[f"conformal_factor_s{level + 1}"] = vertex_to_face(
            mesh, conformal.smoothed_cf[level])
    columns["agd"] = average_geodesic_distance(mesh, build_dual_graph(mesh))
    columns["sdf"] = shape_diameter(mesh).normalized
    names = tuple(columns)
    return names, np.column_stack([np.asarray(columns[n], dtype=np.float64)
                                   for n in names])


# Layer kernels in their select-and-temporary forms. Each takes the layer
# as its first argument, so a test can patch it onto the layer class.

def leaky_relu_where_forward(layer, x, training=False):
    layer._mask = x > 0.0
    return np.where(layer._mask, x, layer.slope * x)


def leaky_relu_where_backward(layer, grad):
    return np.where(layer._mask, grad, layer.slope * grad)


def maxpool_where_forward(layer, x, training=False):
    b, length, c = x.shape
    half = length // 2
    if half == 0:
        raise ValueError("sequence too short to pool")
    pairs = x[:, :2 * half].reshape(b, half, 2, c)
    first, second = pairs[:, :, 0, :], pairs[:, :, 1, :]
    take_second = ~(first >= second) & (first == first)
    layer._cache = (take_second, x.shape)
    return np.where(take_second, second, first)


def maxpool_where_backward(layer, grad):
    take_second, shape = layer._cache
    b, length, c = shape
    half = length // 2
    gx = np.zeros(shape, dtype=grad.dtype)
    gpairs = gx[:, :2 * half].reshape(b, half, 2, c)
    gpairs[:, :, 0, :] = np.where(take_second, 0.0, grad)
    gpairs[:, :, 1, :] = np.where(take_second, grad, 0.0)
    return gx


def dropout_float_mask_forward(layer, x, training=False):
    """Dropout as one multiply by a float mask already divided by keep."""
    if not training or layer.rate == 0.0:
        layer._mask = np.ones((), dtype=x.dtype)
        return x
    keep = 1.0 - layer.rate
    layer._mask = ((layer.rng.random(x.shape) < keep) / keep).astype(x.dtype)
    return x * layer._mask


def dropout_float_mask_backward(layer, grad):
    return grad * layer._mask


def batchnorm_temporaries_forward(layer, x, training=False):
    """Batch norm as written out term by term, one fresh array per term."""
    axes = tuple(range(x.ndim - 1))
    if training:
        n = x.size // layer.channels
        mean = x.sum(axis=axes) / n
        dev = x - mean
        var = (dev * dev).sum(axis=axes) / n
        if layer.running_mean is None:
            layer.running_mean = mean.copy()
            layer.running_var = var.copy()
        else:
            m = layer.momentum
            layer.running_mean = m * layer.running_mean + (1.0 - m) * mean
            layer.running_var = m * layer.running_var + (1.0 - m) * var
    else:
        dev = x - layer.running_mean
        var = layer.running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = dev * inv_std
    layer._cache = (xhat, inv_std, axes, training)
    return layer.gamma.value * xhat + layer.beta.value


def batchnorm_temporaries_backward(layer, grad):
    xhat, inv_std, axes, training = layer._cache
    layer.gamma.grad += (grad * xhat).sum(axis=axes)
    layer.beta.grad += grad.sum(axis=axes)
    gxhat = grad * layer.gamma.value
    if not training:
        return gxhat * inv_std
    n = xhat.size // xhat.shape[-1]
    return (inv_std / n) * (
        n * gxhat - gxhat.sum(axis=axes) - xhat * (gxhat * xhat).sum(axis=axes))



def train_epoch_reference(model, x, pick_target, n, cfg, loss_fn, order, lr,
                          params, tag):
    """One epoch of momentum SGD that backpropagates every batch down to
    the network input; returns the mean batch loss. The signature is
    `meshseg.neural.training._epoch`'s."""
    total = 0.0
    starts = list(range(0, n, max(cfg.batch_size, 2)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for lo in starts:
        hi = n if lo == starts[-1] else lo + cfg.batch_size
        idx = order[lo:hi]
        loss, grad = loss_fn(model.forward(x[idx], training=True), pick_target(idx))
        if lr is not None:
            model.backward(grad)
            for p in params:
                p.velocity *= cfg.momentum
                p.velocity -= lr * p.grad
                p.value += p.velocity
                p.grad[...] = 0.0
        total += loss * (hi - lo)
    return total / n
