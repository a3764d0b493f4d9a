"""Triangle mesh loading, validation, derived geometry, and the face dual graph.

Meshes are immutable after construction (arrays are marked read-only) and
safe to share across threads. OFF and OBJ text formats are supported;
faces must be triangles and are validated at load with line numbers in
every parse error. Half-edges are paired once per mesh, in one sorted table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Invalid mesh data; `face` is the index of the face at fault, if one is."""

    def __init__(self, message: str, face: int | None = None):
        super().__init__(message)
        self.face = face


def _check_finite(vertices):
    if not np.isfinite(vertices).all():
        raise MeshError("non-finite vertex coordinate")


class Mesh:
    """Indexed triangle mesh with per-face derived geometry.

    Attributes
    ----------
    vertices : (V, 3) float64
    faces : (F, 3) int64
    face_areas : (F,) float64, strictly positive
    face_centroids : (F, 3) float64
    face_normals : (F, 3) float64, unit length
    half_edges : (3F, 3) int64, rows (i, j, face) with i < j, sorted
    edge_start : (E + 1,) int64, first half-edge row of each mesh edge
    """

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an array of 3D points")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must be vertex-index triples")
        _check_finite(vertices)
        nv = len(vertices)
        a, b, c = faces.T
        repeats = (a == b) | (b == c) | (a == c)
        bad = np.nonzero(repeats | ((faces < 0) | (faces >= nv)).any(axis=1))[0]
        if bad.size:  # the first bad face; a repeat wins within one face
            f = int(bad[0])
            if repeats[f]:
                raise MeshError(f"face {f} repeats a vertex index", f)
            raise MeshError(f"face {f} references vertex out of range [0, {nv})", f)

        self._set_geometry(vertices, faces)
        # undirected edge e owns half_edges[edge_start[e]:edge_start[e + 1]]
        nxt = np.roll(faces, -1, axis=1)
        half = np.column_stack([np.minimum(faces, nxt).ravel(), np.maximum(faces, nxt).ravel(),
                                np.repeat(np.arange(len(faces)), 3)])
        self.half_edges = half = half[np.lexsort(half.T[::-1])]
        new_edge = np.ones(len(half), dtype=bool)
        new_edge[1:] = (half[1:, :2] != half[:-1, :2]).any(axis=1)
        self.edge_start = np.append(np.nonzero(new_edge)[0], len(half))
        self._freeze()

    def with_vertices(self, vertices) -> Mesh:
        """This mesh's connectivity at new vertex positions. The faces and
        the half-edge table are shared, not rechecked or re-sorted; only
        the checks that depend on positions run (finite coordinates,
        degenerate faces)."""
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise MeshError(f"expected vertices of shape {self.vertices.shape}, "
                            f"got {vertices.shape}")
        _check_finite(vertices)
        mesh = object.__new__(Mesh)
        mesh._set_geometry(vertices, self.faces)
        mesh.half_edges, mesh.edge_start = self.half_edges, self.edge_start
        mesh._freeze()
        return mesh

    def _set_geometry(self, vertices, faces):
        """Set the vertices, faces and per-face geometry, rejecting
        degenerate faces."""
        e1 = vertices[faces[:, 1]] - vertices[faces[:, 0]]
        e2 = vertices[faces[:, 2]] - vertices[faces[:, 0]]
        cross = np.cross(e1, e2)
        cross_norm = np.linalg.norm(cross, axis=1)
        areas = 0.5 * cross_norm
        if len(vertices):
            bbox = vertices.max(axis=0) - vertices.min(axis=0)
            scale2 = max(float(bbox @ bbox), 1.0)
        else:
            scale2 = 1.0
        degenerate = np.nonzero(areas <= 1e-14 * scale2)[0]
        if degenerate.size:
            f = int(degenerate[0])
            raise MeshError(f"face {f} is degenerate (zero area)", f)

        self.vertices = vertices
        self.faces = faces
        self.face_areas = areas
        self.face_centroids = vertices[faces].mean(axis=1)
        self.face_normals = cross / cross_norm[:, None]

    def _freeze(self):
        for arr in (self.vertices, self.faces, self.face_areas,
                    self.face_centroids, self.face_normals,
                    self.half_edges, self.edge_start):
            arr.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def bbox_diagonal(self) -> float:
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(ext))

    def edges_with_faces(self, count: int) -> np.ndarray:
        """First half-edge row of each undirected edge in `count` faces."""
        return self.edge_start[:-1][np.diff(self.edge_start) == count]

    def boundary_vertices(self) -> np.ndarray:
        """Boolean mask of vertices lying on a boundary edge (1 incident face)."""
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.half_edges[self.edges_with_faces(1), :2]] = True
        return mask

    def enclosed_volume(self) -> float:
        """Signed volume via the divergence theorem (meaningful for closed meshes)."""
        v = self.vertices
        a, b, c = v[self.faces[:, 0]], v[self.faces[:, 1]], v[self.faces[:, 2]]
        return float(np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0)


@dataclass(frozen=True)
class DualGraph:
    """Face-adjacency graph: one node per face, one edge per interior mesh edge.

    edge_dihedral holds the exterior dihedral angle: pi on flat edges,
    below pi at concavities, above pi at convexities.
    """

    n_faces: int
    edges: np.ndarray          # (E, 2) int64, u < v
    edge_dihedral: np.ndarray  # (E,) float64, in (0, 2*pi)

    def __post_init__(self):
        for arr in (self.edges, self.edge_dihedral):
            arr.flags.writeable = False

    def __reduce__(self):
        # unpickle through __init__, so a graph sent back by a worker
        # process is read-only too
        return DualGraph, (self.n_faces, self.edges, self.edge_dihedral)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, one BLAS dot per row like a 1-D `a @ b`
    (einsum sums in another order and differs in the last bits)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def build_dual_graph(mesh: Mesh) -> DualGraph:
    """Build the face dual graph, rejecting edges shared by more than 2 faces.

    Concavity convention: with alpha the angle between the two outward face
    normals, an edge is concave when the opposite face's centroid lies on
    this face's outward-normal side; then dihedral = pi - alpha, else
    pi + alpha. Boundary mesh edges produce no dual edge. Dual edges come
    in the sorted (i, j) order of their mesh edges.
    """
    counts = np.diff(mesh.edge_start)
    if (counts > 2).any():
        e = np.argmax(counts > 2)  # the first offending edge
        i, j = mesh.half_edges[mesh.edge_start[e], :2]
        raise MeshError(f"non-manifold mesh edge ({i}, {j}) shared by {counts[e]} faces")
    rows = mesh.edges_with_faces(2)
    u, v = mesh.half_edges[rows, 2], mesh.half_edges[rows + 1, 2]
    nu, nv = mesh.face_normals[u], mesh.face_normals[v]
    cosang = np.clip(_row_dot(nu, nv), -1.0, 1.0)
    cross = np.cross(nu, nv)
    sinang = np.sqrt(_row_dot(cross, cross))
    # math.atan2, not np.arctan2: the two differ in the last bit on some edges
    alpha = np.fromiter(map(math.atan2, sinang.tolist(), cosang.tolist()),
                        dtype=np.float64, count=len(rows))  # in [0, pi]
    concave = _row_dot(mesh.face_centroids[v] - mesh.face_centroids[u], nu) > 0.0
    return DualGraph(
        n_faces=mesh.n_faces,
        edges=np.column_stack([u, v]),
        edge_dihedral=np.where(concave, math.pi - alpha, math.pi + alpha),
    )


def face_balls(graph: DualGraph, hops: int) -> sp.csr_matrix:
    """Boolean (F, F) matrix whose row u marks the faces within `hops`
    dual-graph steps of face u, u included: (I + A)^hops reachability,
    with each row's column indices in ascending order."""
    if hops < 0:
        raise ValueError("hops must be nonnegative")
    n = graph.n_faces
    adj = sp.csr_matrix((np.ones(len(graph.edges), dtype=bool), graph.edges.T), shape=(n, n))
    balls = sp.identity(n, dtype=bool, format="csr")
    step = balls + adj + adj.T
    for _ in range(hops):
        balls = balls @ step
    balls.sort_indices()
    return balls


# ---------------------------------------------------------------------------
# parsing


def _parse_floats(parts, n, lineno, what):
    if len(parts) < n:
        raise MeshError(f"line {lineno}: expected {n} numbers for {what}, found {len(parts)}")
    try:
        return [float(p) for p in parts[:n]]
    except ValueError as exc:
        raise MeshError(f"line {lineno}: malformed {what}: {exc}") from None


def _parse_off(lines: list[str]):
    content = [(idx + 1, ln.split("#", 1)[0].strip()) for idx, ln in enumerate(lines)]
    content = [(no, ln) for no, ln in content if ln]
    if not content:
        raise MeshError("line 1: empty OFF stream")
    no, ln = content[0]
    if ln.upper() != "OFF":
        raise MeshError(f"line {no}: missing OFF header, found {ln!r}")
    if len(content) < 2:
        raise MeshError(f"line {no}: missing counts line")
    no, ln = content[1]
    parts = ln.split()
    if len(parts) < 2:
        raise MeshError(f"line {no}: counts line needs vertex and face counts, found {ln!r}")
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshError(f"line {no}: malformed counts line {ln!r}") from None
    if nv < 0 or nf < 0:
        raise MeshError(f"line {no}: negative vertex or face count in counts line {ln!r}")
    # one line per record: counts the file cannot hold fail before allocating
    records = content[2:]
    if nv > len(records):
        raise MeshError(f"line {no}: expected {nv} vertices, found {len(records)} lines "
                        "after the counts line")
    if nf > len(records) - nv:
        raise MeshError(f"line {no}: expected {nf} faces, found {len(records) - nv} lines "
                        "after the vertices")

    verts = np.zeros((nv, 3))
    for k, (no, ln) in enumerate(records[:nv]):
        verts[k] = _parse_floats(ln.split(), 3, no, "vertex")

    faces = np.zeros((nf, 3), dtype=np.int64)
    face_lines = []
    for k, (no, ln) in enumerate(records[nv:nv + nf]):
        parts = ln.split()
        try:
            cnt = int(parts[0])
        except (ValueError, IndexError):
            raise MeshError(f"line {no}: malformed face record {ln!r}") from None
        if cnt != 3:
            raise MeshError(f"line {no}: only triangles are supported, face has {cnt} vertices")
        if len(parts) < 4:
            raise MeshError(f"line {no}: face record lists {len(parts) - 1} of 3 indices")
        try:
            faces[k] = [int(p) for p in parts[1:4]]
        except ValueError as exc:
            raise MeshError(f"line {no}: malformed face index: {exc}") from None
        face_lines.append(no)
    return verts, faces, face_lines


def _parse_obj(lines: list[str]):
    verts = []
    faces = []
    face_lines = []
    for idx, raw in enumerate(lines):
        lineno = idx + 1
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        tag = parts[0]
        if tag == "v":
            verts.append(_parse_floats(parts[1:], 3, lineno, "vertex"))
        elif tag == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise MeshError(f"line {lineno}: only triangles are supported, face has {len(refs)} vertices")
            idxs = []
            for r in refs:
                tok = r.split("/", 1)[0]
                try:
                    i = int(tok)
                except ValueError:
                    raise MeshError(f"line {lineno}: malformed face index {r!r}") from None
                if i < 0:
                    raise MeshError(f"line {lineno}: negative (relative) OBJ indices are unsupported")
                if i == 0:
                    raise MeshError(f"line {lineno}: OBJ indices are 1-based; 0 is invalid")
                idxs.append(i - 1)
            faces.append(idxs)
            face_lines.append(lineno)
        # vn/vt/o/g/s/usemtl/mtllib records carry no geometry we use
    if not verts:
        raise MeshError("line 1: no vertices in OBJ stream")
    return (np.array(verts, dtype=np.float64),
            np.array(faces, dtype=np.int64).reshape(-1, 3),
            face_lines)


def load_mesh_path(path) -> Mesh:
    """Load an OFF or OBJ triangle mesh, choosing the parser from the file
    extension.

    Raises MeshError, led by the path and then the line number where one is
    known, for malformed records, non-triangle faces, out-of-range indices,
    and degenerate (zero-area) faces.
    """
    p = Path(path)
    ext = p.suffix.lower()
    if ext not in (".off", ".obj"):
        raise ValueError(f"{path}: cannot infer mesh format from extension {p.suffix!r}")
    lines = p.read_bytes().decode("utf-8", errors="replace").splitlines()
    parse = _parse_off if ext == ".off" else _parse_obj
    try:
        verts, faces, face_lines = parse(lines)
        return Mesh(verts, faces)
    except MeshError as exc:  # a parse error has no face and names its line
        line = "" if exc.face is None else f"line {face_lines[exc.face]}: "
        exc.args = (f"{path}: {line}{exc}",)
        raise


def save_off(mesh: Mesh, path) -> None:
    """Write a mesh as an OFF file."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    # shortest round-trip decimal per coordinate
    lines += [f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in mesh.vertices]
    lines += [f"3 {int(f[0])} {int(f[1])} {int(f[2])}" for f in mesh.faces]
    Path(path).write_text("\n".join(lines) + "\n")
