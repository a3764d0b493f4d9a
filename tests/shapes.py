"""Small meshes that only the tests use: a regular tetrahedron, a cube,
a flat and a noisy grid, a closed cylinder, a concave corner and a sphere
with one spike."""
import math

import numpy as np

from meshseg.mesh import Mesh
from meshseg.synth import icosphere


def tetrahedron() -> Mesh:
    """Regular tetrahedron centered at the origin, outward orientation."""
    v = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    f = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    return Mesh(v, f)


def cube() -> Mesh:
    """Axis-aligned cube [-1, 1]^3, 12 outward-oriented triangles."""
    v = np.array([
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ])
    f = [
        [0, 2, 1], [0, 3, 2],  # z = -1
        [4, 5, 6], [4, 6, 7],  # z = +1
        [0, 1, 5], [0, 5, 4],  # y = -1
        [2, 3, 7], [2, 7, 6],  # y = +1
        [1, 2, 6], [1, 6, 5],  # x = +1
        [3, 0, 4], [3, 4, 7],  # x = -1
    ]
    return Mesh(v, f)


def plane_grid(nx: int = 4, ny: int = 4, size: float = 1.0) -> Mesh:
    """Open rectangular grid on z=0 with nx*ny cells, 2 triangles each."""
    xs = np.linspace(0.0, size, nx + 1)
    ys = np.linspace(0.0, size, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    f = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = a + (ny + 1)
            f += [[a, b, b + 1], [a, b + 1, a + 1]]
    return Mesh(v, f)


def cylinder(n_segments: int = 24, radius: float = 0.5, height: float = 2.0) -> Mesh:
    """Closed cylinder along z, capped with triangle fans about axis points."""
    if n_segments < 3:
        raise ValueError("need at least 3 segments")
    ang = 2.0 * math.pi * np.arange(n_segments) / n_segments
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    lo = np.column_stack([ring, np.full(n_segments, -height / 2.0)])
    hi = np.column_stack([ring, np.full(n_segments, height / 2.0)])
    v = np.vstack([lo, hi, [[0.0, 0.0, -height / 2.0]], [[0.0, 0.0, height / 2.0]]])
    cb, ct = 2 * n_segments, 2 * n_segments + 1
    f = []
    for i in range(n_segments):
        j = (i + 1) % n_segments
        f += [[i, j, n_segments + i], [j, n_segments + j, n_segments + i]]
        f += [[cb, j, i], [ct, n_segments + i, n_segments + j]]
    return Mesh(v, f)


def bumpy_patch(nx: int, ny: int, seed: int, amplitude: float = 0.15) -> Mesh:
    """Plane grid with seeded vertical noise; breaks all coplanarity ties."""
    base = plane_grid(nx, ny)
    rng = np.random.default_rng(seed)
    v = np.array(base.vertices)
    v[:, 2] += amplitude * rng.standard_normal(len(v))
    return Mesh(v, base.faces)


def concave_corner() -> Mesh:
    """Floor plate plus a perpendicular wall sharing one edge.

    The dual edge between faces 1 and 2 crosses the 90-degree inside corner;
    its exterior dihedral is exactly pi/2.
    """
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
        [1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
    ])
    f = [[0, 1, 2], [0, 2, 3], [3, 2, 4], [3, 4, 5]]
    return Mesh(v, f)


def spiked_sphere(subdivisions: int = 2, spike: float = 1.0, vertex: int = 0) -> Mesh:
    """Icosphere with one vertex pushed radially outward by the given factor.

    spike = 0 leaves the sphere untouched; spike = s moves the vertex to
    radius (1 + s).
    """
    base = icosphere(subdivisions)
    v = np.array(base.vertices)
    v[vertex] *= 1.0 + spike
    return Mesh(v, base.faces)
