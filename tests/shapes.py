"""Small meshes that only the tests use: a noisy grid, a concave corner
and a sphere with one spike."""
import numpy as np

from meshseg.mesh import Mesh
from meshseg.synth import icosphere, plane_grid


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
