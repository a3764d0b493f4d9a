"""Feature-based 3D mesh segmentation.

Pipeline: per-face geometric features (curvature, conformal factors at
several smoothing resolutions, average geodesic distance, shape diameter),
multi-scale neighborhood averaging, a multi-branch 1D convolutional
classifier (plus shallow baselines), and alpha-expansion graph-cut label
refinement with an area-weighted evaluation harness.
"""

__version__ = "0.1.0"

from meshseg.mesh import Mesh, DualGraph, MeshError, load_mesh, build_dual_graph

__all__ = [
    "Mesh",
    "DualGraph",
    "MeshError",
    "load_mesh",
    "build_dual_graph",
    "__version__",
]
