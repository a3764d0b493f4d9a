"""Per-face feature assembly, train-only normalization, and multi-scale
neighborhood averaging.

Every mesh gets the same nine channels, in this order: gaussian
curvature, conformal factor, 5 smoothed conformal factors, average
geodesic distance, shape diameter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meshseg.mesh import DualGraph, Mesh, build_dual_graph, face_balls
from meshseg.smoothing import taubin_smooth
from meshseg.features.curvature import curvature_field
from meshseg.features.conformal import conformal_factor_field, vertex_to_face
from meshseg.features.geodesic import average_geodesic_distance
from meshseg.features.sdf import shape_diameter


DEFAULT_CHANNELS = (
    "gaussian_curvature", "conformal_factor",
    "conformal_factor_s1", "conformal_factor_s2", "conformal_factor_s3",
    "conformal_factor_s4", "conformal_factor_s5",
    "agd", "sdf",
)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel affine normalization fitted on training faces only."""

    mean: np.ndarray
    scale: np.ndarray  # guarded std, safe to divide by

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.scale


def fit_stats(values: np.ndarray) -> NormalizationStats:
    """Z-score statistics per channel. Channels with (near-)zero variance
    get unit scale so they normalize to exactly zero instead of blowing up."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or len(values) == 0:
        raise ValueError("need a nonempty (faces, channels) array")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    guard = std <= 1e-12 * np.maximum(1.0, np.abs(mean))
    return NormalizationStats(mean=mean, scale=np.where(guard, 1.0, std))


def compute_features(mesh: Mesh, graph: DualGraph | None = None) -> tuple:
    """(values, sdf fallback faces) of one mesh: the raw (faces,
    DEFAULT_CHANNELS) matrix, every extractor at its defaults, and the
    faces whose SDF rays all missed.

    graph, when given, is the mesh's dual graph and is reused.
    Raises on NaN/Inf, naming the first bad channel and its first bad face.
    """
    if graph is None:
        graph = build_dual_graph(mesh)
    levels = taubin_smooth(mesh)
    curvature = curvature_field(mesh, levels)
    conformal = conformal_factor_field(mesh, levels, curvature)
    agd = average_geodesic_distance(mesh, graph)
    sdf = shape_diameter(mesh)
    per_vertex = np.column_stack([curvature.gaussian_curvature,
                                  conformal.original_cf, *conformal.smoothed_cf])
    values = np.column_stack([vertex_to_face(mesh, per_vertex), agd, sdf.normalized])
    bad = ~np.isfinite(values)
    if bad.any():
        col = int(bad.any(axis=0).argmax())
        raise FloatingPointError(
            f"channel {DEFAULT_CHANNELS[col]!r} produced non-finite value "
            f"at face {int(bad[:, col].argmax())}")
    return values, sdf.fallback_faces


def multiscale(values: np.ndarray, graph: DualGraph, scales: int) -> np.ndarray:
    """Stack the K neighborhood-averaged copies of the rows: (faces, K,
    channels).

    Scale 1 is the row itself; scale k is the unweighted mean over the
    inclusive ball of radius k-1, summed in ascending face order.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) != graph.n_faces:
        raise ValueError("row count does not match face count")
    out = np.zeros((len(values), scales, values.shape[1]))
    out[:, 0, :] = values
    for k in range(1, scales):
        balls = face_balls(graph, k)
        out[:, k, :] = (balls @ values) / np.diff(balls.indptr)[:, None]
    return out
