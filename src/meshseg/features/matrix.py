"""Per-face feature assembly, train-only normalization, and multi-scale
neighborhood averaging.

The default channel set is [gaussian curvature, conformal factor,
5 smoothed conformal factors, average geodesic distance, shape diameter];
additional extractors can be registered by name without touching the file
format or the pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from meshseg.mesh import DualGraph, Mesh, build_dual_graph, face_balls
from meshseg.smoothing import taubin_smooth
from meshseg.features.curvature import curvature_field
from meshseg.features.conformal import conformal_factor_field, vertex_to_face
from meshseg.features.geodesic import average_geodesic_distance
from meshseg.features.sdf import shape_diameter


@dataclass(frozen=True)
class FeatureParams:
    """Knobs shared by all extractors; defaults match the pipeline's use."""

    smoothing_levels: int = 5
    lambda_shrink: float = 0.5
    mu_inflate: float = -0.53
    sdf_rays: int = 30
    sdf_cone_half_angle_deg: float = 60.0
    sdf_alpha: float = 4.0
    solver_tol: float = 1e-8


class FeatureComputation:
    """Lazily materialized shared intermediates for one mesh.

    Extractors pull what they need; nothing is computed unless some
    requested channel uses it. A caller that already holds the mesh's
    dual graph passes it in, so it is not built twice.
    """

    def __init__(self, mesh: Mesh, params: FeatureParams = FeatureParams(),
                 graph: DualGraph | None = None):
        self.mesh = mesh
        self.params = params
        self.diagnostics: dict = {}
        if graph is not None:
            self.graph = graph  # fills the cached property

    @cached_property
    def graph(self) -> DualGraph:
        return build_dual_graph(self.mesh)

    @cached_property
    def smoothed(self):
        return taubin_smooth(self.mesh, self.params.smoothing_levels,
                             self.params.lambda_shrink, self.params.mu_inflate)

    @cached_property
    def curvature(self):
        return curvature_field(self.mesh, self.smoothed)

    @cached_property
    def conformal(self):
        return conformal_factor_field(self.smoothed, self.curvature,
                                      tol=self.params.solver_tol)

    @cached_property
    def agd(self) -> np.ndarray:
        return average_geodesic_distance(self.mesh, self.graph)

    @cached_property
    def sdf(self):
        import math
        result = shape_diameter(
            self.mesh, n_rays=self.params.sdf_rays,
            cone_half_angle=math.radians(self.params.sdf_cone_half_angle_deg),
            alpha=self.params.sdf_alpha)
        if result.fallback_faces.size:
            self.diagnostics["sdf_fallback_faces"] = result.fallback_faces.tolist()
        return result


def _smoothed_cf_channel(level: int):
    def extract(comp: FeatureComputation) -> np.ndarray:
        return vertex_to_face(comp.mesh, comp.conformal.smoothed_cf[level])
    return extract


CHANNEL_REGISTRY: dict = {
    "gaussian_curvature": lambda c: vertex_to_face(c.mesh, c.curvature.gaussian_curvature),
    "conformal_factor": lambda c: vertex_to_face(c.mesh, c.conformal.original_cf),
    "conformal_factor_s1": _smoothed_cf_channel(0),
    "conformal_factor_s2": _smoothed_cf_channel(1),
    "conformal_factor_s3": _smoothed_cf_channel(2),
    "conformal_factor_s4": _smoothed_cf_channel(3),
    "conformal_factor_s5": _smoothed_cf_channel(4),
    "agd": lambda c: c.agd,
    "sdf": lambda c: c.sdf.normalized,
}

DEFAULT_CHANNELS = tuple(CHANNEL_REGISTRY)


def register_channel(name: str, extractor) -> None:
    """Add a named per-face extractor: FeatureComputation -> (F,) floats."""
    if name in CHANNEL_REGISTRY:
        raise ValueError(f"channel {name!r} already registered")
    CHANNEL_REGISTRY[name] = extractor


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


@dataclass(frozen=True)
class FeatureMatrix:
    """Raw per-face feature values under their channel names."""

    channel_names: tuple
    values: np.ndarray  # (faces, channels), unnormalized
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channel_names):
            raise ValueError("values shape does not match channel names")

    @property
    def face_count(self) -> int:
        return len(self.values)


def compute_features(mesh: Mesh, channels=DEFAULT_CHANNELS,
                     params: FeatureParams = FeatureParams(),
                     graph: DualGraph | None = None) -> FeatureMatrix:
    """Run the registered extractors and assemble the per-face matrix.

    graph, when given, is the mesh's dual graph and is reused.
    Raises on NaN/Inf with the offending channel and face named.
    """
    comp = FeatureComputation(mesh, params, graph)
    cols = []
    for name in channels:
        if name not in CHANNEL_REGISTRY:
            raise KeyError(f"unknown feature channel {name!r}")
        col = np.asarray(CHANNEL_REGISTRY[name](comp), dtype=np.float64)
        if col.shape != (mesh.n_faces,):
            raise ValueError(f"channel {name!r} returned shape {col.shape}")
        bad = np.nonzero(~np.isfinite(col))[0]
        if bad.size:
            raise FloatingPointError(
                f"channel {name!r} produced non-finite value at face {int(bad[0])}")
        cols.append(col)
    values = np.column_stack(cols) if cols else np.zeros((mesh.n_faces, 0))
    return FeatureMatrix(tuple(channels), values, diagnostics=comp.diagnostics)


@dataclass(frozen=True)
class MultiScaleFeatures:
    """K stacked views of a feature matrix: scale k averages each face's
    values over its dual-graph ball of radius k-1."""

    scales: int
    channel_names: tuple
    values: np.ndarray  # (faces, K, channels)

    def scale(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.scales:
            raise ValueError(f"scale {k} outside 1..{self.scales}")
        return self.values[:, k - 1, :]


def multiscale(values: np.ndarray, graph: DualGraph, scales: int,
               channel_names=None) -> MultiScaleFeatures:
    """Stack the K neighborhood-averaged copies of the rows.

    Scale 1 is the row itself; scale k is the unweighted mean over the
    inclusive ball of radius k-1, summed in ascending face order.
    """
    if not 1 <= scales <= 4:
        raise ValueError("scales must be in 1..4")
    values = np.asarray(values, dtype=np.float64)
    if len(values) != graph.n_faces:
        raise ValueError("row count does not match face count")
    out = np.zeros((len(values), scales, values.shape[1]))
    out[:, 0, :] = values
    for k in range(1, scales):
        balls = face_balls(graph, k)
        out[:, k, :] = (balls @ values) / np.diff(balls.indptr)[:, None]
    if channel_names is None:
        channel_names = tuple(f"c{i}" for i in range(values.shape[1]))
    return MultiScaleFeatures(scales=scales, channel_names=tuple(channel_names),
                              values=out)
