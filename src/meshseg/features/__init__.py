"""Per-face geometric features and their multi-scale aggregation."""
from meshseg.features.curvature import (
    CurvatureField,
    angle_deficits,
    barycentric_areas,
    corner_angles,
    curvature_field,
    gaussian_curvature,
    target_curvature,
)
from meshseg.features.conformal import (
    ConformalFactorField,
    conformal_factor,
    conformal_factor_field,
    cotangent_laplacian,
    vertex_to_face,
)
from meshseg.features.geodesic import agd_edge_weights, average_geodesic_distance, quantize_weights
from meshseg.features.sdf import SdfResult, cone_directions, shape_diameter
from meshseg.features.matrix import (
    DEFAULT_CHANNELS,
    FeatureMatrix,
    NormalizationStats,
    compute_features,
    fit_stats,
    multiscale,
)

__all__ = [
    "CurvatureField", "angle_deficits", "barycentric_areas", "corner_angles",
    "curvature_field", "gaussian_curvature", "target_curvature",
    "ConformalFactorField", "conformal_factor", "conformal_factor_field",
    "cotangent_laplacian", "vertex_to_face",
    "agd_edge_weights", "average_geodesic_distance", "quantize_weights",
    "SdfResult", "cone_directions", "shape_diameter",
    "DEFAULT_CHANNELS", "FeatureMatrix", "NormalizationStats",
    "compute_features", "fit_stats", "multiscale",
]
