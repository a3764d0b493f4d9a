"""Feature-based 3D mesh segmentation.

Pipeline: per-face geometric features (curvature, conformal factors at
several smoothing resolutions, average geodesic distance, shape diameter),
multi-scale neighborhood averaging, a multi-branch 1D convolutional
classifier (plus shallow baselines), and alpha-expansion graph-cut label
refinement with an area-weighted evaluation harness.
"""
