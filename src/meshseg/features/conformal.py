"""Conformal factor fields from curvature redistribution.

The conformal factor Phi solves L Phi = (target - original) integrated
curvature with the cotangent Laplacian L; it measures how much local
uniform scaling would flatten curvature concentrations, so it spikes at
protrusion tips. The smoothed variants replace the left-hand side's
geometry and the target by those of a smoothed copy, which damps the
sensitivity to thin spikes. One pass solves all of them: the mesh and each
smoothed level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from meshseg.mesh import Mesh
from meshseg.numerics import SparseSymmetric, solve_singular_spd
from meshseg.features.curvature import CurvatureField, curvature_field

COT_CLAMP = 1e4


@dataclass(frozen=True)
class ConformalFactorField:
    """Zero-mean conformal factors: the base mesh's and one per smoothing level."""

    original_cf: np.ndarray
    smoothed_cf: tuple


def cotangent_laplacian(mesh: Mesh, terms: tuple) -> SparseSymmetric:
    """Symmetric cotangent-weight Laplacian (no area normalization); terms
    is `curvature.corner_terms(mesh)`.

    Off-diagonal (i, j) gets -0.5 * (cot of each angle opposite the edge);
    cotangents are clamped against sliver triangles. Diagonal holds the
    negated row sum, so the matrix annihilates constants.
    """
    cross, dot = terms
    w = 0.5 * np.clip(dot / np.maximum(cross, 1e-300), -COT_CLAMP, COT_CLAMP)
    rows, cols, vals = [], [], []
    for k in range(3):
        i = mesh.faces[:, (k + 1) % 3]
        j = mesh.faces[:, (k + 2) % 3]
        rows += [i, i, j]
        cols += [j, i, j]
        vals += [-w[:, k], w[:, k], w[:, k]]
    return SparseSymmetric(mesh.n_vertices, np.concatenate(rows),
                           np.concatenate(cols), np.concatenate(vals))


def _vertex_components(mesh: Mesh) -> np.ndarray:
    i, j = mesh.half_edges[mesh.edge_start[:-1], :2].T  # each edge once
    adj = sp.csr_matrix((np.ones(len(i)), (i, j)),
                        shape=(mesh.n_vertices, mesh.n_vertices))
    _, labels = connected_components(adj, directed=False)
    return labels


def _solve_componentwise(labels: np.ndarray, lap: SparseSymmetric,
                         rhs: np.ndarray) -> np.ndarray:
    n_comp = int(labels.max()) + 1
    if n_comp == 1:
        return solve_singular_spd(lap, rhs)
    # disconnected surface: each component gets its own singular solve,
    # gauged to zero mean within the component
    phi = np.zeros(len(rhs))
    for c in range(n_comp):
        idx = np.nonzero(labels == c)[0]
        block = sp.triu(lap.csr[idx][:, idx], format="coo")
        sub = SparseSymmetric(len(idx), block.row, block.col, block.data)
        phi[idx] = solve_singular_spd(sub, rhs[idx])
    return phi


def conformal_factor_field(mesh: Mesh, levels: tuple = (),
                           field: CurvatureField | None = None) -> ConformalFactorField:
    """Conformal factors of a mesh and of each of its smoothed levels.

    The base factor solves with the mesh's Laplacian against K^T - K.
    Level i solves with the level's own Laplacian and target curvature,
    against the BASE mesh's target curvature (K^sT_i - K^T): the field then
    measures curvature displaced by smoothing rather than by
    redistribution alone. field, when given, is curvature_field(mesh,
    levels), whose corner terms the Laplacians reuse. The levels share
    the mesh's connectivity, so its components are found once.
    """
    if field is None:
        field = curvature_field(mesh, levels)
    labels = _vertex_components(mesh)
    k_t = field.target_curvature
    terms, *level_terms = field.corner_terms
    return ConformalFactorField(
        original_cf=_solve_componentwise(
            labels, cotangent_laplacian(mesh, terms), k_t - field.integrated_curvature),
        smoothed_cf=tuple(
            _solve_componentwise(labels, cotangent_laplacian(level, t), k_st - k_t)
            for level, t, k_st in zip(levels, level_terms,
                                      field.smoothed_target_curvature, strict=True)),
    )


def vertex_to_face(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Transfer per-vertex values, (V,) or (V, k), to faces by averaging
    corner values."""
    if len(values) != mesh.n_vertices:
        raise ValueError("field length does not match vertex count")
    return values[mesh.faces].mean(axis=1)
