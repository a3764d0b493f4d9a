"""Conformal factor fields from curvature redistribution.

The conformal factor Phi solves L Phi = (target - original) integrated
curvature with the cotangent Laplacian L; it measures how much local
uniform scaling would flatten curvature concentrations, so it spikes at
protrusion tips. The smoothed variants replace the left-hand side's
geometry and the target by those of a smoothed copy, which damps the
sensitivity to thin spikes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from meshseg.mesh import Mesh
from meshseg.numerics import SparseSymmetric, solve_singular_spd
from meshseg.features.curvature import CurvatureField, angle_deficits, curvature_field, target_curvature

COT_CLAMP = 1e4


@dataclass(frozen=True)
class ConformalFactorField:
    """Zero-mean conformal factors: the base mesh's and one per smoothing level."""

    original_cf: np.ndarray
    smoothed_cf: tuple


def cotangent_laplacian(mesh: Mesh) -> SparseSymmetric:
    """Symmetric cotangent-weight Laplacian (no area normalization).

    Off-diagonal (i, j) gets -0.5 * (cot of each angle opposite the edge);
    cotangents are clamped against sliver triangles. Diagonal holds the
    negated row sum, so the matrix annihilates constants.
    """
    p = mesh.vertices[mesh.faces]
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    for k in range(3):
        i = mesh.faces[:, (k + 1) % 3]
        j = mesh.faces[:, (k + 2) % 3]
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        dot = np.einsum("ij,ij->i", u, v)
        w = 0.5 * np.clip(dot / np.maximum(cross, 1e-300), -COT_CLAMP, COT_CLAMP)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        rows += [lo, i, j]
        cols += [hi, i, j]
        vals += [-w, w, w]
    return SparseSymmetric(n, np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(vals))


def _vertex_components(mesh: Mesh) -> np.ndarray:
    i = np.concatenate([mesh.faces[:, 0], mesh.faces[:, 1], mesh.faces[:, 2]])
    j = np.concatenate([mesh.faces[:, 1], mesh.faces[:, 2], mesh.faces[:, 0]])
    adj = sp.csr_matrix((np.ones(len(i)), (i, j)),
                        shape=(mesh.n_vertices, mesh.n_vertices))
    _, labels = connected_components(adj, directed=False)
    return labels


def _solve_componentwise(mesh: Mesh, lap: SparseSymmetric, rhs: np.ndarray,
                         tol: float) -> np.ndarray:
    labels = _vertex_components(mesh)
    n_comp = int(labels.max()) + 1
    if n_comp == 1:
        return solve_singular_spd(lap, rhs, tol=tol)
    # disconnected surface: each component gets its own singular solve,
    # gauged to zero mean within the component
    phi = np.zeros(len(rhs))
    for c in range(n_comp):
        idx = np.nonzero(labels == c)[0]
        block = sp.triu(lap.csr[idx][:, idx], format="coo")
        sub = SparseSymmetric(len(idx), block.row, block.col, block.data)
        phi[idx] = solve_singular_spd(sub, rhs[idx], tol=tol)
    return phi


def conformal_factor(mesh: Mesh, field: CurvatureField | None = None,
                     tol: float = 1e-8) -> np.ndarray:
    """Per-vertex conformal factor of a mesh, zero mean per component."""
    if field is None:
        field = curvature_field(mesh)
    rhs = field.target_curvature - field.integrated_curvature
    return _solve_componentwise(mesh, cotangent_laplacian(mesh), rhs, tol)


def smoothed_conformal_factor(seq, field: CurvatureField | None = None,
                              tol: float = 1e-8) -> tuple:
    """Per-level conformal factors of a smoothed sequence.

    Level i solves with the smoothed mesh's own Laplacian and its target
    curvature, against the BASE mesh's target curvature: the field then
    measures curvature displaced by smoothing rather than by
    redistribution alone.
    """
    base = seq.base
    if field is None:
        field = curvature_field(base, seq)
    k_t = field.target_curvature
    out = []
    for i, level in enumerate(seq.levels):
        if i < len(field.smoothed_target_curvature):
            k_st = field.smoothed_target_curvature[i]
        else:
            k_st = target_curvature(level, angle_deficits(level))
        phi = _solve_componentwise(level, cotangent_laplacian(level),
                                   k_st - k_t, tol)
        out.append(phi)
    return tuple(out)


def conformal_factor_field(seq, field: CurvatureField | None = None,
                           tol: float = 1e-8) -> ConformalFactorField:
    if field is None:
        field = curvature_field(seq.base, seq)
    return ConformalFactorField(
        original_cf=conformal_factor(seq.base, field, tol),
        smoothed_cf=smoothed_conformal_factor(seq, field, tol),
    )


def vertex_to_face(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Transfer a per-vertex field to faces by averaging corner values."""
    if len(values) != mesh.n_vertices:
        raise ValueError("field length does not match vertex count")
    return values[mesh.faces].mean(axis=1)
