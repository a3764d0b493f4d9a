"""Discrete Gaussian curvature and the redistributed target curvature.

Angle deficits (2*pi minus the incident-angle sum, pi on boundary
vertices) give the integrated curvature; dividing by the barycentric
vertex area gives the pointwise value. The target curvature spreads the
total integrated curvature over vertices proportionally to area, so its
sum is conserved exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meshseg.mesh import Mesh


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex curvature data for a mesh and its smoothed levels.

    gaussian_curvature is pointwise (radians per unit area); the
    integrated and target fields are in plain radians so their totals are
    directly comparable.
    """

    gaussian_curvature: np.ndarray
    integrated_curvature: np.ndarray
    target_curvature: np.ndarray
    smoothed_target_curvature: tuple
    corner_terms: tuple  # `corner_terms` of the mesh, then of each level


def corner_terms(mesh: Mesh) -> tuple:
    """(|u x v|, u . v), each (F, 3), where u and v are the two edges
    leaving the corner at faces[:, k]; column k belongs to that corner."""
    p = mesh.vertices[mesh.faces]  # (F, 3, 3)
    cross = np.zeros((mesh.n_faces, 3))
    dot = np.zeros((mesh.n_faces, 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cross[:, k] = np.linalg.norm(np.cross(u, v), axis=1)
        dot[:, k] = np.einsum("ij,ij->i", u, v)
    return cross, dot


def barycentric_areas(mesh: Mesh) -> np.ndarray:
    """Per-vertex area: one third of each incident face's area."""
    areas = np.zeros(mesh.n_vertices)
    share = mesh.face_areas / 3.0
    for k in range(3):
        np.add.at(areas, mesh.faces[:, k], share)
    return areas


def angle_deficits(mesh: Mesh, terms: tuple) -> np.ndarray:
    """Integrated Gaussian curvature: 2*pi (interior) or pi (boundary)
    minus the sum of incident face angles at each vertex; terms is
    `corner_terms(mesh)`."""
    sums = np.zeros(mesh.n_vertices)
    ang = np.arctan2(*terms)  # (F, 3) interior angles
    for k in range(3):
        np.add.at(sums, mesh.faces[:, k], ang[:, k])
    full = np.where(mesh.boundary_vertices(), math.pi, 2.0 * math.pi)
    return full - sums


def target_curvature(mesh: Mesh, integrated: np.ndarray,
                     areas: np.ndarray) -> np.ndarray:
    """Redistribute the total integrated curvature proportionally to the
    barycentric vertex areas.

    k_v = (sum of all integrated curvatures) * A_v / total mesh area.
    Because the A_v sum to the total area, the output total equals the
    input total.
    """
    total_area = float(mesh.face_areas.sum())
    if total_area <= 0.0:
        raise ValueError("mesh has zero total area")
    return float(np.sum(integrated)) * areas / total_area


def curvature_field(mesh: Mesh, levels: tuple = ()) -> CurvatureField:
    """Assemble all curvature data for a mesh, with the target curvature
    K^sT_i of each smoothed level; the corner terms, angle deficits and
    barycentric areas of the mesh and of each level are computed once."""
    terms = tuple(corner_terms(m) for m in (mesh, *levels))
    deficits = angle_deficits(mesh, terms[0])
    areas = barycentric_areas(mesh)
    dead = np.nonzero(areas <= 0.0)[0]
    if dead.size:
        raise ValueError(f"vertex {int(dead[0])} has an empty one-ring (zero area)")
    return CurvatureField(
        gaussian_curvature=deficits / areas,
        integrated_curvature=deficits,
        target_curvature=target_curvature(mesh, deficits, areas),
        smoothed_target_curvature=tuple(
            target_curvature(level, angle_deficits(level, t), barycentric_areas(level))
            for level, t in zip(levels, terms[1:])),
        corner_terms=terms,
    )
