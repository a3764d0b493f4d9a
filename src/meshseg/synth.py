"""Synthetic triangle meshes for tests, demos, and the toy dataset.

All generators are deterministic given their arguments; the ones that take
a seed draw through numpy Generators only.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from meshseg.formats import dump_json, save_labels
from meshseg.mesh import Mesh, save_off


def icosphere(subdivisions: int = 2, radius: float = 1.0) -> Mesh:
    """Icosahedron subdivided by edge midpoints and projected to a sphere."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be nonnegative")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=np.float64) for v in verts]

    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                verts.append(0.5 * (verts[a] + verts[b]))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt

    v = np.array(verts)
    v *= radius / np.linalg.norm(v, axis=1)[:, None]
    return Mesh(v, np.array(faces))


def dumbbell(subdivisions: int = 2, neck: float = 0.35, top: float = 1.0,
             bottom: float = 0.7, sharpness: float = 6.0) -> Mesh:
    """Two unequal lobes joined by a thin neck, built by radially scaling
    an icosphere's xy-distance as a function of height.

    The top lobe (z > 0) and bottom lobe get different amplitudes, so
    thickness-sensitive features separate them.
    """
    base = icosphere(subdivisions)
    v = np.array(base.vertices)
    z = v[:, 2]
    blend = 0.5 * (1.0 + np.tanh(sharpness * z))  # 0 at bottom, 1 at top
    amp = bottom + (top - bottom) * blend
    g = neck + amp * z * z
    v[:, 0] *= g
    v[:, 1] *= g
    return Mesh(v, base.faces)


def dumbbell_labels(mesh: Mesh) -> np.ndarray:
    """Ground truth for a dumbbell: 1 for faces with centroid above z=0."""
    return (mesh.face_centroids[:, 2] > 0.0).astype(np.int64)


def make_toy_dataset(out_dir, n_meshes: int = 10, subdivisions: int = 2,
                     seed: int = 0, name: str = "toy-dumbbell") -> Path:
    """Write a labeled two-class mesh set and its manifest; returns the
    manifest path.

    Each mesh is a dumbbell with seeded lobe amplitudes and neck width, so
    the set has within-class variation. Labels mark the two lobes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(n_meshes):
        top = float(rng.uniform(0.9, 1.2))
        bottom = float(rng.uniform(0.55, 0.8))
        neck = float(rng.uniform(0.3, 0.42))
        mesh = dumbbell(subdivisions, neck=neck, top=top, bottom=bottom)
        labels = dumbbell_labels(mesh)
        mesh_id = f"dumbbell-{k:02d}"
        save_off(mesh, out / f"{mesh_id}.off")
        save_labels(out / f"{mesh_id}.seg", labels)
        entries.append({
            "id": mesh_id,
            "mesh": f"{mesh_id}.off",
            "labels": f"{mesh_id}.seg",
        })
    manifest = {
        "name": name,
        "classes": ["bottom-lobe", "top-lobe"],
        "meshes": entries,
    }
    path = out / "manifest.json"
    path.write_text(dump_json(manifest))
    return path
