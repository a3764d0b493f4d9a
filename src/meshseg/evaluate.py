"""Area-weighted accuracy, labeled meshes, and cross-validation splits."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshseg.mesh import Mesh
from meshseg.numerics import SeededRng


def accuracy(pred, gt, areas) -> float:
    """Fraction of total face area carrying the correct label."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    areas = np.asarray(areas, dtype=np.float64)
    if not len(pred) == len(gt) == len(areas):
        raise ValueError("pred, gt, and areas must have equal lengths")
    if len(areas) == 0:
        raise ValueError("empty labeling")
    if (areas <= 0).any():
        raise ValueError("face areas must be positive")
    return float(areas[pred == gt].sum() / areas.sum())


@dataclass(frozen=True)
class LabeledMesh:
    """A mesh with per-face ground truth indexed against the set-wide
    class vocabulary; `load_labels` has already rejected negative labels.
    path is the mesh's file, which messages name."""

    mesh_id: str
    mesh: Mesh
    labels: np.ndarray
    path: Path

    def __post_init__(self):
        if len(self.labels) != self.mesh.n_faces:
            raise ValueError(
                f"{self.mesh_id}: {len(self.labels)} labels for "
                f"{self.mesh.n_faces} faces")


def make_splits(mesh_ids: list, protocol: str, k: int, fixed, seed: int) -> list:
    """(train ids, test ids) pairs under the protocol ("loo", "kfold" or
    "fixed"); k-fold folds are a seeded shuffle partition into k sets with
    sizes differing by at most one, and `fixed` is the parsed (train ids,
    test ids) of a fixed split, None otherwise."""
    ids = sorted(mesh_ids)
    if protocol == "loo":
        if len(ids) < 2:
            raise ValueError("leave-one-out needs at least 2 meshes")
        return [([m for m in ids if m != test], [test]) for test in ids]
    if protocol == "kfold":
        if len(ids) < k:
            raise ValueError(f"{k}-fold needs at least {k} meshes")
        order = SeededRng(seed).stream("folds").permutation(len(ids))
        folds = np.array_split(order, k)
        out = []
        for fold in folds:
            test = sorted(ids[i] for i in fold)
            out.append(([m for m in ids if m not in set(test)], test))
        return out
    train, test = fixed
    unknown = [m for m in list(train) + list(test) if m not in set(ids)]
    if unknown:
        raise ValueError(f"fixed split references unknown mesh ids {unknown}")
    return [(sorted(train), sorted(test))]
