"""Area-weighted accuracy, labeled meshes, and cross-validation splits."""
from __future__ import annotations

from dataclasses import dataclass

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
    class vocabulary."""

    mesh_id: str
    mesh: Mesh
    labels: np.ndarray

    def __post_init__(self):
        if len(self.labels) != self.mesh.n_faces:
            raise ValueError(
                f"{self.mesh_id}: {len(self.labels)} labels for "
                f"{self.mesh.n_faces} faces")
        if len(self.labels) and int(self.labels.min()) < 0:
            raise ValueError(f"{self.mesh_id}: negative label")


@dataclass(frozen=True)
class SplitPlan:
    """Cross-validation protocol: leave-one-out, k-fold, or a fixed file."""

    protocol: str  # "loo" | "kfold" | "fixed"
    k: int = 5
    fixed: tuple | None = None  # (train ids, test ids) parsed from file
    replicates: int = 3

    def __post_init__(self):
        if self.protocol not in ("loo", "kfold", "fixed"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "kfold" and self.k < 2:
            raise ValueError("k-fold needs k >= 2")
        if self.protocol == "fixed" and self.fixed is None:
            raise ValueError("fixed protocol needs parsed train/test id lists")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")


def make_splits(mesh_ids: list, plan: SplitPlan, seed: int) -> list:
    """(train ids, test ids) pairs; folds are a seeded shuffle partition
    with sizes differing by at most one."""
    ids = sorted(mesh_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate mesh ids")
    if plan.protocol == "loo":
        if len(ids) < 2:
            raise ValueError("leave-one-out needs at least 2 meshes")
        return [([m for m in ids if m != test], [test]) for test in ids]
    if plan.protocol == "kfold":
        if len(ids) < plan.k:
            raise ValueError(f"{plan.k}-fold needs at least {plan.k} meshes")
        order = SeededRng(seed).stream("folds").permutation(len(ids))
        folds = np.array_split(order, plan.k)
        out = []
        for fold in folds:
            test = sorted(ids[i] for i in fold)
            out.append(([m for m in ids if m not in set(test)], test))
        return out
    train, test = plan.fixed
    unknown = [m for m in list(train) + list(test) if m not in set(ids)]
    if unknown:
        raise ValueError(f"fixed split references unknown mesh ids {unknown}")
    return [(sorted(train), sorted(test))]
