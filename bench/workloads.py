"""Benchmark workloads: each turns a seed into a dataset on disk plus the
experiment config that `run_experiment` receives.

The program under test only ever sees the generated files; the seed picks
the lobe and neck shape of every dumbbell and, through the config, the
split and training seeds.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshseg.mesh import save_off
from meshseg.synth import dumbbell, make_toy_dataset

TRAIN = {"epochs": 15, "batch_size": 256, "lr_start": 1e-2, "lr_end": 1e-4,
         "momentum": 0.9}

# z cuts of the four height bands of the large-mesh labels
BAND_CUTS = (-0.5, 0.0, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    n_meshes: int
    subdivisions: int
    protocol: dict
    model: dict
    train: dict
    workers: int          # feature-extraction threads asked of run_experiment
    records: int          # test-mesh records one protocol call produces
    height_bands: bool = False  # four z-band classes on a fixed split

    def feature_workers(self) -> int:
        """Worker threads actually used: never more than the machine has."""
        return max(1, min(self.workers, os.cpu_count() or 1))

    def generate(self, data_dir: Path, seed: int) -> Path:
        """Write meshes, labels and manifest under data_dir; returns the
        manifest path."""
        if self.height_bands:
            return _height_band_dataset(data_dir, self.n_meshes,
                                        self.subdivisions, seed)
        return make_toy_dataset(data_dir, n_meshes=self.n_meshes,
                                subdivisions=self.subdivisions, seed=seed)

    def config(self, manifest: Path, out_dir: Path, seed: int) -> dict:
        protocol = dict(self.protocol)
        if protocol["kind"] == "fixed":
            protocol["file"] = str(manifest.parent / "split.txt")
        return {"dataset": str(manifest), "protocol": protocol,
                "model": dict(self.model), "train": dict(self.train),
                "lambda": 1.0, "omega": 1.0, "seed": seed,
                "output_dir": str(out_dir)}


def _height_band_dataset(data_dir: Path, n_meshes: int, subdivisions: int,
                         seed: int) -> Path:
    """Seeded dumbbells labeled by four height bands; mesh 0 trains, the
    rest test."""
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(n_meshes):
        top = float(rng.uniform(0.9, 1.2))
        bottom = float(rng.uniform(0.55, 0.8))
        neck = float(rng.uniform(0.3, 0.42))
        mesh = dumbbell(subdivisions, neck=neck, top=top, bottom=bottom)
        labels = np.digitize(mesh.face_centroids[:, 2], BAND_CUTS)
        mesh_id = f"band-{k:02d}"
        save_off(mesh, data_dir / f"{mesh_id}.off")
        (data_dir / f"{mesh_id}.seg").write_text("".join(f"{v}\n" for v in labels))
        entries.append({"id": mesh_id, "mesh": f"{mesh_id}.off",
                        "labels": f"{mesh_id}.seg"})
    ids = [e["id"] for e in entries]
    (data_dir / "split.txt").write_text(
        "train:\n" + f"{ids[0]}\n" + "test:\n" + "".join(f"{i}\n" for i in ids[1:]))
    manifest = {"name": "height-bands", "meshes": entries,
                "classes": ["bottom", "lower", "upper", "top"]}
    path = data_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


WORKLOADS = {w.name: w for w in [
    Workload(
        name="cnn-kfold",
        n_meshes=6, subdivisions=2,
        protocol={"kind": "kfold", "k": 3, "replicates": 1},
        model={"kind": "cnn", "branches": 3}, train=TRAIN,
        workers=1, records=6),
    Workload(
        name="large-mesh",
        n_meshes=4, subdivisions=3,
        protocol={"kind": "fixed", "replicates": 1},
        model={"kind": "cnn", "branches": 3}, train=TRAIN,
        workers=1, records=3, height_bands=True),
    Workload(
        name="many-meshes",
        n_meshes=24, subdivisions=2,
        protocol={"kind": "kfold", "k": 4, "replicates": 1},
        model={"kind": "pca-nn"}, train=TRAIN,
        workers=2, records=24),
    # not in BENCHMARK.json: 4 dumbbells of 80 faces, 2 epochs, for the
    # smoke test
    Workload(
        name="smoke",
        n_meshes=4, subdivisions=1,
        protocol={"kind": "kfold", "k": 2, "replicates": 1},
        model={"kind": "cnn", "branches": 2}, train={**TRAIN, "epochs": 2},
        workers=1, records=4),
]}
