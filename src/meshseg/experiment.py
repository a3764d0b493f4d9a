"""Experiment orchestration: features with caching, split-wise training,
prediction, graph-cut refinement, and a deterministic JSON-ready report.

The stage functions here (`mesh_features`, `train_unit`, `predict`,
`refine_labels`) are the one implementation of each step; `run_experiment`
and the single-step commands of the CLI both call them. `train_unit` is
one (split, replicate) of `run` and, on every mesh, all of `train`.

Raw per-face features are split-independent and cached per mesh keyed by
a hash of the channel names and the parsed mesh's arrays. Normalization is
affine per channel, so it commutes with neighborhood averaging; raw
multi-scale stacks are therefore built once and train-fold statistics are
applied per split.
"""
from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from meshseg.evaluate import LabeledMesh, accuracy, make_splits
from meshseg.features.matrix import (
    DEFAULT_CHANNELS,
    compute_features,
    fit_stats,
    multiscale,
)
from meshseg.formats import (
    DatasetManifest,
    ExperimentConfig,
    FormatError,
    dump_json,
    experiment_config_to_dict,
    load_feature_cache,
    load_fixed_split,
    load_labels,
    load_manifest,
    save_checkpoint,
    save_feature_cache,
    save_labels,
    save_probabilities,
)
from meshseg.graphcut import GraphCutProblem, alpha_expansion
from meshseg.mesh import build_dual_graph, load_mesh_path
from meshseg.neural.models import build_model
from meshseg.numerics import SeededRng

REPORT_FORMAT = "meshseg-report"
REPORT_VERSION = 1


@contextmanager
def naming(what):
    """Re-raise any error of the body as a RuntimeError led by what, the
    input or unit at fault. The error stays its cause, so it keeps its exit
    code (see `cli._category`)."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{what}: {exc}") from exc


def check_faces(path, count, what, mesh_path, mesh) -> None:
    """A file read beside a mesh holds one row per face; a mismatch names
    both files and both counts before any stage sees them."""
    if count != mesh.n_faces:
        raise ValueError(f"{path}: {count} {what} for the {mesh.n_faces} "
                         f"faces of {mesh_path}")


def load_labeled_meshes(manifest: DatasetManifest) -> list:
    """LabeledMesh per manifest entry, labels checked against the mesh and
    the class vocabulary; failures name the mesh id."""
    out = []
    n_classes = len(manifest.classes)
    for mesh_id, mesh_path, labels_path in manifest.entries:
        with naming(f"mesh {mesh_id!r}"):
            mesh = load_mesh_path(mesh_path)
            labels = load_labels(labels_path)
            check_faces(labels_path, len(labels), "labels", mesh_path, mesh)
            if len(labels) and int(labels.max()) >= n_classes:
                raise ValueError(f"{labels_path}: label {int(labels.max())} outside "
                                 f"the {n_classes}-class vocabulary")
        out.append(LabeledMesh(mesh_id, mesh, labels, mesh_path))
    return sorted(out, key=lambda lm: lm.mesh_id)


def feature_cache_key(mesh) -> str:
    """Hash of the channel names and the mesh's vertex and face arrays:
    the raw features are a function of exactly these. The vertex count
    goes in first, so face bytes cannot pass for vertex bytes."""
    h = hashlib.blake2b("\n".join(DEFAULT_CHANNELS).encode(), digest_size=16)
    h.update(mesh.n_vertices.to_bytes(8, "little"))
    h.update(np.ascontiguousarray(mesh.vertices, dtype="<f8"))
    h.update(np.ascontiguousarray(mesh.faces, dtype="<i8"))
    return h.hexdigest()


def cached_features(mesh, cache_dir, graph) -> np.ndarray:
    """Compute (or reuse) the raw (faces, channels) feature matrix of one
    mesh whose dual graph is graph.

    The cache file is named after its key (`feature_cache_key`), so two
    meshes share a cache exactly when their arrays match, whichever files
    they came from; a stale, foreign or unreadable cache is recomputed.
    """
    key = feature_cache_key(mesh)
    cache_path = Path(cache_dir) / f"{key}.feat"
    if cache_path.exists():
        try:
            return load_feature_cache(cache_path, key)
        except (FormatError, OSError):
            pass  # fall through to recompute
    values, _ = compute_features(mesh, graph)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    save_feature_cache(cache_path, values, key)
    return values


@dataclass
class _MeshBundle:
    labeled: LabeledMesh
    graph: object
    stack: np.ndarray  # (faces, K, channels), unnormalized; scale 0 is raw


def mesh_features(mesh, scales, cache_dir=None):
    """(dual graph, raw multi-scale stack) of one mesh; the features go
    through the cache when cache_dir is given."""
    graph = build_dual_graph(mesh)
    if cache_dir is None:
        values, _ = compute_features(mesh, graph)
    else:
        values = cached_features(mesh, cache_dir, graph)
    return graph, multiscale(values, graph, scales)


def _prepare_bundles(meshes, cfg, threads, log=None):
    """Bundle per mesh id, with as many scales as the configured model
    reads; features are built through the cache on up to `threads` worker
    processes, never more than there are meshes.

    The workers are forked: spawn and forkserver re-import `__main__`,
    which fails in a caller script without a `__main__` guard, and fork
    skips re-importing numpy and scipy. Where fork is missing, or one
    worker would do, the features are built in this process. Bundles come
    out in the order of `meshes` either way, and an error names the mesh
    it came from by id and file.
    """
    build = partial(mesh_features, scales=cfg.branches,
                    cache_dir=Path(cfg.output_dir) / "cache")
    workers = min(threads, len(meshes))
    fork = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
    bundles = {}
    with (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
          if fork else nullcontext()) as pool:
        parts = (pool.map if pool else map)(build, [lm.mesh for lm in meshes])
        for lm in meshes:  # named here: named in a worker, an error loses its cause
            with naming(f"mesh {lm.mesh_id!r}: {lm.path}"):
                bundles[lm.mesh_id] = _MeshBundle(lm, *next(parts))
            if log:
                log(f"features ready: {lm.mesh_id} ({lm.mesh.n_faces} faces)")
    return bundles


def predict(model, stats, stack) -> np.ndarray:
    """Class probabilities per face from a raw multi-scale stack."""
    return model.predict_proba(stats.apply(stack))


def refine_labels(graph, probs, features, lam, omega):
    """Alpha-expansion result of the graph-cut refinement of per-face
    probabilities, with the AGD column of the raw (faces, channels)
    features as the feature-distance term."""
    agd = features[:, DEFAULT_CHANNELS.index("agd")]
    return alpha_expansion(GraphCutProblem(graph=graph, probabilities=probs,
                                           feature=agd, lam=lam, omega=omega))


@dataclass
class TrainedUnit:
    model: object
    stats: object        # normalization fitted on the training meshes
    final_losses: dict   # final loss per training stage
    probs: dict          # test mesh id -> (faces, classes) probabilities
    refined: dict        # test mesh id -> alpha-expansion result


def train_unit(cfg: ExperimentConfig, n_classes, seed, bundles, train_ids,
               test_ids) -> TrainedUnit:
    """One model fitted under seed on train_ids, normalization fitted on
    their raw features (scale 0), then each test mesh predicted and
    refined. Errors come out bare; the caller names the unit."""
    stats = fit_stats(np.vstack([bundles[m].stack[:, 0] for m in train_ids]))
    x = np.concatenate([stats.apply(bundles[m].stack) for m in train_ids], axis=0)
    y = np.concatenate([bundles[m].labeled.labels for m in train_ids])
    model = build_model(cfg.model_kind, x.shape[1], x.shape[2], n_classes,
                        seed, cfg.train)
    curves = model.fit(x, y)
    probs, refined = {}, {}
    for mesh_id in test_ids:
        b = bundles[mesh_id]
        probs[mesh_id] = predict(model, stats, b.stack)
        refined[mesh_id] = refine_labels(b.graph, probs[mesh_id], b.stack[:, 0],
                                         cfg.lam, cfg.omega)
    return TrainedUnit(model, stats, {stage: c[-1] for stage, c in curves.items()},
                       probs, refined)


def run_experiment(cfg: ExperimentConfig, threads: int = 1, log=None) -> dict:
    """Execute the full protocol and return the report dict.

    Per-mesh features are built on up to `threads` worker processes (see
    `_prepare_bundles`); everything after them runs in this process, and
    the report and artifacts are the same at any worker count.

    Artifacts land under cfg.output_dir: feature caches, a checkpoint
    per (split, replicate) unit, per-record probability grids and refined
    label files, and report.json.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    manifest = load_manifest(cfg.dataset)
    with naming(cfg.dataset):
        meshes = load_labeled_meshes(manifest)
    n_classes = len(manifest.classes)

    fixed = load_fixed_split(cfg.fixed_split_file) if cfg.protocol == "fixed" else None
    with naming(f"{cfg.fixed_split_file} against {cfg.dataset}" if fixed else cfg.dataset):
        splits = make_splits([lm.mesh_id for lm in meshes], cfg.protocol, cfg.k,
                             fixed, cfg.seed)
    bundles = _prepare_bundles(meshes, cfg, threads, log)

    out_dir = Path(cfg.output_dir)
    for sub in ("probs", "labels", "models"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    root = SeededRng(cfg.seed)
    record_rows = []
    for si, (train_ids, test_ids) in enumerate(splits):
        for rep in range(cfg.replicates):
            seed = root.derive_seed(f"split{si}/rep{rep}")
            with naming(f"split {si} replicate {rep}"):
                unit = train_unit(cfg, n_classes, seed, bundles, train_ids, test_ids)
            save_checkpoint(out_dir / "models" / f"split{si}.rep{rep}.ckpt",
                            unit.model, unit.stats)
            for mesh_id in test_ids:
                b = bundles[mesh_id]
                probs, refined = unit.probs[mesh_id], unit.refined[mesh_id]
                pred_pre = np.asarray(probs.argmax(axis=1), dtype=np.int64)
                areas = b.labeled.mesh.face_areas
                gt = b.labeled.labels
                acc_pre = accuracy(pred_pre, gt, areas)
                acc_post = accuracy(refined.labels, gt, areas)
                tag = f"{mesh_id}.split{si}.rep{rep}"
                save_probabilities(out_dir / "probs" / f"{tag}.prob", probs)
                save_labels(out_dir / "labels" / f"{tag}.seg", refined.labels)
                record_rows.append({
                    "mesh_id": mesh_id, "split": si, "replicate": rep,
                    "seed": seed, "n_faces": int(b.labeled.mesh.n_faces),
                    "accuracy_pre": acc_pre, "accuracy_post": acc_post,
                    "final_losses": unit.final_losses,
                    "refine_moves": len(refined.energy_trace) - 1,
                })
                if log:
                    log(f"split {si} rep {rep} {mesh_id}: "
                        f"pre {acc_pre:.4f} post {acc_post:.4f}")

    record_rows.sort(key=lambda r: (r["mesh_id"], r["replicate"], r["split"]))
    pre = [r["accuracy_pre"] for r in record_rows]
    post = [r["accuracy_post"] for r in record_rows]
    rep_means = [float(np.mean([r["accuracy_post"] for r in record_rows
                                if r["replicate"] == rep]))
                 for rep in range(cfg.replicates)]
    per_mesh = {}
    for lm in meshes:
        vals = [r["accuracy_post"] for r in record_rows if r["mesh_id"] == lm.mesh_id]
        if vals:
            per_mesh[lm.mesh_id] = float(np.mean(vals))
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": experiment_config_to_dict(cfg),
        "dataset": {"name": manifest.name, "classes": list(manifest.classes),
                    "n_meshes": len(meshes)},
        "splits": [{"train": list(tr), "test": list(te)} for tr, te in splits],
        "records": record_rows,
        "summary": {
            "n_records": len(record_rows),
            "mean_accuracy_pre": float(np.mean(pre)),
            "mean_accuracy_post": float(np.mean(post)),
            "replicate_means_post": rep_means,
            "replicate_spread_post": float(max(rep_means) - min(rep_means)),
            "per_mesh_post": per_mesh,
        },
    }
    (out_dir / "report.json").write_text(dump_json(report))
    return report
