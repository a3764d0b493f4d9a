"""Experiment orchestration: features with caching, split-wise training,
prediction, graph-cut refinement, and a deterministic JSON-ready report.

Raw per-face features are split-independent and cached per mesh keyed by
a content hash of the mesh file and extraction settings. Normalization is
affine per channel, so it commutes with neighborhood averaging; raw
multi-scale stacks are therefore built once and train-fold statistics are
applied per split.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshseg.evaluate import EvaluationRecord, LabeledMesh, SplitPlan, accuracy, make_splits
from meshseg.features import (
    DEFAULT_CHANNELS,
    FeatureMatrix,
    FeatureParams,
    compute_features,
    fit_stats,
    multiscale,
)
from meshseg.formats import (
    DatasetManifest,
    ExperimentConfig,
    content_hash,
    dump_json,
    experiment_config_to_dict,
    load_feature_cache,
    load_fixed_split,
    load_labels,
    load_manifest,
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


def load_labeled_meshes(manifest: DatasetManifest) -> list:
    """LabeledMesh per manifest entry, labels checked against the class
    vocabulary; failures carry the mesh id."""
    out = []
    n_classes = len(manifest.classes)
    for mesh_id, mesh_path, labels_path in manifest.entries:
        try:
            mesh = load_mesh_path(mesh_path)
            labels = load_labels(labels_path)
        except Exception as exc:
            raise RuntimeError(f"loading mesh {mesh_id!r}: {exc}") from exc
        if len(labels) and int(labels.max()) >= n_classes:
            raise ValueError(
                f"mesh {mesh_id!r}: label {int(labels.max())} outside the "
                f"{n_classes}-class vocabulary")
        out.append(LabeledMesh(mesh_id=mesh_id, mesh=mesh, labels=labels))
    return sorted(out, key=lambda lm: lm.mesh_id)


def cached_features(mesh, mesh_path, cache_dir, channels=DEFAULT_CHANNELS,
                    params: FeatureParams = FeatureParams(),
                    graph=None) -> FeatureMatrix:
    """Compute (or reuse) the raw feature matrix for one mesh.

    The cache key hashes the mesh file bytes, channel names, and
    extraction parameters; a stale or foreign cache is recomputed.
    graph, when given, is the mesh's dual graph and is reused.
    """
    key = content_hash(Path(mesh_path).read_bytes(), "\n".join(channels),
                       repr(params))
    cache_path = Path(cache_dir) / (Path(mesh_path).stem + ".feat")
    if cache_path.exists():
        try:
            names, values, stored = load_feature_cache(cache_path)
            if stored == key and names == tuple(channels):
                return FeatureMatrix(names, values)
        except Exception:
            pass  # unreadable cache: fall through to recompute
    fm = compute_features(mesh, channels, params, graph)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    save_feature_cache(cache_path, fm.channel_names, fm.values, key)
    return fm


@dataclass
class _MeshBundle:
    labeled: LabeledMesh
    graph: object
    features: FeatureMatrix
    raw_multiscale: np.ndarray  # (faces, K, channels), unnormalized


def _prepare_bundles(meshes, manifest, cfg, scales, channels, params, threads, log):
    def build(item):
        lm, (mesh_id, mesh_path, _) = item
        graph = build_dual_graph(lm.mesh)
        fm = cached_features(lm.mesh, mesh_path, Path(cfg.output_dir) / "cache",
                             channels, params, graph)
        msf = multiscale(fm.values, graph, scales, fm.channel_names)
        return _MeshBundle(lm, graph, fm, msf.values)

    entries = {e[0]: e for e in manifest.entries}
    items = [(lm, entries[lm.mesh_id]) for lm in meshes]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            bundles = list(pool.map(build, items))
    else:
        bundles = [build(item) for item in items]
    for b in bundles:
        if log:
            log(f"features ready: {b.labeled.mesh_id} ({b.labeled.mesh.n_faces} faces)")
    return {b.labeled.mesh_id: b for b in bundles}


def _split_plan(cfg: ExperimentConfig) -> SplitPlan:
    fixed = None
    if cfg.protocol == "fixed":
        fixed = load_fixed_split(cfg.fixed_split_file)
    return SplitPlan(protocol=cfg.protocol, k=cfg.k, fixed=fixed,
                     replicates=cfg.replicates)


def run_experiment(cfg: ExperimentConfig, threads: int = 1, log=None) -> dict:
    """Execute the full protocol and return the report dict.

    Artifacts land under cfg.output_dir: feature caches, per-run
    probability grids and refined label files, and report.json.
    """
    manifest = load_manifest(cfg.dataset)
    meshes = load_labeled_meshes(manifest)
    n_classes = len(manifest.classes)
    channels = DEFAULT_CHANNELS
    params = FeatureParams()
    if "agd" not in channels:
        raise ValueError("refinement requires the 'agd' channel")
    agd_col = channels.index("agd")
    scales = cfg.branches if cfg.model_kind == "cnn" else 1

    plan = _split_plan(cfg)
    splits = make_splits([lm.mesh_id for lm in meshes], plan, cfg.seed)
    bundles = _prepare_bundles(meshes, manifest, cfg, scales, channels,
                               params, threads, log)

    out_dir = Path(cfg.output_dir)
    (out_dir / "probs").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    root = SeededRng(cfg.seed)
    records = []
    record_rows = []
    for si, (train_ids, test_ids) in enumerate(splits):
        train_rows = np.vstack([bundles[m].features.values for m in train_ids])
        stats = fit_stats(train_rows)

        def norm_msf(mesh_id):
            raw = bundles[mesh_id].raw_multiscale
            return (raw - stats.mean) / stats.scale

        x_train = np.concatenate([norm_msf(m) for m in train_ids], axis=0)
        y_train = np.concatenate([bundles[m].labeled.labels for m in train_ids])
        for rep in range(plan.replicates):
            seed = root.derive_seed(f"split{si}/rep{rep}")
            model = build_model(cfg.model_kind, cfg.branches,
                                len(channels), n_classes, seed, cfg.train)
            try:
                curves = model.fit(model.prepare_inputs(x_train), y_train)
            except Exception as exc:
                raise RuntimeError(
                    f"training failed on split {si} replicate {rep}: {exc}") from exc
            final_losses = {stage: curve[-1] for stage, curve in curves.items()}
            for mesh_id in test_ids:
                b = bundles[mesh_id]
                try:
                    probs = model.predict_proba(model.prepare_inputs(norm_msf(mesh_id)))
                    pred_pre = np.asarray(probs.argmax(axis=1), dtype=np.int64)
                    problem = GraphCutProblem(
                        graph=b.graph, probabilities=probs,
                        feature=b.features.values[:, agd_col],
                        lam=cfg.lam, omega=cfg.omega)
                    refined = alpha_expansion(problem)
                except Exception as exc:
                    raise RuntimeError(
                        f"inference failed on split {si} replicate {rep} "
                        f"mesh {mesh_id!r}: {exc}") from exc
                areas = b.labeled.mesh.face_areas
                gt = b.labeled.labels
                acc_pre = accuracy(pred_pre, gt, areas)
                acc_post = accuracy(refined.labels, gt, areas)
                records.append(EvaluationRecord(
                    mesh_id=mesh_id, predicted=refined.labels, ground_truth=gt,
                    areas=areas, accuracy=acc_post, replicate_seed=seed))
                tag = f"{mesh_id}.split{si}.rep{rep}"
                save_probabilities(out_dir / "probs" / f"{tag}.prob", probs)
                save_labels(out_dir / "labels" / f"{tag}.seg", refined.labels)
                record_rows.append({
                    "mesh_id": mesh_id, "split": si, "replicate": rep,
                    "seed": seed, "n_faces": int(b.labeled.mesh.n_faces),
                    "accuracy_pre": acc_pre, "accuracy_post": acc_post,
                    "final_losses": final_losses,
                    "refine_moves": len(refined.energy_trace) - 1,
                })
                if log:
                    log(f"split {si} rep {rep} {mesh_id}: "
                        f"pre {acc_pre:.4f} post {acc_post:.4f}")

    record_rows.sort(key=lambda r: (r["mesh_id"], r["replicate"], r["split"]))
    pre = [r["accuracy_pre"] for r in record_rows]
    post = [r["accuracy_post"] for r in record_rows]
    rep_means = []
    for rep in range(plan.replicates):
        vals = [r["accuracy_post"] for r in record_rows if r["replicate"] == rep]
        rep_means.append(float(np.mean(vals)))
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
            "mean_accuracy_pre": float(np.mean(pre)) if pre else None,
            "mean_accuracy_post": float(np.mean(post)) if post else None,
            "replicate_means_post": rep_means,
            "replicate_spread_post": (float(max(rep_means) - min(rep_means))
                                      if rep_means else None),
            "per_mesh_post": per_mesh,
        },
    }
    (out_dir / "report.json").write_text(dump_json(report))
    _ = records  # EvaluationRecord construction enforces the accuracy invariant
    return report
