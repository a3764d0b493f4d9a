"""Command-line surface binding the pipeline stages together.

Every subcommand prints exactly one JSON summary line on stdout and exits
0 on success. Failures print a JSON error line on stderr and exit with a
small category code:

    2  usage (argparse)
    3  invalid input (bad mesh, bad config, bad artifact contents)
    4  missing file (or a directory where a file should be)
    5  numerical failure (solver divergence, non-finite values)
    1  anything else
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from meshseg.evaluate import accuracy
from meshseg.experiment import (
    _prepare_bundles,
    check_faces,
    feature_cache_key,
    load_labeled_meshes,
    mesh_features,
    naming,
    predict,
    refine_labels,
    run_experiment,
    train_unit,
)
from meshseg.features.matrix import DEFAULT_CHANNELS, compute_features
from meshseg.formats import (
    export_colored_ply,
    load_checkpoint,
    load_experiment_config,
    load_feature_cache,
    load_labels,
    load_manifest,
    load_probabilities,
    save_checkpoint,
    save_feature_cache,
    save_labels,
    save_probabilities,
)
from meshseg.mesh import build_dual_graph, load_mesh_path, save_off
from meshseg.numerics import SolverError
from meshseg.smoothing import taubin_smooth


def cmd_features(args) -> dict:
    mesh = load_mesh_path(args.mesh)
    with naming(args.mesh):
        values, sdf_fallback_faces = compute_features(mesh)
    save_feature_cache(args.output, values, feature_cache_key(mesh))
    return {"command": "features", "mesh": str(args.mesh),
            "output": str(args.output), "n_faces": mesh.n_faces,
            "channels": list(DEFAULT_CHANNELS),
            "sdf_fallback_faces": len(sdf_fallback_faces)}


def cmd_smooth(args) -> dict:
    mesh = load_mesh_path(args.mesh)
    with naming(args.mesh):
        smoothed = taubin_smooth(mesh, iterations=args.iterations,
                                 lambda_shrink=args.lam, mu_inflate=args.mu)[-1]
    save_off(smoothed, args.output)
    return {"command": "smooth", "mesh": str(args.mesh),
            "output": str(args.output), "iterations": args.iterations,
            "volume_before": mesh.enclosed_volume(),
            "volume_after": smoothed.enclosed_volume()}


def cmd_train(args) -> dict:
    """`run`'s training unit under cfg.seed, trained on every mesh of the
    dataset and tested on none."""
    cfg = load_experiment_config(args.config)
    manifest = load_manifest(cfg.dataset)
    with naming(cfg.dataset):
        meshes = load_labeled_meshes(manifest)
    bundles = _prepare_bundles(meshes, cfg, args.threads)
    with naming("training on every mesh"):
        unit = train_unit(cfg, len(manifest.classes), cfg.seed, bundles,
                          [lm.mesh_id for lm in meshes], ())
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, unit.model, unit.stats)
    return {"command": "train", "config": str(args.config), "seed": cfg.seed,
            "checkpoint": str(out), "n_meshes": len(meshes),
            "n_faces": sum(lm.mesh.n_faces for lm in meshes),
            "final_losses": unit.final_losses}


def cmd_segment(args) -> dict:
    model, stats = load_checkpoint(args.checkpoint)
    mesh = load_mesh_path(args.mesh)
    _, scales, _, _ = model.spec
    with naming(args.mesh):
        _, stack = mesh_features(mesh, scales)
    probs = predict(model, stats, stack)
    save_probabilities(args.output, probs)
    summary = {"command": "segment", "mesh": str(args.mesh),
               "checkpoint": str(args.checkpoint), "seed": int(model.seed),
               "output": str(args.output), "n_faces": mesh.n_faces,
               "n_classes": int(probs.shape[1])}
    if args.labels_out:
        save_labels(args.labels_out, probs.argmax(axis=1))
        summary["labels_out"] = str(args.labels_out)
    return summary


def cmd_refine(args) -> dict:
    mesh = load_mesh_path(args.mesh)
    probs = load_probabilities(args.probs)
    check_faces(args.probs, len(probs), "probability rows", args.mesh, mesh)
    with naming(args.mesh):
        features = load_feature_cache(args.features, feature_cache_key(mesh))
        graph = build_dual_graph(mesh)
    check_faces(args.features, len(features), "feature rows", args.mesh, mesh)
    result = refine_labels(graph, probs, features, args.lam, args.omega)
    save_labels(args.output, result.labels)
    return {"command": "refine", "mesh": str(args.mesh),
            "output": str(args.output),
            "initial_energy": result.energy_trace[0],
            "final_energy": result.energy_trace[-1],
            "accepted_moves": len(result.energy_trace) - 1}


def cmd_eval(args) -> dict:
    mesh = load_mesh_path(args.mesh)
    pred = load_labels(args.pred)
    check_faces(args.pred, len(pred), "labels", args.mesh, mesh)
    truth = load_labels(args.truth)
    check_faces(args.truth, len(truth), "labels", args.mesh, mesh)
    acc = accuracy(pred, truth, mesh.face_areas)
    return {"command": "eval", "mesh": str(args.mesh),
            "accuracy": acc, "n_faces": mesh.n_faces}


def cmd_run(args) -> dict:
    cfg = load_experiment_config(args.config)
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    report = run_experiment(cfg, threads=args.threads, log=log)
    return {"command": "run", "config": str(args.config), "seed": cfg.seed,
            "report": str(Path(cfg.output_dir) / "report.json"),
            "n_records": report["summary"]["n_records"],
            "mean_accuracy_pre": report["summary"]["mean_accuracy_pre"],
            "mean_accuracy_post": report["summary"]["mean_accuracy_post"]}


def cmd_export_colored(args) -> dict:
    mesh = load_mesh_path(args.mesh)
    labels = load_labels(args.labels)
    check_faces(args.labels, len(labels), "labels", args.mesh, mesh)
    export_colored_ply(mesh, labels, args.output)
    return {"command": "export-colored", "mesh": str(args.mesh),
            "labels": str(args.labels), "output": str(args.output),
            "n_faces": mesh.n_faces, "n_labels": int(labels.max()) + 1 if len(labels) else 0}


def _worker_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meshseg",
        description="Per-face mesh segmentation: curvature/geodesic/diameter "
                    "features, multi-branch 1D conv nets, graph-cut refinement.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_threads(sp):
        sp.add_argument("--threads", type=_worker_count, default=1,
                        help="worker processes for per-mesh features, at most "
                             "one per mesh (default: 1)")

    sp = sub.add_parser("features", help="compute the per-face feature matrix")
    sp.add_argument("mesh")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_features)

    sp = sub.add_parser("smooth", help="volume-preserving mesh smoothing")
    sp.add_argument("mesh")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--iterations", type=int, default=5)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=-0.53)
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("train", help="train on every mesh in the dataset")
    sp.add_argument("--config", required=True)
    sp.add_argument("-o", "--output", required=True, help="checkpoint path")
    add_threads(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("segment", help="per-face class probabilities for one mesh")
    sp.add_argument("mesh")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("-o", "--output", required=True, help="probability grid path")
    sp.add_argument("--labels-out", default="")
    sp.set_defaults(func=cmd_segment)

    sp = sub.add_parser("refine", help="graph-cut cleanup of stored probabilities")
    sp.add_argument("mesh")
    sp.add_argument("--probs", required=True)
    sp.add_argument("--features", required=True,
                    help="feature cache of the mesh, from `meshseg features`")
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("eval", help="area-weighted accuracy of a labeling")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("run", help="full protocol: features, splits, training, "
                                    "refinement, report")
    sp.add_argument("--config", required=True)
    sp.add_argument("--verbose", action="store_true")
    add_threads(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("export-colored", help="write a color-per-label PLY")
    sp.add_argument("output")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--labels", required=True)
    sp.set_defaults(func=cmd_export_colored)
    return p


_CATEGORIES = (
    # a directory, or a path through a file, where a file should be
    ((FileNotFoundError, IsADirectoryError, NotADirectoryError), 4, "missing-file"),
    (ValueError, 3, "invalid-input"),
    ((SolverError, FloatingPointError), 5, "numeric"),
)


def _category(exc: BaseException):
    """(exit code, category) of the first exception along the __cause__
    chain that has one, so a wrapper that adds context keeps the code."""
    while exc is not None:
        for types, code, category in _CATEGORIES:
            if isinstance(exc, types):
                return code, category
        exc = exc.__cause__
    return 1, "internal"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.func(args)
    except Exception as exc:  # map to category codes, keep the message
        code, category = _category(exc)
        print(json.dumps({"status": "error", "category": category,
                          "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return code
    print(json.dumps({**summary, "status": "ok"}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
