#!/usr/bin/env python
"""End-to-end demo: build the dumbbell set, run the k-fold protocol with
the multi-branch conv net, and print the accuracy summary.

Roughly a minute at default settings; pass --fast for a quick smoke run.
"""
import argparse
from pathlib import Path

from meshseg.experiment import run_experiment
from meshseg.formats import dump_json, load_experiment_config
from meshseg.synth import make_toy_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="toy-run")
    ap.add_argument("--branches", type=int, default=3, help="cnn only")
    ap.add_argument("--model", default="cnn", choices=["cnn", "pca-nn", "ae-nn"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--replicates", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--fast", action="store_true",
                    help="fewer meshes and epochs for a smoke test")
    args = ap.parse_args()

    work = Path(args.workdir)
    n_meshes = 4 if args.fast else 10
    epochs = 8 if args.fast else 50
    manifest = make_toy_dataset(work / "data", n_meshes=n_meshes,
                                subdivisions=2, seed=args.seed)
    cfg_doc = {
        "dataset": str(manifest),
        "protocol": {"kind": "kfold", "k": 2 if args.fast else 5,
                     "replicates": args.replicates},
        "model": ({"kind": "cnn", "branches": args.branches} if args.model == "cnn"
                  else {"kind": args.model}),
        "train": {"epochs": epochs, "batch_size": 256,
                  "lr_start": 1e-2, "lr_end": 1e-4, "momentum": 0.9},
        "lambda": 1.0,
        "omega": 1.0,
        "seed": args.seed,
        "output_dir": str(work / "out"),
    }
    cfg_path = work / "exp.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(dump_json(cfg_doc))
    cfg = load_experiment_config(cfg_path)
    report = run_experiment(cfg, threads=args.threads,
                            log=lambda m: print(f"  {m}"))
    s = report["summary"]
    print(f"records: {s['n_records']}")
    print(f"mean accuracy before refinement: {s['mean_accuracy_pre']:.4f}")
    print(f"mean accuracy after refinement:  {s['mean_accuracy_post']:.4f}")
    print(f"report: {work / 'out' / 'report.json'}")


if __name__ == "__main__":
    main()
