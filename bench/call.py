"""One protocol call of a benchmark workload, in a fresh process.

    python3 bench/call.py --workload NAME --seed N --dir DIR [--trace] [--setup-only]

Set-up (imports, dataset generation into DIR/data, writing and parsing the
config) is timed from the first line of this file. Then `run_experiment`
runs once, with its outputs under DIR/out, optionally under the
outside-in tracer. The measurements go to DIR/result.json. `bench/run.py`
starts this script with `src/` on PYTHONPATH.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from meshseg.experiment import run_experiment
    from meshseg.formats import dump_json, load_experiment_config
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    manifest = wl.generate(args.dir / "data", args.seed)
    cfg_path = args.dir / "config.json"
    cfg_path.write_text(dump_json(wl.config(manifest, args.dir / "out", args.seed)))
    cfg = load_experiment_config(cfg_path)
    result = {"setup_s": time.perf_counter() - T0}

    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            run_experiment(cfg, threads=wl.feature_workers())
        except Exception as exc:  # reported as failed records, not a crash
            result["error"] = f"{type(exc).__name__}: {exc}"
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans, wall0, wall1)
        result.update(
            run_s=wall1 - wall0, run_cpu_s=cpu1 - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    (args.dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
