"""meshseg benchmark: run one workload of the experiment protocol and print
its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the sources under `src/` and
writes only under `.bench_work/`, which it removes again. Every protocol
call runs in a fresh process (`bench/call.py`), on inputs generated from
the seed.

--trace 0 measures the end-to-end metrics: three set-up probes, then
about S seconds of untraced protocol calls; each value is the median over
the calls. --trace 1 makes one untraced call and two traced calls and
reports the per-layer metrics; the traced calls must write the same
report.json bytes as the untraced one, and the exact counts must repeat.

Every call's outputs are checked: each record's pre- and post-refinement
accuracy is recomputed from the written probability and label files, the
summary from the records, and report.json must be byte-identical to the
first call's. The last line of stdout is the result JSON; the line before
it has the per-call samples and the machine.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
SETUP_PROBES = 3
TOLERANCE = 1e-12


# BLAS threads per process: one, so feature workers x BLAS threads stays
# within the core count, and CPU time is not inflated by BLAS threads
# spinning on the network's small matmuls
BLAS_THREADS = 1
# one glibc malloc arena per process: with a second arena per feature
# thread, the heap a process keeps depends on which thread frees which
# large array, and peak RSS with two feature threads jumps between ~310
# and ~390 MB from call to call; with one arena it stays near 240 MB.
# Single-threaded calls use one arena anyway.
MALLOC_ARENAS = 1


def machine(seed: int, workers: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_lib,
            "blas_threads": BLAS_THREADS, "malloc_arenas": MALLOC_ARENAS,
            "feature_workers": workers, "seed": seed}


def child_env(src: Path) -> dict:
    blas = str(BLAS_THREADS)
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas,
                OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas,
                MALLOC_ARENA_MAX=str(MALLOC_ARENAS))


class Bench:
    def __init__(self, workload, seed: int, work: Path, env: dict, deadline: float):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.deadline = deadline
        self.report_sha = None  # sha256 of the first call's report.json

    def call(self, trace=False, setup_only=False) -> dict:
        """Run bench/call.py once in a fresh directory; check its outputs."""
        d = self.work / "call"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "call.py"), "--workload", self.wl.name,
               "--seed", str(self.seed), "--dir", str(d)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return {"error": proc.stderr.strip()[-2000:], "wall_s": wall}
        res = json.loads((d / "result.json").read_text())
        res["wall_s"] = wall
        if not setup_only and "error" not in res:
            res.update(self.verify(d))
        return res

    def verify(self, d: Path) -> dict:
        """Count the records whose written outputs check out."""
        import numpy as np
        from meshseg.formats import load_probabilities
        from meshseg.mesh import load_mesh_path

        raw = (d / "out" / "report.json").read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        if self.report_sha is None:
            self.report_sha = sha
        report = json.loads(raw)
        entries = {e["id"]: e for e in
                   json.loads((d / "data" / "manifest.json").read_text())["meshes"]}
        ok, faces = 0, 0
        for r in report["records"]:
            e = entries[r["mesh_id"]]
            mesh = load_mesh_path(d / "data" / e["mesh"])
            v = mesh.vertices[mesh.faces]
            areas = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)
            gt = np.array((d / "data" / e["labels"]).read_text().split(), dtype=np.int64)
            tag = f"{r['mesh_id']}.split{r['split']}.rep{r['replicate']}"
            probs = load_probabilities(d / "out" / "probs" / f"{tag}.prob")
            post = np.array((d / "out" / "labels" / f"{tag}.seg").read_text().split(),
                            dtype=np.int64)
            faces += r["n_faces"]
            ok += bool(r["n_faces"] == len(gt) == len(post) == len(probs)
                   and np.allclose(probs.sum(axis=1), 1.0)
                   and abs(areas[probs.argmax(axis=1) == gt].sum() / areas.sum()
                           - r["accuracy_pre"]) <= TOLERANCE
                   and abs(areas[post == gt].sum() / areas.sum()
                           - r["accuracy_post"]) <= TOLERANCE)
        s = report["summary"]
        pre = [r["accuracy_pre"] for r in report["records"]]
        post_acc = [r["accuracy_post"] for r in report["records"]]
        summary_ok = (s["n_records"] == len(report["records"]) == self.wl.records
                      and abs(s["mean_accuracy_pre"] - statistics.fmean(pre)) <= TOLERANCE
                      and abs(s["mean_accuracy_post"] - statistics.fmean(post_acc)) <= TOLERANCE)
        same = sha == self.report_sha
        return {"verified": ok if summary_ok and same else 0, "faces": faces,
                "accuracy_pre": s["mean_accuracy_pre"],
                "accuracy_post": s["mean_accuracy_post"], "same_report": same}

    def time_left(self, needed: float) -> bool:
        return time.perf_counter() + needed < self.deadline


def median_of(calls, key):
    vals = [c[key] for c in calls if key in c]
    return statistics.median(vals) if vals else 0.0


def end_to_end(bench: Bench, seconds: int) -> tuple:
    probes = [bench.call(setup_only=True) for _ in range(SETUP_PROBES)]
    calls = [bench.call()]
    n_calls = max(1, round(seconds / calls[0]["wall_s"])) if "verified" in calls[0] else 1
    while len(calls) < n_calls and bench.time_left(calls[-1]["wall_s"] * 1.5):
        calls.append(bench.call())
    good = [c for c in calls if "verified" in c]
    for c in good:
        c["faces_per_s"] = c["faces"] / c["run_s"]
    metrics = {
        "setup_s": median_of(probes + calls, "setup_s"),
        "run_s": median_of(good, "run_s"),
        "run_cpu_s": median_of(good, "run_cpu_s"),
        "faces_per_s": median_of(good, "faces_per_s"),
        "peak_rss_mb": median_of(good, "peak_rss_mb"),
        "accuracy_pre": good[0]["accuracy_pre"] if good else 0.0,
        "accuracy_post": good[0]["accuracy_post"] if good else 0.0,
    }
    return metrics, calls, probes, []


def per_layer(bench: Bench) -> tuple:
    from spans import EXACT_COUNTS
    calls = [bench.call()] + [bench.call(trace=True) for _ in range(2)]
    traced = [c for c in calls[1:] if "layers" in c]
    metrics, flags = {}, []
    if traced:
        for name in traced[0]["layers"]:
            values = [c["layers"][name] for c in traced]
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
            if name in EXACT_COUNTS and len(set(values)) > 1:
                flags.append(f"{name} differs between traced calls: {values}")
    untraced = calls[0].get("run_s")
    metrics["trace.overhead_frac"] = (median_of(traced, "run_s") / untraced - 1.0
                                      if untraced and traced else 0.0)
    for c in traced:
        del c["layers"]
    return metrics, calls, [], flags


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.perf_counter()

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "meshseg" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from the repository root: need src/meshseg and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    workers = wl.feature_workers()
    env = child_env(src)

    work = ROOT / ".bench_work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    bench = Bench(wl, args.seed, work, env, start + TIME_LIMIT_S)
    try:
        if args.trace:
            values, calls, probes, flags = per_layer(bench)
        else:
            values, calls, probes, flags = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = wl.records * len(calls)
    failed = attempted - sum(c.get("verified", 0) for c in calls)
    flags += [f"call {i}: {c['error']}" for i, c in enumerate(calls) if "error" in c]
    flags += [f"call {i}: report.json differs from call 0" for i, c in enumerate(calls)
              if c.get("same_report") is False]
    if not args.trace:
        values["verified_frac"] = (attempted - failed) / attempted
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        print(f"bench: computed metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({"bench": {
        "workload": wl.name, "trace": args.trace, "claim": None, "flags": flags,
        "machine": machine(args.seed, workers),
        "setup_probes": probes, "calls": calls}}))
    print(json.dumps({
        "correct": failed == 0 and not flags,
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
