"""Outside-in tracing of one `run_experiment` call.

The tracer wraps the module attributes that `meshseg.experiment` and
`meshseg.features.matrix` call through, plus the forward/backward methods
of the network layer classes, and records one span per call: name, start,
end and parent span. Nothing under `src/` is edited; `uninstall`
puts every original back. `layer_metrics` turns the spans of one call
into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name): plain functions, patched where the
# caller looks them up
FUNCTIONS = [
    ("meshseg.experiment", "load_manifest", "formats.load_manifest"),
    ("meshseg.experiment", "load_labeled_meshes", "experiment.load_meshes"),
    ("meshseg.experiment", "load_mesh_path", "mesh.load"),
    ("meshseg.experiment", "make_splits", "evaluate.make_splits"),
    ("meshseg.experiment", "_prepare_bundles", "experiment.feature_stage"),
    ("meshseg.experiment", "cached_features", "experiment.cached_features"),
    ("meshseg.experiment", "compute_features", "features.compute"),
    ("meshseg.experiment", "save_feature_cache", "formats.cache_write"),
    ("meshseg.experiment", "build_dual_graph", "mesh.dual_graph"),
    ("meshseg.experiment", "multiscale", "features.multiscale"),
    ("meshseg.experiment", "fit_stats", "features.fit_stats"),
    ("meshseg.experiment", "build_model", "neural.build_model"),
    ("meshseg.experiment", "alpha_expansion", "graphcut.refine"),
    ("meshseg.experiment", "accuracy", "evaluate.accuracy"),
    ("meshseg.experiment", "save_probabilities", "formats.save_probabilities"),
    ("meshseg.experiment", "save_labels", "formats.save_labels"),
    ("meshseg.experiment", "dump_json", "formats.dump_report"),
    ("meshseg.features.matrix", "build_dual_graph", "mesh.dual_graph"),
    ("meshseg.features.matrix", "taubin_smooth", "smoothing.taubin"),
    ("meshseg.features.matrix", "curvature_field", "features.curvature"),
    ("meshseg.features.matrix", "conformal_factor_field", "features.conformal"),
    ("meshseg.features.matrix", "average_geodesic_distance", "features.agd"),
    ("meshseg.features.matrix", "shape_diameter", "features.sdf"),
    ("meshseg.features.conformal", "solve_singular_spd", "numerics.cg"),
    ("meshseg.neural.training", "sgd_step", "neural.sgd"),
    ("meshseg.neural.training", "softmax_cross_entropy", "neural.loss"),
]

# (module, class, method, span name): methods, patched on the class
METHODS = [
    ("meshseg.neural.models", cls, method, name)
    for cls in ("CnnModel", "PcaNnModel")
    for method, name in (("fit", "neural.train"), ("predict_proba", "neural.predict"))
] + [
    ("meshseg.neural.layers", cls, method, f"neural.{tag}.{method}")
    for cls, tag in (("Conv1D", "conv1d"), ("BatchNorm", "batchnorm"),
                     ("MaxPool1D", "maxpool"), ("LeakyReLU", "leakyrelu"),
                     ("Dense", "dense"))
    for method in ("forward", "backward")
] + [
    ("meshseg.graphcut", "FlowNetwork", "max_flow", "graphcut.maxflow"),
    ("meshseg.numerics", "SparseSymmetric", "matvec", "numerics.matvec"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _describe(name: str, args, kwargs, result) -> dict:
    """Counts read off a call's arguments and result, where they exist."""
    if name == "neural.conv1d.forward":
        layer, x = args[0], args[1]
        b, length, _ = x.shape
        return {"kernel": layer.kernel, "flops": 2.0 * b * length * layer.kernel
                * layer.in_channels * layer.out_channels}
    if name == "neural.conv1d.backward":
        layer, grad = args[0], args[1]
        b, length, _ = grad.shape
        return {"kernel": layer.kernel, "flops": 4.0 * b * length * layer.kernel
                * layer.in_channels * layer.out_channels}
    if name == "features.sdf":
        n_rays = kwargs.get("n_rays", args[1] if len(args) > 1 else 30)
        return {"rays": len(result.hit_counts) * n_rays,
                "hits": int(result.hit_counts.sum()),
                "fallback": len(result.fallback_faces)}
    if name == "graphcut.refine":
        trace = result.energy_trace
        return {"moves": len(trace) - 1, "e0": trace[0], "e1": trace[-1]}
    if name == "formats.cache_write":
        return {"bytes": os.path.getsize(args[0])}
    if name == "neural.train":
        model, x = args[0], args[1]
        return {"samples": len(x) * model.train_cfg.epochs}
    if name == "neural.predict":
        return {"rows": len(args[1])}
    if name == "experiment.feature_stage":
        return {"faces": sum(lm.mesh.n_faces for lm in args[0])}
    return {}


class Tracer:
    """Patches the program's layer boundaries and keeps spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's outermost span belongs to whatever the main
            # thread has open, which is the stage that started the pool
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = Span(name, time.perf_counter(), parent=parent)
            with self._lock:
                self.spans.append(span)
                stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _describe(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for mod_name, attr, name in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list, run_start: float, run_end: float) -> dict:
    """Per-layer metrics of one traced call, keyed by BENCHMARK.json name.

    Times are summed busy seconds over all calls (and all threads);
    counts are exact counts of calls or of work read off results.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by_name.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "mesh.load_s": total("mesh.load"),
        "mesh.dual_graph_s": total("mesh.dual_graph"),
        "mesh.dual_graph_calls": calls("mesh.dual_graph"),
        "smoothing.taubin_s": total("smoothing.taubin"),
        "features.curvature_s": total("features.curvature"),
        "features.conformal_s": total("features.conformal"),
        "numerics.cg_calls": calls("numerics.cg"),
        "numerics.cg_matvecs": calls("numerics.matvec"),
        "numerics.cg_s": total("numerics.cg"),
        "features.sdf_s": total("features.sdf"),
        "features.sdf_rays": info_sum("features.sdf", "rays"),
        "features.sdf_hit_ratio": ratio(info_sum("features.sdf", "hits"),
                                        info_sum("features.sdf", "rays")),
        "features.sdf_fallback_faces": info_sum("features.sdf", "fallback"),
        "features.agd_s": total("features.agd"),
        "features.compute_s": total("features.compute"),
        "features.multiscale_s": total("features.multiscale"),
        "formats.cache_write_s": total("formats.cache_write"),
        "formats.cache_write_bytes": info_sum("formats.cache_write", "bytes"),
        "experiment.cache_hit_ratio": ratio(
            calls("experiment.cached_features") - calls("features.compute"),
            calls("experiment.cached_features")),
        "experiment.feature_stage_s": total("experiment.feature_stage"),
        "neural.train_s": total("neural.train"),
        "neural.train_samples_per_s": ratio(info_sum("neural.train", "samples"),
                                            total("neural.train")),
        "neural.sgd_steps": calls("neural.sgd"),
        "neural.sgd_s": total("neural.sgd"),
        "neural.loss_s": total("neural.loss"),
        "neural.predict_s": total("neural.predict"),
        "neural.predict_faces_per_s": ratio(info_sum("neural.predict", "rows"),
                                            total("neural.predict")),
        "graphcut.refine_s": total("graphcut.refine"),
        "graphcut.moves": info_sum("graphcut.refine", "moves"),
        "graphcut.maxflow_calls": calls("graphcut.maxflow"),
        "graphcut.maxflow_s": total("graphcut.maxflow"),
        "graphcut.energy_drop": ratio(
            info_sum("graphcut.refine", "e0") - info_sum("graphcut.refine", "e1"),
            info_sum("graphcut.refine", "e0")),
    }
    faces = info_sum("experiment.feature_stage", "faces")
    m["features.faces_per_s"] = ratio(faces, total("features.compute"))

    stage_ids = {i for i, s in enumerate(spans) if s.name == "experiment.feature_stage"}
    busy = sum(s.duration for s in spans if s.parent in stage_ids)
    m["experiment.feature_parallelism"] = ratio(busy, total("experiment.feature_stage"))

    for kernel in (15, 11):
        fwd = [s for s in by_name.get("neural.conv1d.forward", []) if s.info["kernel"] == kernel]
        bwd = [s for s in by_name.get("neural.conv1d.backward", []) if s.info["kernel"] == kernel]
        t_fwd = sum(s.duration for s in fwd)
        t_bwd = sum(s.duration for s in bwd)
        flops = sum(s.info["flops"] for s in fwd + bwd)
        m[f"neural.conv1d_k{kernel}.fwd_s"] = t_fwd
        m[f"neural.conv1d_k{kernel}.bwd_s"] = t_bwd
        m[f"neural.conv1d_k{kernel}.gflops"] = ratio(flops, t_fwd + t_bwd) / 1e9
    for tag in ("batchnorm", "maxpool", "leakyrelu", "dense"):
        m[f"neural.{tag}.fwd_s"] = total(f"neural.{tag}.forward")
        m[f"neural.{tag}.bwd_s"] = total(f"neural.{tag}.backward")

    top = [(max(s.start, run_start), min(s.end, run_end))
           for s in spans if s.parent is None]
    m["trace.coverage"] = ratio(_union_length(top), run_end - run_start)
    return m


# counts that must repeat exactly for one code version and seed
EXACT_COUNTS = (
    "mesh.dual_graph_calls", "numerics.cg_calls", "numerics.cg_matvecs",
    "neural.sgd_steps", "graphcut.moves", "graphcut.maxflow_calls",
    "features.sdf_rays", "features.sdf_hit_ratio",
)
