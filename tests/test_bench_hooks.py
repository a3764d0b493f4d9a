"""The benchmark tracer (`bench/spans.py`) patches module attributes and
class methods by name. A refactor that moves a stage out from under one of
those names would silently drop its span, so every hook must still resolve.
"""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves(spans):
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_every_traced_method_resolves(spans):
    missing = []
    for mod, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing


def test_feature_stages_record_their_spans(spans):
    # resolving is not enough: a stage reached through another name would
    # leave its hook in place and record nothing
    from meshseg import synth
    from meshseg.features.matrix import compute_features

    tracer = spans.Tracer()
    tracer.install()
    try:
        compute_features(synth.dumbbell(1))
    finally:
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    for name in ("smoothing.taubin", "features.curvature", "features.conformal",
                 "features.agd", "features.sdf", "mesh.dual_graph"):
        assert counts[name] == 1, name
    assert counts["numerics.cg"] == 6  # the mesh and its five smoothed levels
    assert counts["numerics.matvec"] >= 1
