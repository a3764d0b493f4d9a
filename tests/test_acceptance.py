"""Release gate: every headline guarantee, one test per guarantee.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints its measured numbers on success (visible
with -rA or -s). Tolerances here are the contract, not suggestions: a
failure means the guarantee is not met.
"""
import json
import time

import numpy as np
import pytest

from conftest import random_problem, random_small_mesh
from gradcheck import LAYER_KINDS, LAYER_TOL, NETWORK_TOL, check_layer, check_network
from oracles import agd_reference, exhaustive_best_labeling, exhaustive_min_cut

from meshseg.cli import main
from meshseg.evaluate import accuracy
from meshseg.features.conformal import conformal_factor_field, vertex_to_face
from meshseg.features.curvature import angle_deficits, corner_terms, curvature_field
from meshseg.features.geodesic import average_geodesic_distance
from meshseg.features.matrix import DEFAULT_CHANNELS, compute_features, fit_stats, multiscale
from meshseg.graphcut import FlowNetwork, GraphCutProblem, alpha_expansion
from meshseg.mesh import build_dual_graph
from meshseg.neural.network import branch_output_shape, build_multibranch
from meshseg.neural.models import build_model
from meshseg.neural.training import TrainConfig
from meshseg.smoothing import taubin_smooth, umbrella_operator
from meshseg.synth import dumbbell, dumbbell_labels, icosphere, make_toy_dataset
from shapes import cube, spiked_sphere, tetrahedron


def _line(name: str, details: str) -> None:
    print(f"[acceptance] {name}: PASS ({details})")


# ------------------------------------------------------------- benchmark

@pytest.fixture(scope="module")
def bench():
    """Six ~320-face two-lobe meshes (1920 faces total) with per-face
    features and 3-scale stacks; shared by the training criteria."""
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(6):
        m = dumbbell(2, neck=float(rng.uniform(0.3, 0.42)),
                     top=float(rng.uniform(0.9, 1.2)),
                     bottom=float(rng.uniform(0.55, 0.8)))
        values, _ = compute_features(m)
        ms = multiscale(values, build_dual_graph(m), 3)
        rows.append((m, dumbbell_labels(m), values, ms))
    assert sum(m.n_faces for m, _, _, _ in rows) == 1920
    return rows


# ------------------------------------------------------------ criterion 1

def test_gradient_suite():
    t0 = time.perf_counter()
    worst_layer, failures = 0.0, []
    for kind in LAYER_KINDS:
        entries = check_layer(kind, seed=0)  # 20 seeded shapes per type
        worst_layer = max(worst_layer, max(e.max_rel_error for e in entries))
        failures.extend(e for e in entries if not e.passed)
    net_entries = check_network(seed=0, cases=20)
    worst_net = max(e.max_rel_error for e in net_entries)
    failures.extend(e for e in net_entries if not e.passed)
    elapsed = time.perf_counter() - t0
    assert not failures, [e.target for e in failures]
    assert worst_layer <= LAYER_TOL == 1e-5
    assert worst_net <= NETWORK_TOL == 1e-4
    assert elapsed < 30.0
    _line("gradient suite",
          f"layers {worst_layer:.2e} <= 1e-5, network {worst_net:.2e} <= 1e-4, "
          f"{elapsed:.1f}s < 30s")


# ------------------------------------------------------------ criterion 2

def test_architecture_shape_contract():
    net = build_multibranch(3, 800, 4, seed=0)
    assert branch_output_shape(800) == (200, 32)

    x = np.random.default_rng(0).normal(size=(2, 800, 1))
    branch = net.layers[0].branches[0]
    mid = x
    for layer in branch.layers[:4]:  # conv, norm, rectify, pool
        mid = layer.forward(mid, training=True)
    assert mid.shape == (2, 400, 16)
    outs = [b.forward(x, training=True) for b in net.layers[0].branches]
    assert all(o.shape == (2, 200, 32) for o in outs)
    merged = np.concatenate(outs, axis=2)
    assert merged.shape == (2, 200, 96)

    fc1 = net.layers[2]
    assert fc1.weight.value.shape == (200 * 96, 172)
    assert fc1.weight.value.shape[0] == 19200
    _line("architecture shapes",
          "800 -> 400x16 -> 200x32 per branch, concat 200x96, fc1 in 19200")


# ------------------------------------------------------------ criterion 3

def test_overfit_synthetic_benchmark(bench):
    t0 = time.perf_counter()
    stats = fit_stats(np.vstack([raw for _, _, raw, _ in bench]))
    x = np.concatenate([(ms - stats.mean) / stats.scale
                        for _, _, _, ms in bench])
    y = np.concatenate([labels for _, labels, _, _ in bench])
    model = build_model("cnn", 3, len(DEFAULT_CHANNELS), 2, 0, TrainConfig())
    model.fit(x, y)
    pred = model.predict_proba(x).argmax(axis=1)
    train_acc = float((pred == y).mean())
    elapsed = time.perf_counter() - t0
    assert train_acc >= 0.95
    assert elapsed < 600.0
    _line("overfit benchmark",
          f"3-branch training accuracy {train_acc:.4f} >= 0.95 on "
          f"{len(y)} faces, {elapsed:.0f}s < 600s")


# ------------------------------------------------------------ criterion 4

def test_branch_count_trend(bench):
    train, test = bench[:4], bench[4:]
    stats = fit_stats(np.vstack([raw for _, _, raw, _ in train]))

    def xview(ms, k):
        return ((ms - stats.mean) / stats.scale)[:, :k, :]

    y_train = np.concatenate([labels for _, labels, _, _ in train])
    means = {}
    for k in (1, 3):
        x_train = np.concatenate([xview(ms, k) for _, _, _, ms in train])
        accs = []
        for seed in range(5):
            model = build_model("cnn", k, len(DEFAULT_CHANNELS), 2, seed,
                                TrainConfig())
            model.fit(x_train, y_train)
            per_mesh = [
                accuracy(model.predict_proba(xview(ms, k)).argmax(axis=1),
                         labels, m.face_areas)
                for m, labels, _, ms in test]
            accs.append(float(np.mean(per_mesh)))
        means[k] = float(np.mean(accs))
    assert means[3] >= means[1] - 0.005
    _line("branch-count trend",
          f"held-out mean accuracy K=3 {means[3]:.4f} >= "
          f"K=1 {means[1]:.4f} - 0.005 over 5 seeds")


# ------------------------------------------------------------ criterion 5

def test_conformal_factor_suite():
    closed = (tetrahedron(), cube(), icosphere(2), dumbbell(1),
              spiked_sphere(2, spike=2.0))
    for mesh in closed:
        # closed manifold: E = 3F/2, all these are genus 0
        chi = mesh.n_vertices - 3 * mesh.n_faces // 2 + mesh.n_faces
        assert chi == 2
        assert abs(angle_deficits(mesh, corner_terms(mesh)).sum()
                   - 2.0 * np.pi * chi) <= 1e-6
        field = curvature_field(mesh)
        total = field.integrated_curvature.sum()
        assert abs(field.target_curvature.sum() - total) <= 1e-9 * abs(total)

    flat = float(np.abs(conformal_factor_field(icosphere(3)).original_cf).max())
    assert flat < 1e-3

    drops = []
    for amp in (1.0, 2.0, 3.0):
        mesh = spiked_sphere(2, spike=amp)
        levels = taubin_smooth(mesh, iterations=5)
        cff = conformal_factor_field(mesh, levels)
        base = float(np.abs(vertex_to_face(mesh, cff.original_cf)).max())
        level1 = float(np.abs(
            vertex_to_face(levels[0], cff.smoothed_cf[0])).max())
        assert level1 < base
        drops.append(level1 / base)

    big = icosphere(5)
    assert big.n_vertices >= 10_000
    t0 = time.perf_counter()
    conformal_factor_field(big)
    solve_s = time.perf_counter() - t0
    assert solve_s < 5.0
    _line("conformal factors",
          f"Gauss-Bonnet/conservation on {len(closed)} closed meshes, "
          f"sphere max {flat:.1e} < 1e-3, spike attenuation "
          f"{max(drops):.2f}x worst, {big.n_vertices}-vertex solve "
          f"{solve_s:.2f}s < 5s")


# ------------------------------------------------------------ criterion 6

def test_max_flow_matches_exhaustive_cuts():
    # capacities on a 1/1024 grid land exactly on the solver's integer
    # grid, so the comparison can demand equality rather than closeness
    rng = np.random.default_rng(61)
    for case in range(100):
        n = int(rng.integers(2, 9))
        arcs = []
        for _ in range(int(rng.integers(1, 2 * n * n))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                arcs.append((u, v, int(rng.integers(0, 2049)) / 1024.0))
        tails, heads, caps = ([a[k] for a in arcs] for k in range(3))
        flow = FlowNetwork(n, tails, heads, caps).max_flow(0, n - 1)
        assert flow == exhaustive_min_cut(n, arcs, 0, n - 1), f"case {case}"
    _line("max flow", "equals exhaustive min cut exactly on 100 graphs")


# ------------------------------------------------------------ criterion 7

def test_expansion_moves_near_optimal():
    rng = np.random.default_rng(72)
    exact = 0
    for case in range(50):
        problem = random_problem(rng)
        result = alpha_expansion(problem)
        trace = result.energy_trace
        assert all(b < a for a, b in zip(trace, trace[1:])), f"case {case}"
        _, opt = exhaustive_best_labeling(problem,
                                          problem.probabilities.shape[1])
        assert result.energy_trace[-1] <= 2.0 * opt + 1e-9, f"case {case}"
        exact += result.energy_trace[-1] <= opt + 1e-9
    assert exact >= 40  # equality is the norm, not a fluke

    free = GraphCutProblem(problem.graph, problem.probabilities,
                           problem.feature, lam=0.0, omega=1.0)
    assert np.array_equal(alpha_expansion(free).labels,
                          problem.probabilities.argmax(axis=1))
    _line("expansion moves",
          f"50 instances within 2x optimum, {exact} exactly optimal, "
          "lambda->0 returns argmax")


# ------------------------------------------------------------ criterion 8

def test_agd_solver_matches_dense_oracle():
    rng = np.random.default_rng(88)
    for case in range(20):
        mesh = random_small_mesh(rng, max_faces=50)
        graph = build_dual_graph(mesh)
        fast = average_geodesic_distance(mesh, graph)
        dense = agd_reference(mesh, graph)
        assert np.array_equal(fast, dense), f"case {case}"
    _line("average geodesic distance",
          "sparse solver equals all-pairs oracle bitwise on 20 meshes")


# ------------------------------------------------------------ criterion 9

def test_smoothing_preserves_volume():
    mesh = icosphere(2)
    before = mesh.enclosed_volume()
    after = taubin_smooth(mesh, iterations=5)[-1].enclosed_volume()
    drift = abs(after - before) / before
    assert drift <= 0.02

    op = umbrella_operator(mesh)
    v = np.array(mesh.vertices)
    for _ in range(5):
        v = v + 0.5 * (op @ v)
    shrunk = type(mesh)(v, mesh.faces).enclosed_volume()
    shrink = (before - shrunk) / before
    assert shrink > 0.05
    _line("smoothing volume",
          f"shrink/inflate drift {drift:.3%} <= 2%, plain-shrink control "
          f"loses {shrink:.1%} > 5%")


# ----------------------------------------------------------- criterion 10

def test_accuracy_metric_fixtures():
    pred = np.array([0, 1, 2, 0])
    truth = np.array([0, 1, 2, 3])
    equal = np.ones(4)
    assert accuracy(truth, truth, equal) == 1.0
    assert accuracy(pred, truth, equal) == 0.75
    # the mistake sits on the dominant face: area weighting must punish it
    skewed = np.array([1.0, 1.0, 1.0, 7.0])
    assert accuracy(pred, truth, skewed) == pytest.approx(0.3)
    for scale in (1e-6, 1e3, 1e6):
        assert accuracy(pred, truth, skewed * scale) == pytest.approx(
            0.3, rel=1e-12)
    _line("accuracy metric",
          "0.75 fixture, 0.3 area-weighted fixture, uniform-scale invariant")


# ----------------------------------------------------------- criterion 11

def test_full_run_is_byte_identical(tmp_path):
    manifest = make_toy_dataset(tmp_path / "data", n_meshes=4,
                                subdivisions=1, seed=0)
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(manifest),
        "protocol": {"kind": "kfold", "k": 2, "replicates": 1},
        "model": {"kind": "cnn", "branches": 2},
        "train": {"epochs": 3, "batch_size": 64},
        "lambda": 1.0, "omega": 1.0, "seed": 9,
        "output_dir": str(out_dir)}))
    assert main(["run", "--config", str(cfg_path), "--threads", "1"]) == 0
    first = (out_dir / "report.json").read_bytes()
    assert main(["run", "--config", str(cfg_path), "--threads", "1"]) == 0
    second = (out_dir / "report.json").read_bytes()
    assert first and first == second
    _line("determinism",
          f"two executions produced identical {len(first)}-byte reports")
