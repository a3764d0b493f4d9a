import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshseg.graphcut as graphcut
from meshseg.mesh import build_dual_graph
from meshseg.graphcut import (
    CAPACITY_LIMIT,
    FlowNetwork,
    GraphCutProblem,
    alpha_expansion,
    labeling_energy,
)
from meshseg import synth
from conftest import random_problem, synthetic_graph
from oracles import (
    DinicFlowNetwork,
    edge_costs_loop,
    exhaustive_best_labeling,
    exhaustive_min_cut,
    expansion_move_dinic,
    labeling_energy_reference,
)


# ---------------------------------------------------------- smoothness cost

def one_edge_cost(theta, f_u, f_v, omega):
    """edge_costs of the one edge of a two-face problem, at lambda 1."""
    graph = synthetic_graph(2, [(0, 1)], [theta])
    problem = GraphCutProblem(graph, np.full((2, 2), 0.5),
                              np.array([f_u, f_v]), lam=1.0, omega=omega)
    return problem.edge_costs()[0]


def test_smoothness_flat_edge_is_free():
    assert one_edge_cost(math.pi, 0.0, 5.0, 1.0) == 0.0


def test_smoothness_concave_edge_costs_log():
    assert one_edge_cost(math.pi / 2, 0.3, 0.3, 1.0) == pytest.approx(math.log(2.0))


def test_smoothness_feature_distance_discounts_to_zero():
    # ln 2 - omega * |df| goes negative and clamps
    assert one_edge_cost(math.pi / 2, 0.0, 2.0, 1.0) == 0.0


def test_smoothness_convex_edge_is_free():
    assert one_edge_cost(1.5 * math.pi, 0.0, 0.0, 1.0) == 0.0


def test_smoothness_rejects_nonpositive_angle():
    with pytest.raises(ValueError):
        one_edge_cost(0.0, 0.0, 0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 2 * math.pi), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 3))
def test_smoothness_symmetric_and_nonnegative(theta, fu, fv, omega):
    cost = one_edge_cost(theta, fu, fv, omega)
    assert cost >= 0.0
    assert cost == one_edge_cost(theta, fv, fu, omega)


# --------------------------------------------- max flow: float Dinic oracle

def test_flow_single_arc():
    net = DinicFlowNetwork(2)
    net.add_edge(0, 1, 3.0)
    assert net.max_flow(0, 1) == pytest.approx(3.0)


def test_flow_diamond():
    # s=0, a=1, b=2, t=3
    net = DinicFlowNetwork(4)
    net.add_edge(0, 1, 2.0)
    net.add_edge(0, 2, 2.0)
    net.add_edge(1, 3, 2.0)
    net.add_edge(2, 3, 1.0)
    net.add_edge(1, 2, 1.0)
    assert net.max_flow(0, 3) == pytest.approx(3.0)


def test_flow_matches_exhaustive_cut_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        arcs = []
        net = DinicFlowNetwork(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    cap = float(rng.uniform(0.0, 4.0))
                    net.add_edge(u, v, cap)
                    arcs.append((u, v, cap))
        want = exhaustive_min_cut(n, arcs, 0, n - 1)
        assert net.max_flow(0, n - 1) == pytest.approx(want, abs=1e-9)


def test_flow_source_side_is_a_minimum_cut():
    rng = np.random.default_rng(5)
    n = 7
    arcs = []
    net = DinicFlowNetwork(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.5:
                cap = float(rng.uniform(0.1, 3.0))
                net.add_edge(u, v, cap)
                arcs.append((u, v, cap))
    flow = net.max_flow(0, n - 1)
    seen = net.source_side(0)
    assert seen[0] and not seen[n - 1]
    cut = sum(c for u, v, c in arcs if seen[u] and not seen[v])
    assert cut == pytest.approx(flow, abs=1e-9)


def test_flow_validation():
    with pytest.raises(ValueError):
        DinicFlowNetwork(1)
    net = DinicFlowNetwork(3)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, -1.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, math.inf)
    with pytest.raises(ValueError):
        net.max_flow(1, 1)


# ------------------------------------------------ max flow on scipy arrays

def random_arcs(rng, n, draw):
    """(tails, heads, caps) of a random simple digraph on n nodes."""
    arcs = [(u, v, draw()) for u in range(n) for v in range(n)
            if u != v and rng.random() < 0.45]
    return arcs, FlowNetwork(n, [a[0] for a in arcs], [a[1] for a in arcs],
                             [a[2] for a in arcs])


def cut_value(arcs, seen):
    return sum(c for u, v, c in arcs if seen[u] and not seen[v])


def test_flow_network_exact_on_dyadic_capacities():
    # capacities on a 1/1024 grid fit the int32 grid exactly, so flow and
    # cut must equal the exhaustive minimum, not merely approach it
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        arcs, net = random_arcs(rng, n, lambda: int(rng.integers(0, 4097)) / 1024.0)
        want = exhaustive_min_cut(n, arcs, 0, n - 1)
        assert net.max_flow(0, n - 1) == want
        assert cut_value(arcs, net.source_side(0)) == want


def test_flow_network_within_grid_on_arbitrary_floats():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        arcs, net = random_arcs(rng, n, lambda: float(rng.uniform(0.0, 4.0)))
        want = exhaustive_min_cut(n, arcs, 0, n - 1)
        assert abs(net.max_flow(0, n - 1) - want) <= len(arcs) * net.grid


def test_flow_network_source_side_is_a_minimum_cut():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        arcs, net = random_arcs(rng, n, lambda: float(rng.uniform(0.1, 3.0)))
        flow = net.max_flow(0, n - 1)
        seen = net.source_side(0)
        assert seen[0] and not seen[n - 1]
        # exact on the quantized capacities the solver saw
        quantized = net.caps.toarray()
        assert quantized[seen][:, ~seen].sum() * net.grid == flow
        want = exhaustive_min_cut(n, arcs, 0, n - 1)
        assert abs(cut_value(arcs, seen) - want) <= len(arcs) * net.grid


def test_flow_network_does_not_wrap_large_capacities():
    # scipy keeps capacities in int32; unscaled, 2**40 would wrap to a
    # flow of 0
    net = FlowNetwork(2, [0], [1], [2.0**40])
    assert net.max_flow(0, 1) == 2.0**40
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        arcs, net = random_arcs(rng, n, lambda: float(10.0 ** rng.uniform(-3, 12)))
        assert 0 <= net.caps.data.min() and net.caps.sum() < CAPACITY_LIMIT
        want = exhaustive_min_cut(n, arcs, 0, n - 1)
        assert abs(net.max_flow(0, n - 1) - want) <= len(arcs) * net.grid


def test_flow_network_without_arcs():
    net = FlowNetwork(3, [], [], [])
    assert net.max_flow(0, 2) == 0.0
    assert net.source_side(0).tolist() == [True, False, False]


def test_flow_network_validation():
    with pytest.raises(ValueError, match="two nodes"):
        FlowNetwork(1, [], [], [])
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="capacities"):
            FlowNetwork(3, [0], [1], [bad])
    with pytest.raises(ValueError, match="differ"):
        FlowNetwork(3, [0], [1], [1.0]).max_flow(1, 1)


# ------------------------------------------------------------------ problem

def test_problem_validation(tet, tet_graph):
    good = np.full((4, 2), 0.5)
    feat = np.zeros(4)
    GraphCutProblem(tet_graph, good, feat)
    with pytest.raises(ValueError, match="faces, classes"):
        GraphCutProblem(tet_graph, np.full((3, 2), 0.5), np.zeros(3))
    with pytest.raises(ValueError, match="feature length"):
        GraphCutProblem(tet_graph, good, np.zeros(5))
    with pytest.raises(ValueError, match="sum to 1"):
        GraphCutProblem(tet_graph, np.full((4, 2), 0.3), feat)
    with pytest.raises(ValueError, match="nonnegative"):
        bad = good.copy()
        bad[0] = [1.5, -0.5]
        GraphCutProblem(tet_graph, bad, feat)
    with pytest.raises(ValueError, match="lambda"):
        GraphCutProblem(tet_graph, good, feat, lam=-1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_problem_rejects_nonfinite_lambda(tet_graph, lam):
    with pytest.raises(ValueError, match="lambda"):
        GraphCutProblem(tet_graph, np.full((4, 2), 0.5), np.zeros(4), lam=lam)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_problem_rejects_nonfinite_omega(tet_graph, omega):
    # max(0.0, nan) is 0.0, so a NaN omega would silently zero every edge
    with pytest.raises(ValueError, match="omega"):
        GraphCutProblem(tet_graph, np.full((4, 2), 0.5), np.zeros(4),
                        omega=omega)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_problem_rejects_nonfinite_feature(tet_graph, value):
    feat = np.zeros(4)
    feat[2] = value
    with pytest.raises(ValueError, match="feature values"):
        GraphCutProblem(tet_graph, np.full((4, 2), 0.5), feat)


def test_data_costs_clamp_zero_probabilities(tet_graph):
    probs = np.zeros((4, 2))
    probs[:, 0] = 1.0
    problem = GraphCutProblem(tet_graph, probs, np.zeros(4))
    costs = problem.data_costs()
    assert costs[:, 0] == pytest.approx(np.zeros(4), abs=1e-12)
    assert costs[:, 1] == pytest.approx(np.full(4, -math.log(1e-10)))


def test_convex_solid_has_free_edges(tet_graph):
    # every edge of a regular tetrahedron is convex: no smoothness cost
    probs = np.full((4, 2), 0.5)
    problem = GraphCutProblem(tet_graph, probs, np.zeros(4), lam=2.0)
    assert np.all(problem.edge_costs() == 0.0)


# dihedrals: exactly flat, concave, convex, and anything in (0, 2 pi)
DIHEDRALS = st.one_of(st.just(math.pi), st.floats(1e-3, math.pi),
                      st.floats(math.pi, 2 * math.pi),
                      st.floats(1e-6, 2 * math.pi))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 8), st.one_of(st.just(0.0), st.floats(0, 3)),
       st.floats(0, 3))
def test_edge_costs_equal_per_edge_loop(data, n, omega, lam):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]),
                               max_size=12, unique=True))
    dihedrals = data.draw(st.lists(DIHEDRALS, min_size=len(pairs),
                                   max_size=len(pairs)))
    feature = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n,
                                          max_size=n)))
    problem = GraphCutProblem(synthetic_graph(n, pairs, dihedrals),
                              np.full((n, 2), 0.5), feature, lam=lam,
                              omega=omega)
    # array_equal: signed zeros may differ, nothing else may
    assert np.array_equal(problem.edge_costs(), edge_costs_loop(problem))


def test_edge_costs_equal_per_edge_loop_on_mesh():
    # np.log would differ from math.log in the last bit on some of these
    # angles
    mesh = synth.dumbbell(3)
    probs = np.full((mesh.n_faces, 2), 0.5)
    for omega in (0.0, 1.0):
        problem = GraphCutProblem(build_dual_graph(mesh), probs,
                                  mesh.face_centroids[:, 2], omega=omega)
        assert np.array_equal(problem.edge_costs(), edge_costs_loop(problem))


def test_labeling_energy_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(30):
        problem = random_problem(rng)
        labels = rng.integers(0, problem.n_classes, problem.graph.n_faces)
        got = labeling_energy(problem, labels)
        want = labeling_energy_reference(problem, labels)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="label count"):
        labeling_energy(problem, np.zeros(99, dtype=int))


# --------------------------------------------------------- alpha expansion

def test_expansion_with_zero_lambda_returns_argmax():
    rng = np.random.default_rng(7)
    problem = random_problem(rng)
    problem = GraphCutProblem(problem.graph, problem.probabilities,
                              problem.feature, lam=0.0, omega=1.0)
    result = alpha_expansion(problem)
    assert np.array_equal(result.labels, problem.probabilities.argmax(axis=1))
    assert len(result.energy_trace) == 1  # argmax is already optimal


def test_expansion_flips_weak_face_to_match_neighbor():
    # concave shared edge; the right face weakly prefers label 1 but pays
    # ln 2 to disagree, so it joins the confident left face
    graph = synthetic_graph(2, [(0, 1)], [math.pi / 2])
    probs = np.array([[0.9, 0.1], [0.45, 0.55]])
    problem = GraphCutProblem(graph, probs, np.zeros(2), lam=1.0, omega=0.0)
    result = alpha_expansion(problem)
    assert result.labels.tolist() == [0, 0]
    assert result.energy_trace[-1] < result.energy_trace[0]
    assert result.energy_trace[-1] == pytest.approx(-math.log(0.9) - math.log(0.45))


def test_expansion_reaches_exhaustive_optimum_on_tiny_problems():
    rng = np.random.default_rng(13)
    optimal = 0
    for _ in range(20):
        problem = random_problem(rng)
        result = alpha_expansion(problem)
        best_labels, best = exhaustive_best_labeling(problem, problem.n_classes)
        assert result.energy_trace[-1] <= 2.0 * best + 1e-9
        if result.energy_trace[-1] <= best + 1e-9:
            optimal += 1
    assert optimal >= 16  # expansions that stop short of the optimum are rare


def test_expansion_trace_strictly_decreasing():
    rng = np.random.default_rng(41)
    for _ in range(10):
        problem = random_problem(rng)
        trace = alpha_expansion(problem).energy_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_expansion_on_edgeless_graph():
    graph = synthetic_graph(3, np.zeros((0, 2)), np.zeros(0))
    probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
    result = alpha_expansion(GraphCutProblem(graph, probs, np.zeros(3)))
    assert result.labels.tolist() == [0, 1, 0]
    assert result.energy_trace[0] == pytest.approx(
        -np.log([0.8, 0.7, 0.6]).sum())


@pytest.fixture
def flow_networks(monkeypatch):
    """(arc count, grid) of every FlowNetwork the expansion moves build."""
    built = []

    class Recording(FlowNetwork):
        def __init__(self, n_nodes, tails, heads, caps):
            super().__init__(n_nodes, tails, heads, caps)
            built.append((len(caps), self.grid))

    monkeypatch.setattr(graphcut, "FlowNetwork", Recording)
    return built


def assert_moves_match_dinic(problem, labels, flow_networks):
    data, pair = problem.data_costs(), problem.edge_costs()
    for alpha in range(problem.n_classes):
        flow_networks.clear()
        got = graphcut._expansion_move(problem, labels, alpha, data, pair)
        want = expansion_move_dinic(problem, labels, alpha, data, pair)
        bound = sum(n_arcs * grid for n_arcs, grid in flow_networks)
        assert (labeling_energy(problem, got, data, pair)
                <= labeling_energy(problem, want, data, pair) + bound)


def test_expansion_moves_match_dinic_on_random_problems(flow_networks):
    rng = np.random.default_rng(17)
    for _ in range(40):
        problem = random_problem(rng)
        for labels in (problem.probabilities.argmax(axis=1),
                       rng.integers(0, problem.n_classes, problem.graph.n_faces)):
            assert_moves_match_dinic(problem, labels, flow_networks)


@pytest.mark.parametrize("subdivisions", [2, 3, 4])
def test_expansion_moves_match_dinic_on_dumbbells(subdivisions, flow_networks):
    mesh = synth.dumbbell(subdivisions)
    graph = build_dual_graph(mesh)
    rng = np.random.default_rng(subdivisions)
    for classes, feature in ((2, np.zeros(mesh.n_faces)),
                             (3, mesh.face_centroids[:, 2])):
        probs = rng.dirichlet(np.ones(classes), size=mesh.n_faces)
        problem = GraphCutProblem(graph, probs, feature)
        assert_moves_match_dinic(problem, probs.argmax(axis=1), flow_networks)


def test_expansion_improves_noisy_labels_on_mesh():
    mesh = synth.dumbbell(1)
    graph = build_dual_graph(mesh)
    labels = synth.dumbbell_labels(mesh)
    rng = np.random.default_rng(3)
    probs = np.where(labels[:, None] == np.arange(2), 0.7, 0.3).astype(float)
    flip = rng.random(mesh.n_faces) < 0.15
    probs[flip] = probs[flip][:, ::-1]
    feature = np.zeros(mesh.n_faces)
    problem = GraphCutProblem(graph, probs, feature, lam=1.0, omega=0.0)
    result = alpha_expansion(problem)
    before = (probs.argmax(axis=1) == labels).mean()
    after = (result.labels == labels).mean()
    assert after >= before
    assert result.energy_trace[-1] <= result.energy_trace[0]
