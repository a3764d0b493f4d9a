"""Label refinement by alpha-expansion over the face dual graph.

The energy combines a per-face data term (negative log probability) with
a pairwise term that is cheap across concave, feature-dissimilar edges
and expensive across flat or convex ones. Each expansion move reduces to
a binary s-t min cut, solved with scipy's Dinic max-flow on capacities
quantized to a power-of-two grid. The cut is exact on that grid, so its
cost under the float capacities is within one grid step per arc of the
minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from meshseg.mesh import DualGraph

P_MIN = 1e-10
CAPACITY_LIMIT = 2**31  # scipy holds capacities in int32 and wraps past it


class FlowNetwork:
    """Directed flow network given as arc arrays; parallel arcs add up.

    The float capacities are scaled by the largest power of two that keeps
    their rounded sum below 2**31, so no capacity, flow or residual can
    wrap, and `grid` is the capacity of one integer step.
    """

    def __init__(self, n_nodes: int, tails, heads, caps):
        caps = np.asarray(caps, dtype=np.float64)
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        if not np.isfinite(caps).all():
            raise ValueError("capacities must be finite")
        if (caps < 0.0).any():
            raise ValueError("capacities must be nonnegative")
        self.n_nodes = n_nodes
        # start where the unrounded sum reaches 2**31, then step down
        exponent = 32 - math.frexp(caps.sum())[1]
        while np.rint(np.ldexp(caps, exponent)).sum() >= CAPACITY_LIMIT:
            exponent -= 1
        self.grid = math.ldexp(1.0, -exponent)
        scaled = np.rint(np.ldexp(caps, exponent)).astype(np.int32)
        self.caps = sp.csr_matrix((scaled, (tails, heads)),
                                  shape=(n_nodes, n_nodes))
        self.residual = self.caps

    def max_flow(self, source: int, sink: int) -> float:
        if source == sink:
            raise ValueError("source and sink must differ")
        result = maximum_flow(self.caps, source, sink, method="dinic")
        self.residual = self.caps - result.flow
        return float(result.flow_value) * self.grid

    def source_side(self, source: int) -> np.ndarray:
        """Nodes reachable from the source in the residual graph; with the
        flow maximal, this is a minimum cut's source component."""
        open_arcs = self.residual > 0
        seen = np.zeros(self.n_nodes, dtype=bool)
        seen[breadth_first_order(open_arcs, source,
                                 return_predecessors=False)] = True
        return seen


@dataclass(frozen=True)
class GraphCutProblem:
    """Everything an expansion needs: topology, probabilities, the per-face
    scalar feature entering the smoothness term, and the two balances."""

    graph: DualGraph
    probabilities: np.ndarray  # (faces, classes)
    feature: np.ndarray        # (faces,)
    lam: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        p = self.probabilities
        if p.ndim != 2 or len(p) != self.graph.n_faces:
            raise ValueError("probabilities must be (faces, classes)")
        if len(self.feature) != self.graph.n_faces:
            raise ValueError("feature length must match face count")
        if (p < 0).any() or not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("probability rows must be nonnegative and sum to 1")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if not np.isfinite(self.feature).all():
            raise ValueError("feature values must be finite")

    @property
    def n_classes(self) -> int:
        return self.probabilities.shape[1]

    def data_costs(self) -> np.ndarray:
        return -np.log(np.maximum(self.probabilities, P_MIN))

    def edge_costs(self) -> np.ndarray:
        """lambda-scaled cost per dual edge of letting its two faces keep
        different labels.

        Concave edges (dihedral below pi) are natural segment boundaries,
        yet under this term they are the expensive ones to disagree across
        unless the feature distance discounts them; flat and convex edges
        cost nothing. The cost is clamped at zero so min-cut capacities
        stay valid. The log is math.log per edge because np.log differs
        from it in the last bit on some angles, which can move labels.
        """
        g = self.graph
        angle = np.minimum(g.edge_dihedral, math.pi)
        if (angle <= 0.0).any():
            raise ValueError("dihedral angle must be positive")
        log_ratio = np.array([math.log(r) for r in (angle / math.pi).tolist()])
        f = np.asarray(self.feature, dtype=np.float64)[g.edges]
        cost = -log_ratio - self.omega * np.abs(f[:, 0] - f[:, 1])
        return self.lam * np.maximum(cost, 0.0)


def labeling_energy(problem: GraphCutProblem, labels: np.ndarray,
                    data=None, pair=None) -> float:
    """Total energy of an assignment: data term plus pairwise cost on every
    dual edge whose endpoints disagree."""
    labels = np.asarray(labels)
    if len(labels) != problem.graph.n_faces:
        raise ValueError("label count must match face count")
    if data is None:
        data = problem.data_costs()
    if pair is None:
        pair = problem.edge_costs()
    total = float(data[np.arange(len(labels)), labels].sum())
    e = problem.graph.edges
    if len(e):
        disagree = labels[e[:, 0]] != labels[e[:, 1]]
        total += float(pair[disagree].sum())
    return total


def _expansion_move(problem: GraphCutProblem, labels: np.ndarray, alpha: int,
                    data: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """One binary min-cut: each face not already labeled alpha chooses
    between keeping its label (source side) and switching (sink side)."""
    free = np.nonzero(labels != alpha)[0]
    n = len(free)
    if n == 0:
        return labels
    source, sink = n, n + 1
    node_of = np.full(problem.graph.n_faces, -1)
    node_of[free] = np.arange(n)
    u, v = node_of[problem.graph.edges.T]
    u_free, v_free = u >= 0, v >= 0
    both = u_free & v_free & (pair > 0.0)
    old_u, old_v = labels[problem.graph.edges.T]
    same = both & (old_u == old_v)
    # different old labels cost w unless both switch:
    # w*[u keeps] + w*[u switches, v keeps]
    split = both & (old_u != old_v)
    # extra cost of keeping the old label, summed in edge order
    t_link = data[free, labels[free]]
    keeps = (u_free != v_free) | split
    np.add.at(t_link, np.where(u_free, u, v)[keeps], pair[keeps])

    tails = np.concatenate([np.full(n, source), u[same], v[same], v[split],
                            np.arange(n)])
    heads = np.concatenate([np.arange(n), v[same], u[same], u[split],
                            np.full(n, sink)])
    caps = np.concatenate([data[free, alpha], pair[same], pair[same],
                           pair[split], t_link])
    net = FlowNetwork(n + 2, tails, heads, caps)
    net.max_flow(source, sink)
    keep = net.source_side(source)
    out = labels.copy()
    out[free[~keep[:n]]] = alpha
    return out


@dataclass(frozen=True)
class ExpansionResult:
    labels: np.ndarray
    energy_trace: tuple = field(default_factory=tuple)


def alpha_expansion(problem: GraphCutProblem) -> ExpansionResult:
    """Cycle over labels, accepting each expansion only on strict energy
    decrease, until a full cycle makes no progress.

    Starts from the per-face argmax labeling. The returned trace holds the
    initial energy followed by the energy after each accepted move, so it
    is strictly decreasing.
    """
    data = problem.data_costs()
    pair = problem.edge_costs()
    labels = np.asarray(problem.probabilities.argmax(axis=1), dtype=np.int64)
    trace = [labeling_energy(problem, labels, data, pair)]
    improved = True
    while improved:
        improved = False
        for alpha in range(problem.n_classes):
            cand = _expansion_move(problem, labels, alpha, data, pair)
            energy = labeling_energy(problem, cand, data, pair)
            if energy < trace[-1]:
                labels = cand
                trace.append(energy)
                improved = True
    return ExpansionResult(labels=labels, energy_trace=tuple(trace))
