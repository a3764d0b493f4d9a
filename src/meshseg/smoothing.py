"""Non-shrinking (Taubin) Laplacian smoothing.

Each iteration applies a shrink pass followed by an inflate pass with the
uniform-weight (umbrella) vertex Laplacian; the inflate factor slightly
exceeds the shrink factor in magnitude, which cancels the low-frequency
volume loss that plain Laplacian smoothing causes.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from meshseg.mesh import Mesh


def umbrella_operator(mesh: Mesh) -> sp.csr_matrix:
    """Sparse operator U with (U x)_i = mean of neighbors of i minus x_i.

    Isolated vertices (none in a valid mesh, but kept safe) map to 0.
    """
    n = mesh.n_vertices
    i, j = mesh.half_edges[mesh.edge_start[:-1], :2].T  # each edge once
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    adj = sp.csr_matrix((inv[rows], (rows, cols)), shape=(n, n))
    return adj - sp.diags((deg > 0).astype(np.float64))


def taubin_smooth(mesh: Mesh, iterations: int = 5, lambda_shrink: float = 0.5,
                  mu_inflate: float = -0.53) -> tuple:
    """Run shrink/inflate smoothing passes, keeping every intermediate level.

    Returns the levels as a tuple: level i is the result of i+1
    iterations. Every level is `mesh.with_vertices(...)`, so it shares the
    mesh's faces and half-edge table; only vertex positions differ.

    Stability requires 0 < lambda_shrink < -mu_inflate. Raises if a pass
    produces non-finite coordinates (diverging parameters).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (0.0 < lambda_shrink < -mu_inflate):
        raise ValueError(
            f"need 0 < lambda < -mu for stability, got ({lambda_shrink}, {mu_inflate})")
    op = umbrella_operator(mesh)
    v = np.array(mesh.vertices)
    levels = []
    for it in range(iterations):
        v = v + lambda_shrink * (op @ v)
        v = v + mu_inflate * (op @ v)
        if not np.isfinite(v).all():
            raise FloatingPointError(
                f"smoothing diverged at iteration {it + 1}: non-finite coordinates")
        levels.append(mesh.with_vertices(v))
    return tuple(levels)
