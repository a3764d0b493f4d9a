"""Numerical kernel: sparse symmetric solves, PCA, and labeled RNG streams.

All randomness in the package flows through :class:`SeededRng` so that a
single experiment seed reproduces every downstream draw, and adding a new
consumer (a new label) never perturbs existing streams.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""


class SparseSymmetric:
    """Symmetric sparse matrix, held as its full CSR form `csr`.

    Each input (row, col) entry is folded into the upper triangle, where
    duplicate pairs are coalesced by summation; the lower triangle is the
    mirror of the upper one. Entries that sum to exactly 0 are not stored.
    """

    def __init__(self, n: int, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        if rows.size and (rows.min() < 0 or cols.min() < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"index out of range for dimension {n}")
        upper = sparse.csr_matrix((vals, (np.minimum(rows, cols), np.maximum(rows, cols))),
                                  shape=(n, n))
        self.n = n
        self.csr = (upper + sparse.triu(upper, k=1).T).tocsr()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {self.n} expected, got shape {x.shape}")
        return self.csr @ x


# Dot products longer than this are summed block by block: OpenBLAS splits
# a long dot product across its threads, so its rounding would otherwise
# depend on the thread count.
DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b, summed over fixed blocks of DOT_BLOCK values in order."""
    if len(a) <= DOT_BLOCK:
        return float(a @ b)
    return sum(float(a[i:i + DOT_BLOCK] @ b[i:i + DOT_BLOCK])
               for i in range(0, len(a), DOT_BLOCK))


def solve_singular_spd(A: SparseSymmetric, b: np.ndarray, tol: float = 1e-8,
                       max_iter: int | None = None) -> np.ndarray:
    """Solve A x = b for a PSD matrix whose nullspace is the constants.

    The system is gauge-fixed: b is projected to zero mean and the returned
    x has zero mean. Jacobi-preconditioned conjugate gradients; every
    iterate is kept orthogonal to the constant vector.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ValueError(f"rhs of length {A.n} expected, got shape {b.shape}")
    if max_iter is None:
        max_iter = 10 * A.n
    bp = b - b.mean()
    bnorm = np.sqrt(_dot(bp, bp))
    if bnorm == 0.0:
        return np.zeros(A.n)

    d = A.csr.diagonal()
    inv_d = np.where(np.abs(d) > 0, 1.0 / np.where(d == 0, 1.0, d), 1.0)

    x = np.zeros(A.n)
    r = bp.copy()
    z = inv_d * r
    z -= z.mean()
    p = z.copy()
    rz = _dot(r, z)
    for _ in range(max_iter):
        if np.sqrt(_dot(r, r)) <= tol * bnorm:
            x -= x.mean()
            return x
        Ap = A.matvec(p)
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            raise SolverError("matrix is not positive definite on the zero-mean subspace")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = inv_d * r
        z -= z.mean()
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    resid = np.sqrt(_dot(r, r)) / bnorm
    if resid <= tol:
        x -= x.mean()
        return x
    raise SolverError(
        f"conjugate gradients did not converge in {max_iter} iterations "
        f"(relative residual {resid:.3e}, tol {tol:.3e})"
    )


def pca_fit(samples: np.ndarray, k: int):
    """Fit PCA on rows of `samples`; returns (mean, basis d x k, variances k).

    Basis columns are orthonormal covariance eigenvectors in descending
    eigenvalue order. k may exceed the data rank (trailing variances ~ 0)
    but not the dimension.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2D array")
    n, d = samples.shape
    if n < 2:
        raise ValueError("at least 2 samples required")
    if k > d:
        raise ValueError(f"k={k} exceeds dimension {d}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = (centered.T @ centered) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    variances = np.maximum(evals[order[:k]], 0.0)
    basis = evecs[:, order[:k]]
    return mean, basis, variances


@dataclass(frozen=True)
class SeededRng:
    """Root of all randomness: substreams are derived by label.

    Streams are Philox counter-based generators keyed by a hash of
    (seed, label), so identical seeds reproduce identical streams on any
    platform and labels are mutually independent.
    """

    seed: int

    def stream(self, label: str = "") -> np.random.Generator:
        digest = hashlib.blake2b(f"{self.seed}\x1f{label}".encode(), digest_size=16).digest()
        key = int.from_bytes(digest, "little")
        return np.random.Generator(np.random.Philox(key=key))

    def derive_seed(self, label: str) -> int:
        """A 63-bit child seed for nested SeededRng owners (e.g. replicates)."""
        digest = hashlib.blake2b(f"{self.seed}\x1f{label}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") >> 1
