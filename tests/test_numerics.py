import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg.numerics import (
    SeededRng,
    SolverError,
    SparseSymmetric,
    pca_fit,
    solve_singular_spd,
)
from meshseg.features import conformal
from meshseg.features.curvature import corner_terms
from oracles import pca_svd, solve_zero_mean_dense, symmetric_fold
from shapes import plane_grid


def path_laplacian(n: int) -> SparseSymmetric:
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        rows += [i, i + 1, i]
        cols += [i, i + 1, i + 1]
        vals += [1.0, 1.0, -1.0]
    return SparseSymmetric(n, np.array(rows), np.array(cols), np.array(vals))


def test_two_node_path():
    lap = path_laplacian(2)
    x = solve_singular_spd(lap, np.array([1.0, -1.0]))
    assert x == pytest.approx([0.5, -0.5], abs=1e-12)


def test_zero_rhs():
    x = solve_singular_spd(path_laplacian(5), np.zeros(5))
    assert x == pytest.approx(np.zeros(5), abs=1e-15)


def test_constant_rhs_projected_out():
    x = solve_singular_spd(path_laplacian(4), np.full(4, 3.7))
    assert x == pytest.approx(np.zeros(4), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matches_dense_least_squares(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    # random connected graph Laplacian: spanning path plus extra edges
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    rows, cols, vals = [], [], []
    dense = np.zeros((n, n))
    for i, j in edges:
        w = float(rng.uniform(0.5, 2.0))
        rows += [i, j, i]
        cols += [i, j, j]
        vals += [w, w, -w]
        dense[i, i] += w
        dense[j, j] += w
        dense[i, j] -= w
        dense[j, i] -= w
    mat = SparseSymmetric(n, np.array(rows), np.array(cols), np.array(vals))
    b = rng.standard_normal(n)
    x = solve_singular_spd(mat, b, tol=1e-12)
    expected = solve_zero_mean_dense(dense, b)
    assert x == pytest.approx(expected, abs=1e-7)
    assert abs(x.mean()) < 1e-10


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    mat = path_laplacian(6)
    dense = (np.diag([1.0, 2.0, 2.0, 2.0, 2.0, 1.0])
             - np.eye(6, k=1) - np.eye(6, k=-1))
    v = rng.standard_normal(6)
    assert mat.matvec(v) == pytest.approx(dense @ v)
    assert mat.csr.diagonal() == pytest.approx(np.diag(dense))


def _assert_fold_matches(mat: SparseSymmetric, want, rng) -> None:
    assert np.array_equal(mat.csr.toarray(), want.toarray())
    for _ in range(3):
        x = rng.standard_normal(mat.n)
        assert np.array_equal(mat.matvec(x), want @ x)


def test_fold_matches_hand_fold_on_random_triplets():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 30))  # few indices: many duplicate pairs
        rows, cols = rng.integers(0, n, size=(2, m))
        vals = rng.standard_normal(m)
        # pairs that cancel exactly, in either orientation
        k = int(rng.integers(0, 6))
        i, j = rng.integers(0, n, size=(2, k))
        v = rng.standard_normal(k)
        rows, cols = np.concatenate([rows, i, j]), np.concatenate([cols, j, i])
        vals = np.concatenate([vals, v, -v])
        _assert_fold_matches(SparseSymmetric(n, rows, cols, vals),
                             symmetric_fold(n, rows, cols, vals), rng)


def test_fold_matches_hand_fold_on_cotangent_laplacian(monkeypatch):
    # the grid's diagonal edges face right angles, so their weights sum
    # to exactly 0: entries the fold no longer stores
    triplets = []

    def record(*args):
        triplets.append(args)
        return SparseSymmetric(*args)

    monkeypatch.setattr(conformal, "SparseSymmetric", record)
    mesh = plane_grid(6, 6)
    lap = conformal.cotangent_laplacian(mesh, corner_terms(mesh))
    want = symmetric_fold(*triplets[0])
    assert lap.csr.nnz < want.nnz
    _assert_fold_matches(lap, want, np.random.default_rng(0))


def test_solver_error_on_stagnation():
    lap = path_laplacian(40)
    with pytest.raises(SolverError):
        solve_singular_spd(lap, np.linspace(-1, 1, 40), tol=1e-14, max_iter=2)


def test_pca_axis_aligned():
    rng = np.random.default_rng(0)
    x = np.zeros((100, 3))
    x[:, 0] = rng.standard_normal(100)
    mean, basis, var = pca_fit(x, 1)
    assert abs(basis[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert basis[1:, 0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert var[0] == pytest.approx(x[:, 0].var(ddof=1))


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
    mean, basis, var = pca_fit(x, 4)
    o_mean, o_basis, o_var = pca_svd(x, 4)
    assert mean == pytest.approx(o_mean)
    assert var == pytest.approx(o_var, rel=1e-9)
    # eigenvectors match up to per-column sign
    for k in range(4):
        dots = abs(float(basis[:, k] @ o_basis[:, k]))
        assert dots == pytest.approx(1.0, abs=1e-9)


def test_pca_isotropic_variances_close():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20_000, 2))
    _, _, var = pca_fit(x, 2)
    assert var[0] == pytest.approx(var[1], rel=0.05)


def test_pca_degenerate_identical_points():
    x = np.ones((2, 3)) * 4.2
    mean, basis, var = pca_fit(x, 2)
    assert var == pytest.approx([0.0, 0.0], abs=1e-20)
    assert basis.T @ basis == pytest.approx(np.eye(2), abs=1e-12)
    assert (x - mean) @ basis == pytest.approx(np.zeros((2, 2)), abs=1e-12)


def test_rng_streams_are_reproducible():
    a = SeededRng(9).stream("weights").standard_normal(1000)
    b = SeededRng(9).stream("weights").standard_normal(1000)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_label():
    a = SeededRng(9).stream("weights").standard_normal(10_000)
    b = SeededRng(9).stream("dropout").standard_normal(10_000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05
    assert not np.array_equal(a[:100], b[:100])


def test_rng_gaussian_mean_bound():
    x = SeededRng(123).stream("clt").standard_normal(100_000)
    assert -0.02 < x.mean() < 0.02


def test_derive_seed_stable_and_distinct():
    root = SeededRng(5)
    assert root.derive_seed("a") == SeededRng(5).derive_seed("a")
    assert root.derive_seed("a") != root.derive_seed("b")
    assert 0 <= root.derive_seed("a") < 2 ** 63
