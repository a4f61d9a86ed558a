import math
from types import SimpleNamespace

import numpy as np
import pytest

import circe.kernels as kernels_mod
from circe.baselines import FACTOR_STOP
from circe.cme import RANK_CUT
from circe.exceptions import ConfigError, NumericalError
from circe.kernels import (KernelParams, as_points, gram, gram_backprop,
                           pivoted_cholesky, regularized_solve, ridge_factor, ridge_solve,
                           ridge_system, squared_distances)
from circe.scm import make_dataset


def kernel_eval(x, xp, params: KernelParams) -> float:
    """Reference kernel value for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
    xp = np.atleast_1d(np.asarray(xp, dtype=np.float64)).ravel()
    assert x.shape == xp.shape
    d2 = float(np.sum((x - xp) ** 2))
    return float(np.exp(-d2 / (2.0 * params.sigma2)))


def trace_product(A: np.ndarray, B: np.ndarray) -> float:
    """Reference tr(A @ B) = sum_ij A[i, j] * B[j, i]."""
    assert A.shape == B.T.shape
    return float(np.sum(A * B.T))


def test_kernel_eval_matches_closed_form():
    p = KernelParams(sigma2=0.5)
    x = np.array([1.0, 2.0])
    xp = np.array([0.0, 0.0])
    expected = np.exp(-5.0 / (2.0 * 0.5))
    assert kernel_eval(x, xp, p) == pytest.approx(expected, rel=1e-15)
    assert kernel_eval(x, x, p) == 1.0


def test_gram_agrees_with_pairwise_eval():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3))
    b = rng.standard_normal((5, 3))
    p = KernelParams(sigma2=2.0)
    K = gram(a, b, p)
    for i in range(7):
        for j in range(5):
            assert K[i, j] == pytest.approx(kernel_eval(a[i], b[j], p), abs=1e-14)


def test_gram_accepts_1d_input():
    y = np.linspace(-1, 1, 6)
    K = gram(y, y, KernelParams(sigma2=1.0))
    assert K.shape == (6, 6)
    assert np.allclose(np.diag(K), 1.0)


def test_gram_psd_floor():
    rng = np.random.default_rng(3)
    for n in (5, 40, 120):
        x = rng.standard_normal((n, 2)) * 3
        K = gram(x, x, KernelParams(sigma2=0.7))
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-10 * n * K.max()


def test_schur_product_of_grams_stays_psd():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 1))
    z = rng.standard_normal((60, 2))
    K1 = gram(x, x, KernelParams(sigma2=1.0))
    K2 = gram(z, z, KernelParams(sigma2=0.3))
    eigs = np.linalg.eigvalsh(K1 * K2)
    assert eigs.min() >= -1e-10 * 60 * (K1 * K2).max()


def test_gram_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 4))
    p = KernelParams(sigma2=1.3)
    K1 = gram(x, x, p)
    K2 = gram(x, x, p)
    assert np.array_equal(K1, K2)


def test_bad_params_rejected():
    with pytest.raises(ConfigError):
        KernelParams(sigma2=0.0)
    with pytest.raises(ConfigError):
        KernelParams(sigma2=-1.0)
    with pytest.raises(ConfigError):
        KernelParams(sigma2=np.inf)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        gram(np.zeros((3, 2)), np.zeros((3, 4)), KernelParams(sigma2=1.0))


def test_as_points_rejects_a_3d_array():
    with pytest.raises(ConfigError, match="1-d or 2-d"):
        as_points(np.zeros((2, 3, 1)))


def test_ridge_system_rejects_a_non_square_k():
    with pytest.raises(ConfigError, match="square"):
        ridge_system(np.zeros((3, 4)), 0.1)


def test_ridge_solve_rejects_a_row_mismatch():
    system = ridge_system(np.eye(3), 0.1)
    with pytest.raises(ConfigError, match="4 rows"):
        ridge_solve(system, np.ones((4, 2)))


def test_trace_product_matches_brute_force():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 9))
    B = rng.standard_normal((9, 9))
    brute = sum(A[i, j] * B[j, i] for i in range(9) for j in range(9))
    assert trace_product(A, B) == pytest.approx(brute, rel=1e-12)
    assert trace_product(A, B) == pytest.approx(np.trace(A @ B), rel=1e-12)


def test_trace_hadamard_identity():
    # tr(A (B o C)) == tr((A o B) C) for symmetric factors
    rng = np.random.default_rng(7)
    for seed in range(5):
        r = np.random.default_rng(seed)
        x = r.standard_normal((12, 2))
        A = gram(x, x, KernelParams(sigma2=1.0))
        B = gram(x + 1, x + 1, KernelParams(sigma2=0.5))
        C = gram(2 * x, 2 * x, KernelParams(sigma2=2.0))
        lhs = trace_product(A, B * C)
        rhs = trace_product(A * B, C)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    del rng


def test_regularized_solve_residual_and_inverse():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 2))
    K = gram(x, x, KernelParams(sigma2=1.0))
    lam = 1e-3
    B = rng.standard_normal((30, 4))
    S = regularized_solve(K, lam, B)
    resid = np.linalg.norm((K + lam * np.eye(30)) @ S - B) / np.linalg.norm(B)
    assert resid <= 1e-8
    S_ref = np.linalg.solve(K + lam * np.eye(30), B)
    assert np.allclose(S, S_ref, atol=1e-8)


def test_regularized_solve_large_lambda_limit():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 1))
    K = gram(x, x, KernelParams(sigma2=1.0))
    B = rng.standard_normal((20, 2))
    lam = 1e6
    S = regularized_solve(K, lam, B)
    assert np.linalg.norm(S - B / lam) / np.linalg.norm(B / lam) <= 1e-4


def test_regularized_solve_rejects_bad_lambda():
    K = np.eye(3)
    with pytest.raises(ConfigError):
        regularized_solve(K, 0.0, np.ones(3))
    with pytest.raises(ConfigError):
        regularized_solve(K, -1.0, np.ones(3))


def test_regularized_solve_handles_singular_gram():
    # duplicated points make K exactly rank-deficient; lam restores definiteness
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 2))
    x = np.vstack([x, x])
    K = gram(x, x, KernelParams(sigma2=1.0))
    S = regularized_solve(K, 1e-3, np.ones(40))
    assert np.all(np.isfinite(S))
    resid = np.linalg.norm((K + 1e-3 * np.eye(40)) @ S - np.ones(40))
    assert resid / np.linalg.norm(np.ones(40)) <= 1e-8


def test_regularized_solve_fails_on_indefinite():
    K = -np.eye(10)
    with pytest.raises(NumericalError):
        regularized_solve(K, 0.5, np.ones(10))


def test_ridge_solve_on_a_singular_system_raises_numerical_error():
    # the LU solve itself fails: the jittered matrix of the system is singular
    system = (np.eye(3), np.zeros((3, 3)))
    with pytest.raises(NumericalError, match="solve failed"):
        ridge_solve(system, np.ones((3, 2)))


def test_ridge_system_searches_jitter_once_for_every_solve(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 2))
    K = gram(x, x, KernelParams(sigma2=1.0))
    B = rng.standard_normal((30, 3))
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    system = ridge_system(K, 1e-3)
    first, second = ridge_solve(system, B), ridge_solve(system, B[:, :1])
    assert len(calls) == 1
    assert np.array_equal(first, regularized_solve(K, 1e-3, B))
    assert np.array_equal(second, regularized_solve(K, 1e-3, B[:, :1]))

    # an indefinite K + lam I takes the jitter ladder: the first rung passes
    calls.clear()
    K = np.diag([1.0] * 9 + [-0.5 - 1e-11])
    A, jittered = ridge_system(K, 0.5)
    assert len(calls) == 2
    jitter = 1e-10 * np.mean(np.diag(K))
    assert np.array_equal(jittered, A + jitter * np.eye(10))


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_ridge_factor_matches_the_dense_solve(lam):
    # 1-d points at sigma2 = 1: a Gram of numerical rank about 20 of 256
    rng = np.random.default_rng(12)
    x = rng.standard_normal((256, 1))
    K = gram(x, x, KernelParams(sigma2=1.0))
    gt = pivoted_cholesky(x, KernelParams(sigma2=1.0), 1e-15, 256 // 8)
    assert gt is not None and gt.shape[0] < 256 // 8
    ft = ridge_factor(gt, lam)
    A = K + lam * np.eye(256)
    w = np.linalg.solve(A, K)
    assert np.max(np.abs(ft.T @ gt - w)) / np.max(np.abs(w)) <= 1e-10
    B = rng.standard_normal((256, 3))
    resid = lam * np.linalg.solve(A, B)
    assert np.max(np.abs(B - ft.T @ (gt @ B) - resid)) / np.max(np.abs(resid)) <= 1e-10


def test_pivoted_cholesky_gives_up_at_its_checkpoint_or_half_width(monkeypatch):
    # spread 2-d points at a narrow bandwidth: numerical rank near n
    rng = np.random.default_rng(13)
    x = rng.standard_normal((64, 2))
    columns = []
    monkeypatch.setattr(kernels_mod, "math", SimpleNamespace(
        sqrt=lambda v: columns.append(v) or math.sqrt(v)))
    for checkpoint, width in ((8, 8), (64, 31)):
        columns.clear()
        assert pivoted_cholesky(x, KernelParams(sigma2=0.01), 1e-15, checkpoint) is None
        assert len(columns) == width


def test_pivoted_cholesky_without_a_checkpoint_reaches_full_width():
    # points 3 apart at sigma2 = 0.01 give K = I to roundoff: a factor that
    # never gives up grows its (n-1)/2-row buffer and takes a column per
    # point, then owns exactly its n rows
    x = 3.0 * np.arange(50.0)[::-1, None]
    g = pivoted_cholesky(x, KernelParams(sigma2=0.01), 1e-13, None)
    assert g.shape == (50, 50) and g.flags.owndata
    assert np.max(np.abs(g.T @ g - gram(x, x, KernelParams(sigma2=0.01)))) <= 1e-150
    # with a checkpoint the same Gram gives up at the (n-1)/2 limit
    assert pivoted_cholesky(x, KernelParams(sigma2=0.01), 1e-13, 50) is None


def _dense_row_factor(K, stop, checkpoint):
    """The pivoted Cholesky factor on the rows of a dense Gram K, as it was
    written before the factor computed its own pivot rows; checkpoint None
    never gives up."""
    n = K.shape[0]
    d = np.diag(K).copy()
    top = d.max()
    limit = n if checkpoint is None else (n - 1) // 2
    g = np.empty((limit, n))
    tmp = np.empty(n)
    for j in range(limit + 1):
        p = int(d.argmax())
        pivot = d[p]
        if pivot <= stop * top or j == n:
            return g[:j]
        if j == limit or (j == checkpoint and pivot > kernels_mod.FACTOR_GIVE_UP * top):
            return None
        row = g[j]
        np.subtract(K[p], np.matmul(g[:j, p], g[:j], out=tmp), out=row)
        row /= math.sqrt(pivot)
        row[np.abs(row) < 1e-150] = 0.0
        d -= np.multiply(row, row, out=tmp)


def _factor_inputs(case):
    """(points, stop, checkpoint) of a holdout factor at M = 1000 and of a
    batch factor at B = 256, as cme and baselines call it."""
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    batch_y = ds.standardizer.transform("y", ds.fit_pool().y[:256])
    return ((y, 0.1 * RANK_CUT, None), (batch_y, FACTOR_STOP, 256 // 8))


@pytest.mark.parametrize("sigma2", [0.001, 0.01, 0.1, 1.0])
def test_pivoted_cholesky_on_one_column_points_is_the_dense_row_factor_bitwise(sigma2):
    # one-column pivot rows come from direct differences, bitwise the rows
    # of gram, so the factor is the one the dense Gram's rows give
    params = KernelParams(sigma2=sigma2)
    for points, stop, checkpoint in _factor_inputs("uni1"):
        assert points.shape[1] == 1
        g = pivoted_cholesky(points, params, stop, checkpoint)
        ref = _dense_row_factor(gram(points, points, params), stop, checkpoint)
        assert (g is None) == (ref is None)
        assert g is None or np.array_equal(g, ref)
        # a finished factor owns exactly its rows, not a view of its buffer
        assert g is None or (g.flags.owndata and g.shape == (ref.shape[0], points.shape[0]))
        # every holdout bandwidth of uni1 factors
        assert g is not None or points.shape[0] == 256


@pytest.mark.parametrize("sigma2", [0.001, 0.01, 0.1, 1.0])
def test_pivoted_cholesky_on_two_column_points_reproduces_the_gram(sigma2):
    # two-column pivot rows come from the norm expansion, a GEMV instead of
    # gram's GEMM, so the factor agrees with the dense Gram to roundoff and
    # gives up where the dense-row factor does, which a holdout never does
    params = KernelParams(sigma2=sigma2)
    for points, stop, checkpoint in _factor_inputs("multi2"):
        assert points.shape[1] == 2
        K = gram(points, points, params)
        g = pivoted_cholesky(points, params, stop, checkpoint)
        ref = _dense_row_factor(K, stop, checkpoint)
        assert (g is None) == (ref is None)
        if g is not None:
            # the holdout factors at sigma2 <= 0.1 run 748-1000 columns wide
            # and reproduce K within 1.8e-12 at sigma2 = 0.001, 1.8e-13 at
            # 0.01 (seeds 0-2, one and two BLAS threads)
            bound = 2e-11 if points.shape[0] == 1000 and sigma2 < 1.0 else 1e-12
            assert np.max(np.abs(g.T @ g - K)) <= bound
        # multi2's holdout factors at every bandwidth, its batch nowhere
        assert (g is not None) == (points.shape[0] == 1000)


def test_ridge_factor_raises_on_a_non_finite_factor():
    gt = np.ones((2, 5))
    gt[1, 2] = np.nan
    with pytest.raises(NumericalError):
        ridge_factor(gt, 0.1)


def test_gram_backprop_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 2))
    coeff = rng.standard_normal((6, 6))
    sigma2 = 0.8
    p = KernelParams(sigma2=sigma2)

    def objective(pts):
        K = gram(pts, pts, p)
        return float(np.sum(coeff * K))

    grad = gram_backprop(coeff, x, gram(x, x, p), sigma2)
    h = 1e-6
    for i in range(6):
        for j in range(2):
            xp = x.copy()
            xm = x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (objective(xp) - objective(xm)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def _gram_reference(rows, cols, sigma2):
    """gram and squared_distances as first written, one temporary per step."""
    r2 = np.sum(rows * rows, axis=1)[:, None]
    c2 = np.sum(cols * cols, axis=1)[None, :]
    d2 = r2 + c2 - 2.0 * (rows @ cols.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * sigma2))


def _gram_direct_reference(rows, cols, sigma2):
    """gram of one-column points from direct differences, one temporary per step."""
    diff = rows[:, 0][:, None] - cols[:, 0][None, :]
    return np.exp(-(diff * diff) / (2.0 * sigma2))


@pytest.mark.parametrize("n_rows,n_cols,dim", [(256, 256, 1), (256, 256, 2),
                                               (256, 256, 64), (1024, 1000, 1)])
def test_gram_bitwise_equals_reference(n_rows, n_cols, dim):
    rng = np.random.default_rng(n_rows + dim)
    rows = rng.standard_normal((n_rows, dim))
    cols = rng.standard_normal((n_cols, dim))
    reference = _gram_direct_reference if dim == 1 else _gram_reference
    for sigma2 in (0.001, 0.7, 1.0):
        p = KernelParams(sigma2=sigma2)
        assert np.array_equal(gram(rows, cols, p), reference(rows, cols, sigma2))
    # a duplicated point gives exact zeros on the diagonal (clamped negatives
    # in the expansion)
    assert np.array_equal(gram(rows, rows, p), reference(rows, rows, 1.0))


def test_one_column_gram_is_exact_on_duplicates_and_within_ulps():
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than float64 here")
    rng = np.random.default_rng(13)
    base = rng.uniform(-0.7, 0.7, 100)
    # near-duplicates a few ulps apart, where r^2 + c^2 - 2 r c loses every digit
    near = np.concatenate([np.nextafter(base[:20], np.inf),
                           base[:20] + 64 * np.spacing(base[:20])])
    points = np.concatenate([base, base[:30], near])[::-1]
    column = np.empty((points.size, 3))
    column[:, 1] = points
    x = column[:, 1:2]
    assert not x.flags.c_contiguous
    p = KernelParams(sigma2=1.0)
    K = gram(x, x, p)
    assert np.array_equal(K, K.T)
    same = points[:, None] == points[None, :]
    assert np.all(K[same] == 1.0) and np.count_nonzero(same) > points.size

    wide = points.astype(np.longdouble)
    d2 = (wide[:, None] - wide[None, :]) ** 2
    # two roundings put d2 within 3 ulps; |exponent| < 1 adds under 3 ulps
    # to exp's own, so K stays within 4
    d2_mine = squared_distances(x, x)
    assert np.all(np.abs(d2_mine - d2) <= 3 * np.spacing(d2.astype(np.float64)))
    assert np.all(d2_mine[~same] > 0.0)
    exact = np.exp(-d2 / 2).astype(np.float64)
    assert np.all(np.abs(K - exact) <= 4 * np.spacing(exact))

    with pytest.raises(ConfigError):
        gram(x, np.zeros((4, 2)), p)


def test_gram_bitwise_on_non_contiguous_input():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((512, 6))
    rows, cols = base[::2, 1:4], base[1::2, ::2].T.copy().T
    assert not rows.flags.c_contiguous and not cols.flags.c_contiguous
    p = KernelParams(sigma2=0.5)
    assert np.array_equal(gram(rows, cols, p), _gram_reference(rows, cols, 0.5))


def test_gram_backprop_bitwise_equals_reference():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((256, 3))
    coeff = rng.standard_normal((256, 256))
    K = gram(x, x, KernelParams(sigma2=0.8))
    S = (coeff + coeff.T) * K
    expected = (S @ x - np.sum(S, axis=1)[:, None] * x) / 0.8
    assert np.array_equal(gram_backprop(coeff, x, K, 0.8), expected)
