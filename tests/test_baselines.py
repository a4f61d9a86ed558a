import numpy as np
import pytest
from scipy.special import logsumexp

import circe.baselines as baselines_mod
import circe.kernels as kernels_mod
from circe.baselines import (
    FACTOR_STOP,
    GCM_SMOOTHMAX_TAU,
    GCM_VARIANCE_GUARD,
    GcmEstimate,
    gcm_with_grad,
    hscic_with_grad,
)
from circe.cme import DEFAULT_SIGMA2_Y_GRID, select_hyperparams
from circe.exceptions import ConfigError, NumericalError
from circe.kernels import (KernelParams, gram, gram_backprop, pivoted_cholesky,
                           regularized_solve, ridge_factor, ridge_solve, ridge_system)
from circe.scm import make_dataset

YP = KernelParams(sigma2=1.0)
XP = KernelParams(sigma2=1.0)
ZP = KernelParams(sigma2=1.0)
LAM = 0.01


def test_gcm_detects_shortcut_dependence():
    values = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((256, 1))
        z = rng.standard_normal((256, 1))
        est, _ = gcm_with_grad(z.copy(), z, y, YP, LAM)
        values.append(est.value)
    assert np.median(values) >= 5.0


def test_gcm_small_on_conditionally_independent_data():
    values = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        y = rng.standard_normal((256, 1))
        x = y + 0.1 * rng.standard_normal((256, 1))
        z = y**2 + rng.standard_normal((256, 1))
        est, _ = gcm_with_grad(x, z, y, YP, LAM)
        values.append(est.value)
    # normalized statistic is asymptotically N(0,1) under the null
    assert np.median(values) <= 3.0


def test_gcm_multivariate_max_over_pairs():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((128, 1))
    z = rng.standard_normal((128, 2))
    x = np.hstack([rng.standard_normal((128, 1)), z[:, 1:2]])
    est, _ = gcm_with_grad(x, z, y, YP, LAM)
    assert est.t_stats.shape == (2, 2)
    assert est.value == np.max(np.abs(est.t_stats[est.included]))
    # the planted (x1, z1) pair dominates
    assert np.abs(est.t_stats[1, 1]) == est.value


def test_gcm_variance_guard_excludes_constant_products():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((64, 1))
    z = rng.standard_normal((64, 1))
    x = np.hstack([np.zeros((64, 1)), rng.standard_normal((64, 1))])
    est, _ = gcm_with_grad(x, z, y, YP, LAM)
    assert not est.included[0, 0]
    assert est.included[1, 0]
    assert np.isnan(est.t_stats[0, 0])
    with pytest.raises(NumericalError):
        gcm_with_grad(np.zeros((64, 1)), z, y, YP, LAM)


def test_gcm_smooth_surrogate_brackets_hard_max():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((64, 1))
    z = rng.standard_normal((64, 2))
    x = rng.standard_normal((64, 3))
    est, _ = gcm_with_grad(x, z, y, YP, LAM)
    n_pairs = int(est.included.sum())
    assert est.regularizer_value >= est.value
    assert est.regularizer_value <= est.value + np.log(n_pairs) / 10.0


def test_gcm_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    n = 32
    y = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, 2))
    x = rng.standard_normal((n, 2))
    _, grad = gcm_with_grad(x, z, y, YP, LAM)
    step = 1e-5
    for idx in [(0, 0), (3, 1), (17, 0), (31, 1)]:
        bump = x.copy()
        bump[idx] += step
        hi = gcm_with_grad(bump, z, y, YP, LAM)[0].regularizer_value
        bump[idx] -= 2 * step
        lo = gcm_with_grad(bump, z, y, YP, LAM)[0].regularizer_value
        fd = (hi - lo) / (2 * step)
        assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_hscic_zero_at_factorized_fixed_point():
    # separated anchors keep the ridge system well conditioned so the
    # small-lambda fit actually interpolates
    y = np.linspace(0.0, 4.0, 9).reshape(-1, 1)
    x = np.sin(y)
    z = y**2
    value, grad = hscic_with_grad(x, z, y, XP, ZP, KernelParams(sigma2=0.25),
                                  lam=1e-8)
    assert value <= 1e-6
    assert np.linalg.norm(grad) <= 1e-5


def test_hscic_separates_dependence_from_control():
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((256, 1))
        shared = rng.standard_normal((256, 1))
        dep = hscic_with_grad(shared.copy(), shared, y, XP, ZP, YP, LAM)[0]
        x_ci = y + 0.1 * rng.standard_normal((256, 1))
        z_ci = y + 0.1 * rng.standard_normal((256, 1))
        ci = hscic_with_grad(x_ci, z_ci, y, XP, ZP, YP, LAM)[0]
        ratios.append(dep / max(ci, 1e-30))
    assert np.median(ratios) >= 10.0


def test_hscic_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((64, 1))
    x = rng.standard_normal((64, 2))
    z = rng.standard_normal((64, 1))
    value, _ = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    assert value >= -1e-10
    perm = rng.permutation(64)
    value_p, _ = hscic_with_grad(x[perm], z[perm], y[perm], XP, ZP, YP, LAM)
    assert value_p == pytest.approx(value, rel=1e-9)


def test_hscic_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    n = 32
    y = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, 2))
    _, grad = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    step = 1e-5
    for idx in [(0, 0), (5, 1), (20, 0), (31, 1)]:
        bump = x.copy()
        bump[idx] += step
        hi = hscic_with_grad(bump, z, y, XP, ZP, YP, LAM)[0]
        bump[idx] -= 2 * step
        lo = hscic_with_grad(bump, z, y, XP, ZP, YP, LAM)[0]
        fd = (hi - lo) / (2 * step)
        assert abs(grad[idx] - fd) <= 1e-4 * max(1e-6, abs(fd))


def test_grad_dispatch_and_validation():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((16, 1))
    z = rng.standard_normal((16, 1))
    x = rng.standard_normal((16, 1))
    _, g1 = gcm_with_grad(x, z, y, YP, LAM)
    assert g1.shape == x.shape
    _, g2 = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    assert g2.shape == x.shape
    with pytest.raises(ConfigError):
        gcm_with_grad(x[:4], z[:4], y[:4], YP, LAM)
    with pytest.raises(ConfigError):
        gcm_with_grad(x, z, y, YP, 0.0)
    with pytest.raises(ConfigError):
        hscic_with_grad(x, z[:8], y, XP, ZP, YP, LAM)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_non_finite_lambda_raises_config_error(lam):
    # at 256 one-column rows the factor route is taken, whose residual check
    # would report the bad lambda as a NumericalError
    rng = np.random.default_rng(2)
    y, z, x = (rng.standard_normal((256, 1)) for _ in range(3))
    with pytest.raises(ConfigError, match="lambda must be positive and finite"):
        gcm_with_grad(x, z, y, YP, lam)
    with pytest.raises(ConfigError, match="lambda must be positive and finite"):
        hscic_with_grad(x, z, y, XP, ZP, YP, lam)


def test_gcm_failure_mode_light():
    # symmetric distractor noise: residual covariance vanishes in
    # population even though dependence is real
    below = 0
    seeds = 20
    for seed in range(seeds):
        rng = np.random.default_rng(300 + seed)
        n = 512
        big_y = rng.standard_normal((n, 1))
        xi_z = rng.standard_normal((n, 1))
        xi_y = rng.standard_normal((n, 1))
        x = big_y + xi_z**2
        y = big_y + 0.0 * xi_y
        z = xi_z
        est, _ = gcm_with_grad(x, z, y, YP, LAM)
        if est.value < 1.96:
            below += 1
    assert below >= int(0.7 * seeds)


def _gcm_dense(x, z, y, y_params, lam):
    """GCM through the n x n smoother A = K(K + lam I)^-1: (t, smooth max, grad)."""
    n = y.shape[0]
    k_yy = gram(y, y, y_params)
    a = k_yy @ np.linalg.solve(k_yy + lam * np.eye(n), np.eye(n))
    hat = 0.5 * (a + a.T)
    rx, rz = x - hat @ x, z - hat @ z
    prods = rx[:, :, None] * rz[:, None, :]
    m = prods.mean(axis=0)
    s = np.sqrt(np.mean(prods**2, axis=0) - m**2)
    t = np.sqrt(n) * m / s
    soft = np.exp(GCM_SMOOTHMAX_TAU * (np.abs(t) - np.abs(t).max()))
    soft /= soft.sum()
    dt_dr = (np.sqrt(n) / (n * s)) * (1.0 - m * (prods - m) / (s * s))
    coeff = np.einsum("jk,ljk,lk->lj", soft * np.sign(t), dt_dr, rz)
    grad = (np.eye(n) - hat.T) @ coeff
    return t, logsumexp(GCM_SMOOTHMAX_TAU * np.abs(t)) / GCM_SMOOTHMAX_TAU, grad


def _hscic_dense(x, z, y, x_params, z_params, y_params, lam):
    """HSCIC value and gradient with the three-product gradient coefficient."""
    n = y.shape[0]
    k_yy = gram(y, y, y_params)
    w = np.linalg.solve(k_yy + lam * np.eye(n), k_yy)
    k_xx, k_zz = gram(x, x, x_params), gram(z, z, z_params)
    u, v = k_zz @ w, k_xx @ w
    term1 = np.einsum("ji,ji->i", w, (k_xx * k_zz) @ w)
    term2 = np.einsum("li,li,li->i", w, v, u)
    p, q = np.einsum("li,li->i", w, v), np.einsum("li,li->i", w, u)
    coeff = ((w @ w.T) * k_zz - 2.0 * (w * u) @ w.T + (w * q) @ w.T) / n
    grad = gram_backprop(coeff, x, k_xx, x_params.sigma2)
    return np.mean(term1 - 2.0 * term2 + p * q), grad


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _batch_factor(y, y_params=YP):
    """The batch's pivoted Cholesky factor G^T, None where it gives up."""
    return pivoted_cholesky(y, y_params, FACTOR_STOP, y.shape[0] // 8)


def _route_residuals(y, y_params, lam, b):
    """lam (K_yy + lam I)^-1 b on the measures' route: B - F (G^T B) on the
    batch factor, the dense solve where the factor gives up."""
    gt = _batch_factor(y, y_params)
    if gt is None:
        return lam * regularized_solve(gram(y, y, y_params), lam, b)
    return b - ridge_factor(gt, lam).T @ (gt @ b)


def _gcm_per_pair(x, z, y, y_params, lam):
    """GCM as first written, one (feature, z) pair at a time: (estimate, grad)."""
    n, d_x = x.shape
    d_z = z.shape[1]
    resid = _route_residuals(y, y_params, lam, np.hstack([x, z]))
    rx, rz = resid[:, :d_x], resid[:, d_x:]
    t = np.full((d_x, d_z), np.nan)
    included = np.zeros((d_x, d_z), dtype=bool)
    stds = np.zeros((d_x, d_z))
    means = np.zeros((d_x, d_z))
    prods = np.empty((n, d_x, d_z))
    for j in range(d_x):
        for k in range(d_z):
            r = rx[:, j] * rz[:, k]
            prods[:, j, k] = r
            m = r.mean()
            s = np.sqrt(max(np.mean(r * r) - m * m, 0.0))
            if s < GCM_VARIANCE_GUARD:
                continue
            included[j, k] = True
            means[j, k] = m
            stds[j, k] = s
            t[j, k] = np.sqrt(n) * m / s
    abs_t = np.abs(t[included])
    scaled = GCM_SMOOTHMAX_TAU * abs_t
    top = scaled.max()
    regularizer = float((top + np.log(np.sum(np.exp(scaled - top)))) / GCM_SMOOTHMAX_TAU)
    soft = np.exp(GCM_SMOOTHMAX_TAU * (abs_t - abs_t.max()))
    soft /= soft.sum()
    coeffs = np.zeros_like(rx)
    for (j, k), weight in zip(np.argwhere(included), soft):
        m, s = means[j, k], stds[j, k]
        r = prods[:, j, k]
        dt_dr = (np.sqrt(n) / (n * s)) * (1.0 - m * (r - m) / (s * s))
        coeffs[:, j] += weight * np.sign(t[j, k]) * dt_dr * rz[:, k]
    grad = _route_residuals(y, y_params, lam, coeffs)
    return GcmEstimate(float(abs_t.max()), t, regularizer, included), grad


def _assert_gcm_bitwise_per_pair(x, z, y, y_params=YP, lam=LAM):
    est, grad = gcm_with_grad(x, z, y, y_params, lam)
    ref, grad_ref = _gcm_per_pair(x, z, y, y_params, lam)
    assert est.value == ref.value
    assert np.array_equal(est.t_stats, ref.t_stats, equal_nan=True)
    assert est.regularizer_value == ref.regularizer_value
    assert np.array_equal(est.included, ref.included)
    assert np.array_equal(grad, grad_ref)


@pytest.mark.parametrize("d_x,d_z", [(1, 1), (1, 2), (3, 2), (64, 1)])
def test_gcm_and_hscic_match_dense_smoother_forms(d_x, d_z):
    rng = np.random.default_rng(31)
    n = 64
    y = rng.standard_normal((n, 1))
    z = np.hstack([y**2, -y])[:, :d_z] + rng.standard_normal((n, d_z))
    columns = [z[:, :1], np.sin(y), y] + [np.cos(j * y) for j in range(1, d_x - 2)]
    x = np.hstack(columns)[:, :d_x] + 0.5 * rng.standard_normal((n, d_x))
    # distances at the three-column scale, or K_xx is the identity to roundoff
    x *= min(1.0, np.sqrt(3 / d_x))

    est, grad = gcm_with_grad(x, z, y, YP, LAM)
    t, smooth, grad_ref = _gcm_dense(x, z, y, YP, LAM)
    assert est.included.all()
    assert _rel(est.t_stats, t) <= 1e-10
    assert est.regularizer_value == pytest.approx(smooth, rel=1e-10)
    assert _rel(grad, grad_ref) <= 1e-10
    _assert_gcm_bitwise_per_pair(x, z, y)

    value, grad = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    value_ref, grad_ref = _hscic_dense(x, z, y, XP, ZP, YP, LAM)
    assert value == pytest.approx(value_ref, rel=1e-10)
    assert _rel(grad, grad_ref) <= 1e-10


def test_gcm_with_excluded_pairs_matches_per_pair_loop():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((64, 1))
    z = rng.standard_normal((64, 2))
    x = np.hstack([np.zeros((64, 1)), rng.standard_normal((64, 2))])
    assert not gcm_with_grad(x, z, y, YP, LAM)[0].included[0].any()
    _assert_gcm_bitwise_per_pair(x, z, y)


@pytest.mark.parametrize("n,d_x", [(16, 1), (256, 1), (64, 3)])
def test_hscic_value_matches_three_term_form(n, d_x):
    rng = np.random.default_rng(41 + n)
    y = rng.standard_normal((n, 1))
    z = y**2 + rng.standard_normal((n, 1))
    x = z + 0.5 * rng.standard_normal((n, d_x))
    value, _ = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    # the three-term value, term1 - 2 term2 + p q, as first written
    assert value == pytest.approx(_hscic_dense(x, z, y, XP, ZP, YP, LAM)[0], rel=1e-12)


def _hscic_as_first_written(x, z, w):
    """HSCIC value and gradient from ridge weights w, as first written."""
    n = x.shape[0]
    k_xx, k_zz = gram(x, x, XP), gram(z, z, ZP)
    u = k_zz @ w
    q = np.einsum("li,li->i", w, u)
    coeff = ((w @ w.T) * k_zz + (w * (q - 2.0 * u)) @ w.T) / n
    return float(np.vdot(k_xx, coeff)), gram_backprop(coeff, x, k_xx, XP.sigma2)


def _low_rank_batch(n, seed):
    # 1-d y at sigma2_y = 1: the Gram's factor ends after about 20 columns
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 1))
    z = np.hstack([y**2, -y]) + rng.standard_normal((n, 2))
    x = np.hstack([z[:, :1], np.sin(y)]) + 0.5 * rng.standard_normal((n, 2))
    return x, z, y


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_factor_route_matches_dense_smoother_forms(lam):
    x, z, y = _low_rank_batch(256, 51)
    gt = _batch_factor(y)
    assert gt is not None and gt.shape[0] < 256 // 8

    est, grad = gcm_with_grad(x, z, y, YP, lam)
    t, smooth, grad_ref = _gcm_dense(x, z, y, YP, lam)
    assert _rel(est.t_stats, t) <= 1e-10
    assert est.regularizer_value == pytest.approx(smooth, rel=1e-10)
    assert _rel(grad, grad_ref) <= 1e-10
    _assert_gcm_bitwise_per_pair(x, z, y, YP, lam)

    value, grad = hscic_with_grad(x, z, y, XP, ZP, YP, lam)
    value_ref, grad_ref = _hscic_dense(x, z, y, XP, ZP, YP, lam)
    assert value == pytest.approx(value_ref, rel=1e-10)
    assert _rel(grad, grad_ref) <= 1e-10
    value_w, grad_w = _hscic_as_first_written(x, z, ridge_factor(gt, lam).T @ gt)
    assert value == value_w and np.array_equal(grad, grad_w)


def test_full_rank_batch_takes_the_dense_path_bitwise():
    # 2-d y at sigma2_y = 0.1: the factor is still far from done at n/8
    rng = np.random.default_rng(52)
    y = rng.standard_normal((256, 2))
    z = y[:, :1] ** 2 + rng.standard_normal((256, 1))
    x = z + 0.5 * rng.standard_normal((256, 2))
    yp = KernelParams(sigma2=0.1)
    k_yy = gram(y, y, yp)
    assert _batch_factor(y, yp) is None

    system = ridge_system(k_yy, LAM)
    b = np.hstack([x, z])
    assert np.array_equal(_route_residuals(y, yp, LAM, b), LAM * ridge_solve(system, b))
    _assert_gcm_bitwise_per_pair(x, z, y, yp, LAM)

    value, grad = hscic_with_grad(x, z, y, XP, ZP, yp, LAM)
    value_ref, grad_ref = _hscic_as_first_written(x, z, ridge_solve(system, k_yy))
    assert value == value_ref
    assert np.array_equal(grad, grad_ref)


def test_factor_route_on_an_exactly_singular_gram():
    # every y row twice: K_yy has rank at most n/2, exactly
    x, z, y = _low_rank_batch(256, 53)
    y = np.vstack([y[:128], y[:128]])
    gt = _batch_factor(y)
    assert gt is not None and gt.shape[0] < 256 // 8
    est, grad = gcm_with_grad(x, z, y, YP, LAM)
    t, smooth, grad_ref = _gcm_dense(x, z, y, YP, LAM)
    assert _rel(est.t_stats, t) <= 1e-10
    assert _rel(grad, grad_ref) <= 1e-10
    _assert_gcm_bitwise_per_pair(x, z, y)
    value, grad = hscic_with_grad(x, z, y, XP, ZP, YP, LAM)
    value_ref, grad_ref = _hscic_dense(x, z, y, XP, ZP, YP, LAM)
    assert value == pytest.approx(value_ref, rel=1e-10)
    assert _rel(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("sigma2_y", [1.0, 0.1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gcm_on_non_finite_features_is_never_finite(sigma2_y, bad):
    # sigma2_y = 1 on 1-d y takes the factor route, 0.1 on 2-d y the dense one
    rng = np.random.default_rng(54)
    y = rng.standard_normal((256, 1 if sigma2_y == 1.0 else 2))
    z = rng.standard_normal((256, 1))
    x = rng.standard_normal((256, 2))
    x[7, 1] = bad
    yp = KernelParams(sigma2=sigma2_y)
    assert (_batch_factor(y, yp) is None) == (sigma2_y == 0.1)
    try:
        with np.errstate(invalid="ignore"):
            est, grad = gcm_with_grad(x, z, y, yp, LAM)
    except NumericalError:
        return
    assert not np.isfinite(est.value) and not np.isfinite(est.regularizer_value)
    assert not np.all(np.isfinite(grad))


def test_gcm_factors_once_per_step(monkeypatch):
    # both regressions share one factor per step; a batch whose factor
    # gives up shares one ridge system: one Cholesky test per step
    factors, cholesky_calls = [], []
    cholesky = np.linalg.cholesky

    def counting_factor(points, params, stop, checkpoint):
        factors.append(points.shape)
        return pivoted_cholesky(points, params, stop, checkpoint)

    def counting_cholesky(a):
        cholesky_calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(baselines_mod, "pivoted_cholesky", counting_factor)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    x, z, y = _low_rank_batch(256, 12)
    gcm_with_grad(x, z, y, YP, LAM)
    assert factors == [(256, 1)] and cholesky_calls == []

    factors.clear()
    rng = np.random.default_rng(12)
    y = rng.standard_normal((64, 1))
    z = y**2 + rng.standard_normal((64, 2))
    x = z[:, :1] + 0.1 * rng.standard_normal((64, 2))
    assert _batch_factor(y) is None
    cholesky_calls.clear()
    gcm_with_grad(x, z, y, YP, LAM)
    assert factors == [(64, 1)] and cholesky_calls == [(64, 64)]
    monkeypatch.undo()
    _assert_gcm_bitwise_per_pair(x, z, y)


def test_factor_routes_build_no_label_gram(monkeypatch):
    # the factor computes its own pivot rows, so a holdout grid forms no
    # Gram at all, also on multi2's near full-rank y and on multi1's near
    # full-rank z at sigma2_z = 0.1, and a batch on the factor route never
    # forms K_yy; on the batch dense route it is formed once, which also
    # shows that the recorders see it
    seen, distances = [], []
    squared_distances = kernels_mod.squared_distances

    def recording_gram(rows, cols, params):
        seen.append((rows, cols))
        return gram(rows, cols, params)

    def recording_distances(rows, cols):
        distances.append(rows.shape)
        return squared_distances(rows, cols)

    def label_grams(y):
        return [(rows.shape, cols.shape) for rows, cols in seen if rows is y and cols is y]

    monkeypatch.setattr(kernels_mod, "squared_distances", recording_distances)
    for case, sigma2_z, grid in (("multi2", 1.0, DEFAULT_SIGMA2_Y_GRID),
                                 ("multi1", 0.1, [1.0])):
        ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
        _, report = select_hyperparams(ds.standardizer.transform("y", ds.holdout.y),
                                       ds.standardizer.transform("z", ds.holdout.z),
                                       sigma2_y_grid=grid,
                                       z_params=KernelParams(sigma2=sigma2_z))
        assert max(report.factor_widths.max(), report.z_factor_width) > 500
    assert distances == []

    monkeypatch.setattr(baselines_mod, "gram", recording_gram)
    x, z, y = _low_rank_batch(256, 12)
    rng = np.random.default_rng(52)
    y_dense = rng.standard_normal((256, 2))
    for labels, yp, routes_factor in ((y, YP, True), (y_dense, KernelParams(sigma2=0.1), False)):
        assert (_batch_factor(labels, yp) is not None) == routes_factor
        expected = [] if routes_factor else [(labels.shape, labels.shape)]
        seen.clear()
        hscic_with_grad(x, z, labels, XP, ZP, yp, LAM)
        assert label_grams(labels) == expected
        seen.clear()
        gcm_with_grad(x, z, labels, yp, LAM)
        assert label_grams(labels) == expected
    assert (256, 2) in distances
