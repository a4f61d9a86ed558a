import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import circe.kernels as kernels_mod
from circe.cme import (
    LOO_DIAG_GUARD,
    RANK_CUT,
    CmeModel,
    fit_cme,
    load_cme,
    loo_error,
    save_cme,
    select_hyperparams,
    _better,
    _holdout_factor,
    _loo_errors,
    _spectrum,
)
from circe.estimator import centered_gram
from circe.exceptions import ConfigError, NumericalError
from circe.kernels import KernelParams, gram, pivoted_cholesky, regularized_solve
from circe.scm import SCM_CASES, make_dataset


def _closed_w1(model):
    """(K_YY + lam I)^{-1} from the model's holdout, by a dense solve."""
    k_yy = gram(model.holdout_y, model.holdout_y, model.y_params)
    m = model.n_holdout
    return np.linalg.solve(k_yy + model.lam * np.eye(m), np.eye(m))


def _spectral_w1(model):
    """The model's W1 rebuilt from its kept eigenpairs, u (D - I/lam) u^T + I/lam."""
    d = 1.0 / (model.s + model.lam) - 1.0 / model.lam
    return (model.u * d) @ model.u.T + np.eye(model.n_holdout) / model.lam


def _dense_spectrum(y, y_params):
    """Reference: the eigenpairs of the formed K_YY above RANK_CUT times the
    largest, by a dense eigh."""
    s, u = np.linalg.eigh(gram(y, y, y_params))
    cut = int(np.searchsorted(s, RANK_CUT * s[-1], side="right"))
    return s[cut:], np.ascontiguousarray(u[:, cut:])


def _dense_loo_errors(s, u, k_zz, lams):
    """Reference: the leave-one-out errors of every lam on the spectrum (s, u)
    of K_YY, with the formed K_ZZ and its computed diagonal,
    diag(A K_ZZ A^T) = rowsum((W C) o W) with C = u^T K_ZZ u; and that C."""
    d = s[:, None] / (s[:, None] + lams[None, :])
    ku = k_zz @ u
    c = u.T @ ku
    c = 0.5 * (c + c.T)
    diag_ak = (u * ku) @ d
    diag_a = (u * u) @ d
    errors = np.empty(len(lams))
    for j in range(len(lams)):
        w = u * d[:, j]
        resid = np.diag(k_zz) - 2.0 * diag_ak[:, j] + np.einsum("ij,ij->i", w @ c, w)
        np.maximum(resid, 0.0, out=resid)
        errors[j] = np.mean(resid / (1.0 - diag_a[:, j])**2)
    return errors, ku, c


def _sample_pairs(rng, m):
    y = rng.standard_normal((m, 1))
    z = y**2 + rng.standard_normal((m, 1))
    return y, z


def naive_loo(y, z, lam, y_params, z_params):
    """Oracle: refit on every leave-one-out split and average the held-out
    embedding residuals computed via the kernel trick."""
    m = y.shape[0]
    k_zz = gram(z, z, z_params)
    total = 0.0
    for i in range(m):
        keep = np.arange(m) != i
        k_yy = gram(y[keep], y[keep], y_params)
        k_yi = gram(y[keep], y[i:i + 1], y_params)[:, 0]
        coef = np.linalg.solve(k_yy + lam * np.eye(m - 1), k_yi)
        kz_i = k_zz[np.ix_(keep, [i])][:, 0]
        total += (
            k_zz[i, i]
            - 2.0 * coef @ kz_i
            + coef @ k_zz[np.ix_(keep, keep)] @ coef
        )
    return total / m


def cholesky_loo(y, z, lam, y_params, z_params):
    """Reference: the dense closed-form LOO through a Cholesky solve."""
    m = y.shape[0]
    k_yy = gram(y, y, y_params)
    k_zz = gram(z, z, z_params)
    A = k_yy @ regularized_solve(k_yy, lam, np.eye(m))
    denom = 1.0 - np.diag(A)
    if np.any(denom <= LOO_DIAG_GUARD):
        return math.inf
    AK = A @ k_zz
    resid = np.diag(k_zz) - 2.0 * np.diag(AK) + np.einsum("ij,ij->i", AK, A)
    np.maximum(resid, 0.0, out=resid)
    return float(np.mean(resid / denom**2))


def test_loo_matches_naive_retraining():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        y, z = _sample_pairs(rng, 25)
        lam = float(10 ** rng.uniform(-3, 0))
        yp = KernelParams(sigma2=float(10 ** rng.uniform(-1, 0.5)))
        zp = KernelParams(sigma2=1.0)
        fast = loo_error(y, z, lam, yp, zp)
        slow = naive_loo(y, z, lam, yp, zp)
        assert abs(fast - slow) / abs(slow) <= 1e-8


def test_loo_large_lambda_tends_to_unit_self_kernel():
    rng = np.random.default_rng(1)
    y, z = _sample_pairs(rng, 40)
    err = loo_error(y, z, 1e8, KernelParams(sigma2=0.5), KernelParams(sigma2=1.0))
    # predictions vanish, so the residual is k(z_i, z_i) = 1 for a Gaussian kernel
    assert abs(err - 1.0) <= 1e-3


def test_duplicating_holdout_with_doubled_lambda_preserves_predictions():
    # under the (K + lam I) parameterization, doubling every point is equivalent
    # to doubling lam; predictions at fresh query points must be identical
    rng = np.random.default_rng(2)
    y, z = _sample_pairs(rng, 15)
    yp = KernelParams(sigma2=0.5)
    zp = KernelParams(sigma2=1.0)
    lam = 0.05
    base = fit_cme(y, z, lam, yp, zp)
    dup = fit_cme(np.vstack([y, y]), np.vstack([z, z]), 2 * lam, yp, zp)

    query = rng.standard_normal((7, 1))
    beta_base = _spectral_w1(base) @ gram(base.holdout_y, query, yp)
    beta_dup = _spectral_w1(dup) @ gram(dup.holdout_y, query, yp)
    assert np.allclose(beta_base, _closed_w1(base) @ gram(y, query, yp), atol=1e-9)
    # collapse the duplicated coefficients back onto the original points
    collapsed = beta_dup[:15] + beta_dup[15:]
    assert np.allclose(collapsed, beta_base, atol=1e-9)

    # leave-one-out error stays finite on the duplicated fit
    err = loo_error(np.vstack([y, y]), np.vstack([z, z]), 2 * lam, yp, zp)
    assert math.isfinite(err)


def test_fit_cme_weights_match_direct_formulas():
    rng = np.random.default_rng(3)
    y, z = _sample_pairs(rng, 20)
    yp = KernelParams(sigma2=0.3)
    zp = KernelParams(sigma2=0.7)
    model = fit_cme(y, z, 0.01, yp, zp)
    k_yy = gram(y, y, yp)
    k_zz = gram(z, z, zp)
    w1 = np.linalg.solve(k_yy + 0.01 * np.eye(20), np.eye(20))
    assert np.allclose(_spectral_w1(model), w1, atol=1e-9)
    # the kept eigenvectors see W2 = W1 K_ZZ W1 as D c D
    d = 1.0 / (model.s + model.lam)
    w2 = model.u.T @ (w1 @ k_zz @ w1) @ model.u
    assert np.allclose(d[:, None] * model.c * d, w2, atol=1e-9)
    assert np.array_equal(model.c, model.c.T)


def test_select_hyperparams_minimizes_loo_on_grid():
    rng = np.random.default_rng(4)
    y, z = _sample_pairs(rng, 30)
    zp = KernelParams(sigma2=1.0)
    model, report = select_hyperparams(y, z, z_params=zp)
    assert report.errors.shape == (16,)
    finite = report.errors[np.isfinite(report.errors)]
    assert report.best_error == finite.min()
    assert model.lam == report.best_lam
    assert model.y_params.sigma2 == report.best_sigma2_y
    # the reported best really is the loo error at those settings
    direct = loo_error(y, z, report.best_lam,
                       KernelParams(sigma2=report.best_sigma2_y), zp)
    assert direct == pytest.approx(report.best_error, rel=1e-12)
    # the returned model is bitwise the plain fit at the winner
    refit = fit_cme(y, z, report.best_lam, KernelParams(sigma2=report.best_sigma2_y), zp)
    for name in ("u", "s", "c"):
        assert np.array_equal(getattr(model, name), getattr(refit, name))
    kept = {s2: rank for s2, _, rank in report.bandwidth_rows()}
    assert model.rank == kept[model.y_params.sigma2]


@pytest.mark.parametrize("case", SCM_CASES)
def test_spectral_grid_matches_cholesky_reference(case):
    zp = KernelParams(sigma2=1.0)
    for seed in range(5):
        ds = make_dataset(case, 1000, 2, seed, m_holdout=200)
        y = ds.standardizer.transform("y", ds.holdout.y)
        z = ds.standardizer.transform("z", ds.holdout.z)
        _, report = select_hyperparams(y, z, z_params=zp)
        best = None
        for lam, s2, err in report.as_rows():
            ref = cholesky_loo(y, z, lam, KernelParams(sigma2=s2), zp)
            assert err == pytest.approx(ref, rel=1e-8)
            if math.isfinite(ref) and _better(ref, lam, s2, best):
                best = (ref, lam, s2)
        assert (report.best_lam, report.best_sigma2_y) == best[1:]


def test_singular_holdout_takes_a_narrow_factor_and_stays_finite():
    rng = np.random.default_rng(8)
    y, z = _sample_pairs(rng, 30)
    y2 = np.vstack([y, y])
    z2 = np.vstack([z, y**2 + rng.standard_normal(y.shape)])
    _, report = select_hyperparams(y2, z2)
    assert np.all(np.isfinite(report.errors))
    rows = report.bandwidth_rows()
    assert [row[0] for row in rows] == [0.001, 0.01, 0.1, 1.0]
    # the factor of 30 distinct points twice over stops within 30 columns,
    # and the rank cut keeps at most the factor's width
    for _, width, rank in rows:
        assert 0 < rank <= width <= 30

    # 300 distinct points twice over: rank <= M/2 at sigma2_y = 1
    y, z = _sample_pairs(rng, 300)
    y2 = np.vstack([y, y])
    z2 = np.vstack([z, y**2 + rng.standard_normal(y.shape)])
    _, report = select_hyperparams(y2, z2, sigma2_y_grid=[1.0])
    assert np.all(np.isfinite(report.errors))
    assert 0 < report.ranks[0] <= report.factor_widths[0] <= 300


def test_wide_gram_factor_matches_the_dense_eigh():
    # 400 spread 2-d points at a narrow bandwidth: numerical rank near M, so
    # the factor runs past M/2 columns. Against a dense eigh of the formed
    # K_YY it keeps the same rank and its eigenvalues agree within 2.1e-14
    # of the largest (bound 10x above)
    rng = np.random.default_rng(11)
    y = rng.standard_normal((400, 2))
    z = rng.standard_normal((400, 1))
    yp = KernelParams(sigma2=0.01)
    s, u, c, _, width = _spectrum(y, yp, _holdout_factor(z, KernelParams(sigma2=1.0)))
    s_ref, u_ref = _dense_spectrum(y, yp)
    assert 200 < width <= 400 and s.shape == s_ref.shape
    assert np.max(np.abs(s - s_ref)) <= 3e-13 * s_ref[-1]


@pytest.mark.parametrize("case", ["uni1", "multi1", "multi2"])
def test_factor_spectrum_matches_the_truncated_dense_eigh(case):
    # the factor's eigenpairs come from its small Gram G^T G; check them
    # against a dense eigh of K_YY cut at the same RANK_CUT, on every
    # bandwidth at M = 1000, with the formed K_ZZ on both sides so only the
    # y route differs. Where the factor is narrower than M/2, bounds are 10x
    # or more above the largest value measured on these cells at one and two
    # BLAS threads: eigenvalues 3.9e-15 s_max, LOO errors 1.3e-11 relative,
    # and centered Grams at lam = 0.001 2.6e-8 relative to their largest
    # entry (the smallest kept directions are orthonormal only to about
    # 1e-5). multi2's factors at sigma2_y <= 0.1 run 748-1000 columns wide:
    # their eigenvalues agree within 2.7e-13 s_max (bound 3e-12), LOO errors
    # within 2.5e-11 and centered Grams within 8.5e-8, under the same bounds
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    std = ds.standardizer
    y = std.transform("y", ds.holdout.y)
    z = std.transform("z", ds.holdout.z)
    rows = ds.fit_pool()
    batch_y = std.transform("y", rows.y[:256])
    batch_z = std.transform("z", rows.z[:256])
    zp = KernelParams(sigma2=1.0)
    k_zz = gram(z, z, zp)
    gz = _holdout_factor(z, zp)
    lams = np.array([0.001, 0.01, 0.1, 1.0])
    widths = []
    for s2 in (0.001, 0.01, 0.1, 1.0):
        yp = KernelParams(sigma2=s2)
        s, u, c, _, width = _spectrum(y, yp, gz)
        widths.append(width)
        s_ref, u_ref = _dense_spectrum(y, yp)
        assert s.shape == s_ref.shape
        eig_bound = 3e-12 if case == "multi2" and s2 < 1.0 else 1e-13
        assert np.max(np.abs(s - s_ref)) <= eig_bound * s_ref[-1]
        errors, _, _ = _dense_loo_errors(s, u, k_zz, lams)
        ref, _, c_ref = _dense_loo_errors(s_ref, u_ref, k_zz, lams)
        assert np.all(np.abs(errors - ref) <= 2e-10 * ref)
        grams = [centered_gram(batch_y, batch_z, CmeModel(y, z, 0.001, yp, zp, *spec),
                               yp, zp) for spec in ((u, s, c), (u_ref, s_ref, c_ref))]
        assert np.max(np.abs(grams[0] - grams[1])) <= 3e-7 * np.max(np.abs(grams[1]))
    # 1-d y factors below M/2 at every bandwidth, 2-d y only at sigma2_y = 1
    assert (max(widths[:3]) > 500) == (case == "multi2") and widths[3] < 500


@pytest.mark.parametrize("case", ["uni1", "multi1", "multi2"])
def test_z_factor_matches_the_dense_z_gram(case):
    # K_ZZ ~ G_z G_z^T enters as p = G_z^T u, and _loo_errors forms
    # ku = G_z p: against the formed K_ZZ on the same y spectrum, at every
    # bandwidth of the M = 1000 grid. Bounds are 10x above the largest value
    # measured on these cells: ku and c 1.1e-14 of their largest entry, LOO
    # errors 1.4e-9 relative (multi2, sigma2_y = 0.001, lam = 0.001: the
    # factor's stop of 1e-13 is amplified by 1 / (1 - A_ii)^2 at the
    # smallest lam)
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    z = ds.standardizer.transform("z", ds.holdout.z)
    zp = KernelParams(sigma2=1.0)
    gz = _holdout_factor(z, zp)
    k_zz = gram(z, z, zp)
    # the factor reads K_ZZ's diagonal as the Gaussian kernel's exact 1; the
    # reference keeps gram's, which the norm expansion of two-column z
    # (multi1) moves off 1 by roundoff
    assert 0 < gz.shape[0] < 500
    lams = np.array([0.001, 0.01, 0.1, 1.0])
    for s2 in (0.001, 0.01, 0.1, 1.0):
        yp = KernelParams(sigma2=s2)
        s, u, c, p, _ = _spectrum(y, yp, gz)
        ref, ku_ref, c_ref = _dense_loo_errors(s, u, k_zz, lams)
        assert p.shape == (gz.shape[0], s.shape[0])
        ku = gz.T @ p
        assert np.max(np.abs(ku - ku_ref)) <= 1e-13 * np.max(np.abs(ku_ref))
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))
        assert np.array_equal(c, c.T)
        errors = _loo_errors(s, u, p, gz, lams)
        assert np.all(np.abs(errors - ref) <= 2e-8 * ref)


def test_near_full_rank_z_takes_a_factor_past_half_width():
    # multi1's two-column z at sigma2_z = 0.1 is near full rank at M = 1000:
    # its factor runs past M/2 columns, where one with a give-up checkpoint
    # would have stopped, and the grid on it matches the dense Cholesky
    # reference
    ds = make_dataset("multi1", 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    z = ds.standardizer.transform("z", ds.holdout.z)
    zp = KernelParams(sigma2=0.1)
    width = _holdout_factor(z, zp).shape[0]
    assert 500 < width <= 1000
    _, report = select_hyperparams(y, z, lambda_grid=[0.01, 1.0], sigma2_y_grid=[1.0],
                                   z_params=zp)
    assert report.z_factor_width == width
    for lam, s2, err in report.as_rows():
        assert err == pytest.approx(cholesky_loo(y, z, lam, KernelParams(sigma2=s2), zp),
                                    rel=1e-8)
    _, report = select_hyperparams(y, z, lambda_grid=[1.0], sigma2_y_grid=[1.0])
    assert report.z_factor_width == _holdout_factor(z, KernelParams(sigma2=1.0)).shape[0] < 500


@pytest.mark.parametrize("case, bound_mb", [("uni1", 10.0), ("multi1", 12.0)])
def test_loo_grid_peak_memory(case, bound_mb):
    # tracemalloc counts numpy's buffers exactly, and this peak repeats to
    # 1e-3 MB at one and two BLAS threads. One M = 1000 grid peaks at 8.39
    # MB on uni1 and 10.57 MB on multi1 (MB = 2^20 bytes), with the LOO in
    # one (M, r) scratch array and the K_ZZ factor in an array of its own
    # width; while K_ZZ u, u o u, u o K_ZZ u and each lam's W were separate
    # arrays and the factor a view of its (M/2, M) buffer, it peaked at
    # 14.84 and 16.48 MB
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    z = ds.standardizer.transform("z", ds.holdout.z)
    tracemalloc.start()
    try:
        select_hyperparams(y, z)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb


def test_holdout_factor_never_gives_up(monkeypatch):
    # on the SCM Grams at M = 1000 a factor that finishes under the M/3
    # checkpoint and the M/2 limit is bitwise the one that runs without
    # them; where multi2's two-column y gives up there (sigma2_y <= 0.1),
    # the holdout factor runs past M/2
    for case in ("uni1", "multi2"):
        ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
        y = ds.standardizer.transform("y", ds.holdout.y)
        for s2 in (0.001, 0.01, 0.1, 1.0):
            params = KernelParams(sigma2=s2)
            g = _holdout_factor(y, params)
            g_checked = pivoted_cholesky(y, params, 0.1 * RANK_CUT, 1000 // 3)
            assert (g_checked is None) == (case == "multi2" and s2 < 1.0)
            if g_checked is None:
                assert g.shape[0] > 500
            else:
                assert np.array_equal(g, g_checked)

    # a near-full-rank Gram takes a column per point, past M/3 and M/2
    rng = np.random.default_rng(11)
    y = rng.standard_normal((400, 2))
    rows = []
    monkeypatch.setattr(kernels_mod, "math", SimpleNamespace(
        sqrt=lambda x: rows.append(x) or math.sqrt(x)))
    width = _spectrum(y, KernelParams(sigma2=0.01), np.ones((1, 400)))[-1]
    assert len(rows) == width == 400


@pytest.mark.parametrize("sigma2_y", [0.01, 1.0])
def test_failed_or_non_finite_eigh_raises_numerical_error(monkeypatch, sigma2_y):
    # sigma2_y 0.01 on 40 spread points takes a factor past M/2, 1.0 a narrow one
    rng = np.random.default_rng(12)
    y, z = _sample_pairs(rng, 40)
    yp, zp = KernelParams(sigma2=sigma2_y), KernelParams(sigma2=1.0)
    eigh = np.linalg.eigh
    assert (_spectrum(y, yp, np.ones((1, 40)))[-1] > 20) == (sigma2_y == 0.01)

    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match="eigendecomposition of K_YY failed"):
        fit_cme(y, z, 0.1, yp, zp)

    def not_finite(a):
        s, v = eigh(a)
        s[0] = np.nan
        return s, v

    monkeypatch.setattr(np.linalg, "eigh", not_finite)
    with pytest.raises(NumericalError, match="non-finite eigenvalues"):
        select_hyperparams(y, z, sigma2_y_grid=[sigma2_y], z_params=zp)


def test_loo_diag_guard_and_a_grid_without_finite_error():
    # 10 points 3 apart at sigma2_y = 0.01: K_YY = I to roundoff, so at
    # lam = 1e-12 every 1 - A_ii is about 1e-12, below LOO_DIAG_GUARD
    y = 3.0 * np.arange(10.0)[:, None]
    z = np.sin(y)
    yp, zp = KernelParams(sigma2=0.01), KernelParams(sigma2=1.0)
    assert 1e-12 / (1.0 + 1e-12) < LOO_DIAG_GUARD
    assert loo_error(y, z, 1e-12, yp, zp) == math.inf
    assert math.isfinite(loo_error(y, z, 0.1, yp, zp))
    with pytest.raises(ConfigError, match="non-finite leave-one-out error"):
        select_hyperparams(y, z, lambda_grid=[1e-12], sigma2_y_grid=[0.01], z_params=zp)


def test_tie_breaking_prefers_larger_lambda_then_sigma():
    assert _better(1.0, 0.1, 0.1, None)
    best = (1.0, 0.01, 0.1)
    assert _better(1.0, 0.1, 0.001, best)          # same error, larger lam
    assert not _better(1.0, 0.001, 1.0, best)      # same error, smaller lam
    assert _better(1.0, 0.01, 1.0, best)           # same error and lam, larger sigma
    assert not _better(1.1, 1.0, 1.0, best)        # worse error never wins


def test_select_rejects_empty_and_bad_grids():
    rng = np.random.default_rng(5)
    y, z = _sample_pairs(rng, 10)
    with pytest.raises(ConfigError):
        select_hyperparams(y, z, lambda_grid=[], sigma2_y_grid=[0.1])
    with pytest.raises(ConfigError):
        select_hyperparams(y, z, lambda_grid=[-0.1], sigma2_y_grid=[0.1])


def test_fit_cme_shape_checks():
    with pytest.raises(ConfigError):
        fit_cme(np.zeros((5, 1)), np.zeros((4, 1)), 0.1,
                KernelParams(sigma2=1.0), KernelParams(sigma2=1.0))
    with pytest.raises(ConfigError):
        fit_cme(np.zeros((1, 1)), np.zeros((1, 1)), 0.1,
                KernelParams(sigma2=1.0), KernelParams(sigma2=1.0))


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
def test_fit_cme_rejects_bad_lambda(lam):
    rng = np.random.default_rng(9)
    y, z = _sample_pairs(rng, 10)
    with pytest.raises(ConfigError):
        fit_cme(y, z, lam, KernelParams(sigma2=1.0), KernelParams(sigma2=1.0))


def test_load_rejects_version_1_model(tmp_path):
    path = tmp_path / "old.npz"
    eye = np.eye(3)
    np.savez(path, schema_version=1, holdout_y=np.zeros((3, 1)),
             holdout_z=np.zeros((3, 1)), lam=0.1, sigma2_y=1.0, sigma2_z=1.0,
             w1=eye, w2=eye)
    with pytest.raises(ConfigError, match="version 1.*circe fit-cme"):
        load_cme(path)


# the saved field each malformed file edits, the edit (None drops the field)
# and the reason load_cme gives after the path
MALFORMED = {
    "missing_field": ("holdout_y", None, ""),
    "truncated_s": ("s", lambda s: s[:-1], r"s has shape \(\d+,\), expected \(\d+,\)"),
    "negative_lam": ("lam", lambda lam: -1.0, "lambda values must be positive"),
    "short_u": ("u", lambda u: u[1:], r"u has shape \(11, \d+\), expected \(12, r\)"),
    "nan_holdout_y": ("holdout_y", lambda y: np.where(y == y.max(), np.nan, y),
                      "holdout_y has a non-finite entry"),
    "inf_holdout_z": ("holdout_z", lambda z: np.full_like(z, np.inf),
                      "holdout_z has a non-finite entry"),
    "nan_u": ("u", lambda u: u * np.nan, "u has a non-finite entry"),
    "nan_s": ("s", lambda s: np.full_like(s, np.nan), "s has a non-finite entry"),
    "nan_c": ("c", lambda c: np.where(c == c.max(), np.nan, c), "c has a non-finite entry"),
    "negated_s": ("s", lambda s: -s, r"s must be positive, got minimum -"),
    "zero_s": ("s", lambda s: np.where(s == s.min(), 0.0, s), "s must be positive, got minimum 0.0"),
}


@pytest.mark.parametrize("malformed", ["not_npz", *MALFORMED])
def test_malformed_model_file_raises_config_error_naming_path(tmp_path, malformed):
    # a missing field used to raise KeyError ("holdout_y is not a file in the
    # archive") and a text file numpy's ValueError about pickled data; a
    # truncated s or a short u loaded and failed later in centered_gram with
    # numpy's "operands could not be broadcast", and a negative lam loaded;
    # a NaN or negated spectrum or a NaN holdout loaded and made every
    # centered Gram non-finite, so every training step was skipped
    path = tmp_path / "cme.npz"
    if malformed == "not_npz":
        path.write_text("holdout_y,1.0\n")
        message = ""
    else:
        rng = np.random.default_rng(6)
        save_cme(fit_cme(*_sample_pairs(rng, 12), 0.02, KernelParams(sigma2=0.5),
                         KernelParams(sigma2=1.5)), path)
        field, edit, message = MALFORMED[malformed]
        with np.load(path) as data:
            arrays = dict(data.items())
        if edit is None:
            del arrays[field]
        else:
            arrays[field] = edit(arrays[field])
        np.savez(path, **arrays)
    with pytest.raises(ConfigError, match=f"cannot load embedding model .*cme.npz: {message}"):
        load_cme(path)


def test_cme_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    y, z = _sample_pairs(rng, 12)
    model = fit_cme(y, z, 0.02, KernelParams(sigma2=0.5), KernelParams(sigma2=1.5))
    path = tmp_path / "cme.npz"
    save_cme(model, path)
    loaded = load_cme(path)
    assert isinstance(loaded, CmeModel)
    assert loaded.lam == model.lam
    assert loaded.y_params == model.y_params
    assert loaded.z_params == model.z_params
    for name in ("u", "s", "c"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert np.array_equal(loaded.holdout_y, model.holdout_y)
    assert np.array_equal(loaded.holdout_z, model.holdout_z)
