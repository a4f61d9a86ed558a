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
    _loo_errors,
    _spectrum,
    _z_gram,
    _ZGram,
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


def _dense_z(k_zz):
    """K_ZZ on the dense route of _spectrum, as _z_gram gives it where the
    factor gives up."""
    return _ZGram(k_zz, np.diag(k_zz).copy(), 0)


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
    kept = {s2: rank for s2, _, rank in report.floor_rows()}
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


def test_singular_holdout_is_floored_and_finite():
    rng = np.random.default_rng(8)
    y, z = _sample_pairs(rng, 30)
    y2 = np.vstack([y, y])
    z2 = np.vstack([z, y**2 + rng.standard_normal(y.shape)])
    _, report = select_hyperparams(y2, z2)
    assert np.all(np.isfinite(report.errors))
    assert report.floored_eigs.shape == (4,)
    assert report.floored_eigs.sum() > 0
    assert [row[0] for row in report.floor_rows()] == [0.001, 0.01, 0.1, 1.0]
    # 30 distinct points need a factor of width M/2 at the narrow bandwidths
    assert report.factor_widths[0] == 0 and report.floored_eigs[0] > 0

    # 300 distinct points twice over: rank <= M/2 at sigma2_y = 1, so the
    # Cholesky factor runs, and every direction it never reached counts
    y, z = _sample_pairs(rng, 300)
    y2 = np.vstack([y, y])
    z2 = np.vstack([z, y**2 + rng.standard_normal(y.shape)])
    _, report = select_hyperparams(y2, z2, sigma2_y_grid=[1.0])
    assert np.all(np.isfinite(report.errors))
    width = report.factor_widths[0]
    assert 0 < width <= 300
    assert report.floored_eigs[0] >= 600 - width
    assert report.ranks[0] <= width


def test_wide_gram_takes_the_dense_path_bitwise():
    # 400 spread 2-d points at a narrow bandwidth: numerical rank near M
    rng = np.random.default_rng(11)
    y = rng.standard_normal((400, 2))
    z = rng.standard_normal((400, 1))
    yp = KernelParams(sigma2=0.01)
    k_zz = gram(z, z, KernelParams(sigma2=1.0))
    s, u, c, _, floored, width = _spectrum(y, yp, _dense_z(k_zz))
    assert width == 0
    s_ref, u_ref = np.linalg.eigh(gram(y, y, yp))
    cut = int(np.searchsorted(s_ref, RANK_CUT * s_ref[-1], side="right"))
    assert 400 - cut > 200
    assert np.array_equal(s, s_ref[cut:]) and np.array_equal(u, u_ref[:, cut:])
    assert floored == np.count_nonzero(s_ref <= 0.0)


@pytest.mark.parametrize("case", ["uni1", "multi1", "multi2"])
def test_factor_spectrum_matches_the_truncated_dense_eigh(case):
    # the factor's eigenpairs come from its small Gram G^T G; check them
    # against a dense eigh of K_YY cut at the same RANK_CUT, on every
    # bandwidth that takes the factor at M = 1000, with K_ZZ dense on both
    # sides so only the y route differs. Bounds are 10x or more
    # above the largest value measured on these cells at one and two BLAS
    # threads: eigenvalues 3.9e-15 s_max, LOO errors 1.3e-11 relative, and
    # centered Grams at lam = 0.001 2.6e-8 relative to their largest entry
    # (the smallest kept directions are orthonormal only to about 1e-5)
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    std = ds.standardizer
    y = std.transform("y", ds.holdout.y)
    z = std.transform("z", ds.holdout.z)
    rows = ds.fit_pool()
    batch_y = std.transform("y", rows.y[:256])
    batch_z = std.transform("z", rows.z[:256])
    zp = KernelParams(sigma2=1.0)
    k_zz = gram(z, z, zp)
    kz = _dense_z(k_zz)
    lams = np.array([0.001, 0.01, 0.1, 1.0])
    factored = []
    for s2 in (0.001, 0.01, 0.1, 1.0):
        yp = KernelParams(sigma2=s2)
        s, u, c, ku, _, width = _spectrum(y, yp, kz)
        if not width:
            continue
        factored.append(s2)
        s_ref, u_ref = np.linalg.eigh(gram(y, y, yp))
        cut = int(np.searchsorted(s_ref, RANK_CUT * s_ref[-1], side="right"))
        s_ref, u_ref = s_ref[cut:], np.ascontiguousarray(u_ref[:, cut:])
        assert s.shape == s_ref.shape
        assert np.max(np.abs(s - s_ref)) <= 1e-13 * s_ref[-1]
        ku_ref = k_zz @ u_ref
        c_ref = u_ref.T @ ku_ref
        c_ref = 0.5 * (c_ref + c_ref.T)
        errors = _loo_errors(s, u, c, ku, kz, lams)
        ref = _loo_errors(s_ref, u_ref, c_ref, ku_ref, kz, lams)
        assert np.all(np.abs(errors - ref) <= 2e-10 * ref)
        grams = [centered_gram(batch_y, batch_z, CmeModel(y, z, 0.001, yp, zp, *spec),
                               yp, zp) for spec in ((u, s, c), (u_ref, s_ref, c_ref))]
        assert np.max(np.abs(grams[0] - grams[1])) <= 3e-7 * np.max(np.abs(grams[1]))
    # 1-d y takes the factor at every bandwidth, 2-d y at sigma2_y = 1 only
    assert factored == ([1.0] if case == "multi2" else [0.001, 0.01, 0.1, 1.0])


@pytest.mark.parametrize("case", ["uni1", "multi1", "multi2"])
def test_z_factor_matches_the_dense_z_gram(case):
    # K_ZZ ~ G_z G_z^T enters as p = G_z^T u, and _loo_errors forms
    # ku = G_z p: against the formed K_ZZ on the same y spectrum, at every
    # bandwidth of the M = 1000 grid (y factor and dense eigh alike). Bounds
    # are 10x above the largest value measured on these cells: ku and c
    # 1.1e-14 of their largest entry, LOO errors 1.4e-9 relative (multi2,
    # sigma2_y = 0.001, lam = 0.001: the factor's stop of 1e-13 is
    # amplified by 1 / (1 - A_ii)^2 at the smallest lam)
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    z = ds.standardizer.transform("z", ds.holdout.z)
    zp = KernelParams(sigma2=1.0)
    kz = _z_gram(z, zp)
    k_zz = gram(z, z, zp)
    kz_dense = _dense_z(k_zz)
    # the factor reads K_ZZ's diagonal as the Gaussian kernel's exact 1; the
    # reference keeps gram's, which the norm expansion of two-column z
    # (multi1) moves off 1 by roundoff
    assert 0 < kz.width < 500 and kz.diag == 1.0
    lams = np.array([0.001, 0.01, 0.1, 1.0])
    for s2 in (0.001, 0.01, 0.1, 1.0):
        yp = KernelParams(sigma2=s2)
        s, u, c, p, _, _ = _spectrum(y, yp, kz)
        s_ref, u_ref, c_ref, ku_ref, _, _ = _spectrum(y, yp, kz_dense)
        assert p.shape == (kz.width, s.shape[0]) and ku_ref.shape == u.shape
        assert np.array_equal(s, s_ref) and np.array_equal(u, u_ref)
        ku = kz.matrix.T @ p
        assert np.max(np.abs(ku - ku_ref)) <= 1e-13 * np.max(np.abs(ku_ref))
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))
        assert np.array_equal(c, c.T)
        errors = _loo_errors(s, u, c, p, kz, lams)
        ref = _loo_errors(s_ref, u_ref, c_ref, ku_ref, kz_dense, lams)
        assert np.all(np.abs(errors - ref) <= 2e-8 * ref)


def test_z_gram_is_formed_where_its_factor_gives_up():
    # multi1's two-column z at sigma2_z = 0.1 is near full rank at M = 1000:
    # K_ZZ is formed by gram, as every grid before the z factor formed it,
    # and the grid on it matches the dense Cholesky reference
    ds = make_dataset("multi1", 2000, 2, 0, m_holdout=1000)
    y = ds.standardizer.transform("y", ds.holdout.y)
    z = ds.standardizer.transform("z", ds.holdout.z)
    zp = KernelParams(sigma2=0.1)
    kz = _z_gram(z, zp)
    assert kz.width == 0 and np.array_equal(kz.matrix, gram(z, z, zp))
    assert np.array_equal(kz.diag, np.diag(kz.matrix))
    _, report = select_hyperparams(y, z, lambda_grid=[0.01, 1.0], sigma2_y_grid=[1.0],
                                   z_params=zp)
    assert report.z_factor_width == 0
    for lam, s2, err in report.as_rows():
        assert err == pytest.approx(cholesky_loo(y, z, lam, KernelParams(sigma2=s2), zp),
                                    rel=1e-8)
    _, report = select_hyperparams(y, z, lambda_grid=[1.0], sigma2_y_grid=[1.0])
    assert report.z_factor_width == _z_gram(z, KernelParams(sigma2=1.0)).width > 0


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


def test_factor_gives_up_early_only_where_the_width_limit_would(monkeypatch):
    # on the SCM Grams at M = 1000 the M/3 give-up ends no factor that the
    # M/2 limit lets finish, and changes no bit of those that finish
    def factor(y, params):
        return pivoted_cholesky(y, params, 0.1 * RANK_CUT, y.shape[0] // 3)

    for case in ("uni1", "multi2"):
        ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
        y = ds.standardizer.transform("y", ds.holdout.y)
        for s2 in (0.001, 0.01, 0.1, 1.0):
            params = KernelParams(sigma2=s2)
            g = factor(y, params)
            with monkeypatch.context() as mp:
                mp.setattr(kernels_mod, "FACTOR_GIVE_UP", math.inf)
                g_full = factor(y, params)
            assert (g is None) == (g_full is None)
            if g is not None:
                assert np.array_equal(g, g_full)

    # a near-full-rank Gram stops at M/3 columns instead of M/2, and
    # _spectrum passes that checkpoint
    rng = np.random.default_rng(11)
    y = rng.standard_normal((400, 2))
    rows = []
    monkeypatch.setattr(kernels_mod, "math", SimpleNamespace(
        sqrt=lambda x: rows.append(x) or math.sqrt(x)))
    _spectrum(y, KernelParams(sigma2=0.01), _dense_z(np.eye(400)))
    assert len(rows) == 400 // 3


@pytest.mark.parametrize("sigma2_y", [0.01, 1.0])
def test_failed_or_non_finite_eigh_raises_numerical_error(monkeypatch, sigma2_y):
    # sigma2_y 0.01 on 40 spread points takes the dense eigh, 1.0 the factor's
    rng = np.random.default_rng(12)
    y, z = _sample_pairs(rng, 40)
    yp, zp = KernelParams(sigma2=sigma2_y), KernelParams(sigma2=1.0)
    eigh = np.linalg.eigh
    assert (_spectrum(y, yp, _dense_z(np.eye(40)))[-1] > 0) == (sigma2_y == 1.0)

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


@pytest.mark.parametrize("malformed", ["missing_field", "not_npz"])
def test_malformed_model_file_raises_config_error_naming_path(tmp_path, malformed):
    # used to raise KeyError ("holdout_y is not a file in the archive") or
    # numpy's ValueError about pickled data
    path = tmp_path / "cme.npz"
    if malformed == "missing_field":
        rng = np.random.default_rng(6)
        save_cme(fit_cme(*_sample_pairs(rng, 12), 0.02, KernelParams(sigma2=0.5),
                         KernelParams(sigma2=1.5)), path)
        with np.load(path) as data:
            arrays = {k: v for k, v in data.items() if k != "holdout_y"}
        np.savez(path, **arrays)
    else:
        path.write_text("holdout_y,1.0\n")
    with pytest.raises(ConfigError, match="cannot load embedding model .*cme.npz"):
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
