import numpy as np
import pytest

import circe.estimator as estimator_mod
from circe.cme import (RANK_CUT, CmeModel, _holdout_factor, _spectrum, fit_cme,
                      select_hyperparams)
from circe.estimator import (
    centered_from_factors,
    centered_gram,
    circe_statistic,
    cross_factors,
    statistic_gradient_coeff,
)
from circe.exceptions import ConfigError
from circe.kernels import KernelParams, gram
from circe.scm import make_dataset
from circe.trainer import train_data_from_dataset
from oracles import circe_oracle


YP = KernelParams(sigma2=0.5)
ZP = KernelParams(sigma2=1.0)
XP = KernelParams(sigma2=1.0)


def _model(rng, m=60, lam=0.01):
    y = rng.standard_normal((m, 1))
    z = y**2 + 0.5 * rng.standard_normal((m, 1))
    return fit_cme(y, z, lam, YP, ZP)


def _dense_cross_terms(model, y, z):
    """P = K_yY W1 K_Zz and Q = K_yY W1 K_ZZ W1 K_Yy with the dense
    W1 = (K_YY + lam I)^{-1}."""
    m = model.n_holdout
    k_YY = gram(model.holdout_y, model.holdout_y, model.y_params)
    k_ZZ = gram(model.holdout_z, model.holdout_z, model.z_params)
    w1 = np.linalg.solve(k_YY + model.lam * np.eye(m), np.eye(m))
    k_yY = gram(y, model.holdout_y, model.y_params)
    k_Zz = gram(model.holdout_z, z, model.z_params)
    return k_yY @ w1 @ k_Zz, k_yY @ (w1 @ k_ZZ @ w1) @ k_yY.T


def _batch(rng, b=24, dependent=True):
    y = rng.standard_normal((b, 1))
    z = y**2 + 0.5 * rng.standard_normal((b, 1))
    if dependent:
        x = z + 0.1 * rng.standard_normal((b, 1))
    else:
        x = np.sin(y) + 0.1 * rng.standard_normal((b, 1))
    return x, y, z


def test_centered_gram_matches_direct_formula():
    rng = np.random.default_rng(0)
    model = _model(rng)
    x, y, z = _batch(rng)
    cg = centered_gram(y, z, model, YP, ZP)

    P, Q = _dense_cross_terms(model, y, z)
    expected = gram(y, y, YP) * (gram(z, z, ZP) - P - P.T + Q)
    assert np.allclose(cg, expected, atol=1e-12)
    assert cg.shape == (24, 24)


def test_duplicated_holdout_keeps_unique_rank_and_cross_terms():
    # doubling every holdout row leaves K_YY of rank at most 15; the kept
    # eigenpairs still reproduce the dense ridge cross terms
    rng = np.random.default_rng(7)
    y = rng.standard_normal((15, 1))
    z = y**2 + 0.5 * rng.standard_normal((15, 1))
    model = fit_cme(np.vstack([y, y]), np.vstack([z, z]), 0.05, YP, ZP)
    assert model.rank <= 15
    _, by, bz = _batch(rng, b=10)
    left, right = cross_factors(by, bz, model)
    assert left.shape == right.shape == (10, model.rank)
    P, Q = _dense_cross_terms(model, by, bz)
    assert np.allclose(left @ right.T + right @ left.T, Q - P - P.T, atol=1e-9)


@pytest.mark.parametrize("case", ["uni1", "multi2"])
def test_low_rank_centered_gram_matches_dense_at_full_holdout(case):
    # the grid winner at M = 1000 is truncated to its numerically nonzero
    # eigenpairs; the centered Gram stays within 1e-7 of the dense ridge form
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    std = ds.standardizer
    model, _ = select_hyperparams(std.transform("y", ds.holdout.y),
                                  std.transform("z", ds.holdout.z))
    assert model.rank < model.n_holdout
    batch = train_data_from_dataset(ds).train.take(np.arange(256))
    cg = centered_gram(batch.y, batch.z, model, model.y_params, model.z_params)
    P, Q = _dense_cross_terms(model, batch.y, batch.z)
    expected = (gram(batch.y, batch.y, model.y_params)
                * (gram(batch.z, batch.z, model.z_params) - P - P.T + Q))
    rel = np.max(np.abs(cg - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-7


@pytest.mark.parametrize("case", ["uni1", "multi1", "multi2"])
def test_two_factor_assembly_matches_the_three_factor_form(case):
    # T + T^T with T = L S^T against K_zz - P - P^T + Q from the factors
    # L = K_yY u, R_p = K_zZ u D and R_q = L D c D, at the M = 1000 winner
    ds = make_dataset(case, 2000, 2, 0, m_holdout=1000)
    std = ds.standardizer
    model, _ = select_hyperparams(std.transform("y", ds.holdout.y),
                                  std.transform("z", ds.holdout.z))
    batch = train_data_from_dataset(ds).train.take(np.arange(256))
    cg = centered_gram(batch.y, batch.z, model, model.y_params, model.z_params)
    d = 1.0 / (model.s + model.lam)
    left = gram(batch.y, model.holdout_y, model.y_params) @ model.u
    P = left @ (gram(batch.z, model.holdout_z, model.z_params) @ (model.u * d)).T
    Q = left @ (left @ (d[:, None] * model.c * d)).T
    expected = (gram(batch.y, batch.y, model.y_params)
                * (gram(batch.z, batch.z, model.z_params) - P - P.T + Q))
    rel = np.max(np.abs(cg - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-12


def test_compressed_spectrum_matches_the_dense_path():
    # every uni1 bandwidth at M = 1000 has rank < M/2: the Cholesky-factor
    # spectrum keeps the rank of a dense eigh of the formed K_YY to within
    # one eigenpair, and at the grid winner its centered Gram meets the
    # dense eigh's 1e-7 bound
    ds = make_dataset("uni1", 2000, 2, 0, m_holdout=1000)
    std = ds.standardizer
    y = std.transform("y", ds.holdout.y)
    z = std.transform("z", ds.holdout.z)
    k_zz = gram(z, z, ZP)
    for sigma2_y in (0.001, 0.01, 0.1, 1.0):
        yp = KernelParams(sigma2=sigma2_y)
        s, u, c, _, width = _spectrum(y, yp, _holdout_factor(z, ZP))
        s_d, u_d = np.linalg.eigh(gram(y, y, yp))
        cut = int(np.searchsorted(s_d, RANK_CUT * s_d[-1], side="right"))
        s_d, u_d = s_d[cut:], u_d[:, cut:]
        c_d = u_d.T @ k_zz @ u_d
        c_d = 0.5 * (c_d + c_d.T)
        assert 0 < width < 500
        assert abs(s.shape[0] - s_d.shape[0]) <= 1
    batch = train_data_from_dataset(ds).train.take(np.arange(256))
    for model in (CmeModel(y, z, 0.01, yp, ZP, u, s, c),
                  CmeModel(y, z, 0.01, yp, ZP, u_d, s_d, c_d)):
        cg = centered_gram(batch.y, batch.z, model, yp, ZP)
        P, Q = _dense_cross_terms(model, batch.y, batch.z)
        expected = gram(batch.y, batch.y, yp) * (gram(batch.z, batch.z, ZP) - P - P.T + Q)
        assert np.max(np.abs(cg - expected)) / np.max(np.abs(expected)) <= 1e-7


def test_cross_factors_do_not_depend_on_the_block_size(monkeypatch):
    # the block size only bounds the Gram buffers: each factor row depends
    # on its own point alone, so every block size gives the same bits here,
    # also through the cross-product buffer of multi1's two-column z. That
    # holds at one OpenBLAS thread and at two, but not at every rank: a
    # product of at most about 1e6 multiply-adds (rows x M x r) takes
    # OpenBLAS's small-matrix dgemm, which rounds rows differently at some
    # ranks, so uni1 seed 1 (r = 18 at M = 200) moves in its last bits
    # between 128-row and 512-row blocks
    for case in ("uni1", "multi1"):
        ds = make_dataset(case, 4000, 2, 0, m_holdout=200)
        std = ds.standardizer
        model, _ = select_hyperparams(std.transform("y", ds.holdout.y),
                                      std.transform("z", ds.holdout.z))
        train = train_data_from_dataset(ds).train
        assert train.n > 1024
        factors = {}
        for rows in (128, 512, 1024, train.n):
            monkeypatch.setattr(estimator_mod, "FACTOR_BLOCK_ROWS", rows)
            factors[rows] = cross_factors(train.y, train.z, model)
        for rows in (128, 1024, train.n):
            for got, want in zip(factors[rows], factors[512]):
                assert np.array_equal(got, want)


def test_statistic_variants_match_brute_force_sums():
    rng = np.random.default_rng(1)
    model = _model(rng, m=30)
    x, y, z = _batch(rng, b=10)
    cg = centered_gram(y, z, model, YP, ZP)
    k_xx = gram(x, x, XP)
    b = 10
    scale = 1.0 / (b * (b - 1))

    plain = sum(k_xx[i, j] * cg[i, j] for i in range(b) for j in range(b))
    assert circe_statistic(k_xx, cg, "plain").value == pytest.approx(plain * scale, rel=1e-12)

    deb = sum(k_xx[i, j] * cg[i, j]
              for i in range(b) for j in range(b) if i != j)
    assert circe_statistic(k_xx, cg, "debiased").value == pytest.approx(deb * scale, rel=1e-12)

    H = np.eye(b) - np.ones((b, b)) / b
    cent = np.trace(H @ k_xx @ H @ cg)
    assert circe_statistic(k_xx, cg, "centered").value == pytest.approx(cent * scale, rel=1e-12)


def test_plain_statistic_nonnegative_on_psd_inputs():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        model = _model(rng, m=40)
        x, y, z = _batch(rng, b=16, dependent=bool(seed % 2))
        cg = centered_gram(y, z, model, YP, ZP)
        k_xx = gram(x, x, XP)
        est = circe_statistic(k_xx, cg, "plain")
        assert est.value >= -1e-12


def test_statistic_invariant_under_batch_permutation():
    rng = np.random.default_rng(2)
    model = _model(rng)
    x, y, z = _batch(rng, b=20)
    k_xx = gram(x, x, XP)
    cg = centered_gram(y, z, model, YP, ZP)
    perm = rng.permutation(20)
    cg_p = centered_gram(y[perm], z[perm], model, YP, ZP)
    k_xx_p = gram(x[perm], x[perm], XP)
    for variant in ("plain", "debiased", "centered"):
        v0 = circe_statistic(k_xx, cg, variant).value
        v1 = circe_statistic(k_xx_p, cg_p, variant).value
        assert v1 == pytest.approx(v0, rel=1e-9, abs=1e-14)


def test_interpolating_fit_on_deterministic_z_vanishes():
    # Z = Y on well separated points; a near-zero ridge interpolates, so the
    # centered Gram and every statistic variant collapse
    y = np.linspace(-2.0, 2.0, 9)[:, None]
    z = y.copy()
    model = fit_cme(y, z, 1e-9, YP, ZP)
    batch = y[1:8]
    cg = centered_gram(batch, batch, model, YP, ZP)
    assert np.max(np.abs(cg)) <= 1e-6
    x = np.cos(batch)
    k_xx = gram(x, x, XP)
    for variant in ("plain", "debiased", "centered"):
        assert abs(circe_statistic(k_xx, cg, variant).value) <= 1e-6


def test_oracle_zero_when_z_is_function_of_y():
    # Z = Y exactly, so mu(y) = psi(y) and the oracle centering is exact
    rng = np.random.default_rng(3)
    y = rng.standard_normal((30, 1))
    z = y.copy()
    x = rng.standard_normal((30, 1))

    def analytic_mu(batch_y):
        return batch_y, np.eye(batch_y.shape[0])

    for variant in ("plain", "debiased", "centered"):
        est = circe_oracle(x, y, z, analytic_mu, XP, YP, ZP, variant)
        assert abs(est.value) <= 1e-12


def test_oracle_constant_embedding_for_independent_z():
    # Z independent of Y: mu(y) is the fixed marginal embedding, approximated
    # by a large anchor sample; dependent X scores well above independent X
    rng = np.random.default_rng(4)
    b = 256
    y = rng.standard_normal((b, 1))
    z = rng.standard_normal((b, 1))
    anchors = rng.standard_normal((4000, 1))
    w = np.full((b, 4000), 1.0 / 4000)

    def analytic_mu(batch_y):
        return anchors, w

    x_dep = z + 0.05 * rng.standard_normal((b, 1))
    x_ind = rng.standard_normal((b, 1))
    v_dep = circe_oracle(x_dep, y, z, analytic_mu, XP, YP, ZP, "plain").value
    v_ind = circe_oracle(x_ind, y, z, analytic_mu, XP, YP, ZP, "plain").value
    assert v_dep > 10 * abs(v_ind)


def test_gradient_coeff_consistent_with_statistic():
    rng = np.random.default_rng(5)
    model = _model(rng, m=30)
    x, y, z = _batch(rng, b=12)
    cg = centered_gram(y, z, model, YP, ZP)
    k_xx = gram(x, x, XP)
    for variant in ("plain", "debiased", "centered"):
        G = statistic_gradient_coeff(cg, variant)
        # statistic is linear in k_xx, so sum(G * k_xx) reproduces it
        direct = circe_statistic(k_xx, cg, variant).value
        assert float(np.sum(G * k_xx)) == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_kernel_param_mismatch_rejected():
    rng = np.random.default_rng(6)
    model = _model(rng, m=20)
    x, y, z = _batch(rng, b=8)
    with pytest.raises(ConfigError):
        centered_gram(y, z, model, KernelParams(sigma2=0.51), ZP)
    with pytest.raises(ConfigError):
        centered_gram(y, z, model, YP, KernelParams(sigma2=2.0))
    with pytest.raises(ConfigError, match="batch_y has 8 rows, batch_z 7"):
        centered_gram(y, z[:7], model, YP, ZP)


def test_bad_variant_and_shapes_rejected():
    cg = np.eye(4)
    with pytest.raises(ConfigError):
        circe_statistic(np.eye(4), cg, "fancy")
    with pytest.raises(ConfigError):
        statistic_gradient_coeff(cg, "fancy")
    with pytest.raises(ConfigError):
        circe_statistic(np.eye(5), cg, "plain")
    with pytest.raises(ConfigError):
        circe_statistic(np.eye(1), np.eye(1), "plain")
    with pytest.raises(ConfigError):
        statistic_gradient_coeff(np.eye(1), "plain")
    with pytest.raises(ConfigError):
        circe_statistic(np.ones((3, 4)), np.ones((3, 4)), "centered")
    x, y, z = _batch(np.random.default_rng(6), b=8)

    def analytic_mu(batch_y):
        return np.zeros((3, 1)), np.ones((batch_y.shape[0], 3))

    with pytest.raises(ConfigError, match="leading dimension"):
        circe_oracle(x[:7], y, z, analytic_mu, XP, YP, ZP, "plain")
    with pytest.raises(ConfigError, match="weights shape"):
        circe_oracle(x, y, z, lambda batch_y: (np.zeros((2, 1)), np.ones((8, 3))),
                     XP, YP, ZP, "plain")
    assert np.isfinite(circe_oracle(x, y, z, analytic_mu, XP, YP, ZP, "plain").value)


def test_centered_from_factors_bitwise_equals_reference():
    rng = np.random.default_rng(21)
    b, r = 256, 48
    y, z = rng.standard_normal((b, 1)), rng.standard_normal((b, 2))
    left, right = (rng.standard_normal((b, r)) for _ in range(2))
    cg = centered_from_factors(y, z, YP, ZP, left, right)
    T = left @ right.T
    expected = gram(y, y, YP) * (gram(z, z, ZP) + T + T.T)
    assert np.array_equal(cg, expected)
    # the centered variant's gradient coefficient, as first written
    row = expected.mean(axis=0)
    projected = expected - row[None, :] - row[:, None] + row.mean()
    assert np.array_equal(statistic_gradient_coeff(cg, "centered"),
                          projected * (1.0 / (b * (b - 1))))


def _trace_forms(k_xx, m):
    """The statistic's three trace forms over B(B-1), as first written."""
    b = m.shape[0]
    scale = 1.0 / (b * (b - 1))
    kx, mt = k_xx.copy(), m.copy()
    np.fill_diagonal(kx, 0.0)
    np.fill_diagonal(mt, 0.0)
    row = k_xx.mean(axis=0)
    projected = k_xx - row[None, :] - row[:, None] + row.mean()
    return {"plain": np.sum(k_xx * m.T) * scale,
            "debiased": np.sum(kx * mt.T) * scale,
            "centered": np.sum(projected * m.T) * scale}


@pytest.mark.parametrize("b", [12, 256])
def test_statistic_is_inner_product_with_gradient_coeff(b):
    rng = np.random.default_rng(22)
    model = _model(rng, m=80)
    x, y, z = _batch(rng, b=b)
    cg = centered_gram(y, z, model, YP, ZP)
    k_xx = gram(x, x, XP)
    forms = _trace_forms(k_xx, cg)
    for variant in ("plain", "debiased", "centered"):
        est = circe_statistic(k_xx, cg, variant)
        coeff = statistic_gradient_coeff(cg, variant)
        assert np.array_equal(est.coeff, coeff)
        assert est.value == float(np.vdot(k_xx, coeff))
        assert est.value == pytest.approx(forms[variant], rel=1e-12)
