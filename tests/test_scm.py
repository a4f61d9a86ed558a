import csv
import dataclasses

import numpy as np
import pytest

from circe.exceptions import ConfigError
from circe.scm import (
    SCM_CASES,
    export_csv,
    gen_scm,
    make_dataset,
    regenerate,
    slice_batch,
)
from oracles import gen_nonlinear_gcm_case, gen_toy, intervene_z

CASE_DIMS = {"uni1": 1, "uni2": 1, "multi1": 3, "multi2": 3}


@pytest.mark.parametrize("case", SCM_CASES)
def test_identity_intervention_reproduces_draws(case):
    # sampling and regenerate read one table of equations, so do(Z = z)
    # reproduces the draws bitwise, on the batch and on a holdout-style slice
    batch = gen_scm(case, 200, CASE_DIMS[case], seed=7)
    for part in (batch, slice_batch(batch, np.arange(50, 200))):
        a, b = regenerate(part, part.z)
        assert np.array_equal(a, part.a)
        assert np.array_equal(b, part.b)
    # one-row arrays may take another SIMD path, so single points get 1e-12
    for i in (0, 57, 199):
        point = intervene_z(batch, i, batch.z[i])
        assert np.max(np.abs(point["a"] - batch.a[i])) <= 1e-12
        assert abs(point["b"][0] - batch.b[i, 0]) <= 1e-12


@pytest.mark.parametrize("case", SCM_CASES)
def test_intervention_changes_descendants_only(case):
    batch = gen_scm(case, 50, CASE_DIMS[case], seed=3)
    z_new = batch.z + 1.0
    a, b = regenerate(batch, z_new)
    assert np.any(np.abs(a - batch.a) > 1e-6)
    assert np.any(np.abs(b - batch.b) > 1e-6)
    point = intervene_z(batch, 4, batch.z[4] + 2.0)
    assert np.allclose(point["y"], batch.y[4])


def test_uni1_moments_match_closed_forms():
    batch = gen_scm("uni1", 400_000, 1, seed=11)
    # Z = Y^2 + eps: mean 1, variance Var(Y^2) + 1 = 3
    assert batch.z.mean() == pytest.approx(1.0, abs=0.02)
    assert batch.z.var() == pytest.approx(3.0, abs=0.06)
    # A = 0.5 Z eps_a + 2 Y: mean 0, variance 0.025 E[Z^2] + 4
    assert batch.a.mean() == pytest.approx(0.0, abs=0.02)
    assert batch.a.var() == pytest.approx(0.025 * 4.0 + 4.0, rel=0.02)
    # eps_a and eps_b carry variance 0.1
    assert batch.noises["eps_a"].var() == pytest.approx(0.1, rel=0.02)
    assert batch.noises["eps_b"].var() == pytest.approx(0.1, rel=0.02)


def test_multi_case_shapes_and_moments():
    d = 4
    b1 = gen_scm("multi1", 200_000, d, seed=5)
    assert b1.z.shape == (200_000, d)
    assert b1.y.shape == (200_000, 1)
    assert b1.z.mean() == pytest.approx(1.0, abs=0.02)

    b2 = gen_scm("multi2", 200_000, d, seed=5)
    assert b2.y.shape == (200_000, d)
    assert b2.z.shape == (200_000, 1)
    # Z = ||Y||^2 + eps: mean d, variance 2d + 1
    assert b2.z.mean() == pytest.approx(d, rel=0.01)
    assert b2.z.var() == pytest.approx(2.0 * d + 1.0, rel=0.03)


def test_generation_is_deterministic_per_seed():
    x1 = gen_scm("uni2", 64, 1, seed=9)
    x2 = gen_scm("uni2", 64, 1, seed=9)
    x3 = gen_scm("uni2", 64, 1, seed=10)
    assert np.array_equal(x1.a, x2.a) and np.array_equal(x1.b, x2.b)
    assert not np.array_equal(x1.b, x3.b)


def test_nonlinear_gcm_case_structure():
    alpha, sigma_z = 1.0, 1.0
    batch = gen_nonlinear_gcm_case(200_000, alpha=alpha, sigma_z=sigma_z,
                                   sigma_y=1.0, seed=2)
    n = batch.n
    assert batch.a.shape == (n, 2)
    # first covariate = Y + alpha z^2 with z = distractor
    resid = batch.a[:, 0:1] - batch.y
    assert np.max(np.abs(resid - alpha * batch.z**2)) <= 1e-12
    # Cov(z, Y + alpha z^2) = alpha E[z^3] = 0 by symmetry
    prod = batch.a[:, 0:1] * batch.z
    se = prod.std() / np.sqrt(n)
    assert abs(prod.mean()) <= 3.0 * se
    # Cov(z^2, Y + alpha z^2) = alpha Var(z^2) = 2 alpha sigma_z^4
    z2 = batch.z**2
    cov = np.mean((z2 - z2.mean()) * batch.a[:, 0:1])
    assert cov == pytest.approx(2.0 * alpha * sigma_z**4, rel=0.05)


def test_toy_ols_recovers_variance_ratio():
    s1, s2, sz = 0.5, 1.5, 2.0
    toy = gen_toy(400_000, s1, s2, sz, shifted=False, seed=21)
    coef, *_ = np.linalg.lstsq(toy.x, toy.y, rcond=None)
    # regressing y on (y + xi2, z): population weights
    # w1 = s1 / (s1 + s2), w2 = (1 - w1) i.e. the z shortcut is active
    w1_star = s1 / (s1 + s2)
    assert coef[0, 0] == pytest.approx(w1_star, abs=0.01)
    assert coef[1, 0] == pytest.approx(1.0 - w1_star, abs=0.01)


def test_toy_residual_regression_slope_and_encoder_covariance():
    s1, s2, sz = 0.7, 1.3, 2.5
    toy = gen_toy(200_000, s1, s2, sz, shifted=False, seed=5)
    # OLS of z on y: slope s_z / (s_z + s1), intercept 0
    design = np.hstack([toy.y, np.ones_like(toy.y)])
    coef, *_ = np.linalg.lstsq(design, toy.z, rcond=None)
    b0_star = sz / (sz + s1)
    assert coef[0, 0] == pytest.approx(b0_star, abs=0.01)
    assert coef[1, 0] == pytest.approx(0.0, abs=0.02)
    # for a linear encoder w1 x1 + w2 x2, the covariance with the
    # z-residual is w2 s1 sz / (s1 + sz) regardless of w1
    w1, w2 = 0.8, -0.6
    enc = w1 * toy.x[:, 0:1] + w2 * toy.x[:, 1:2]
    res = toy.z - coef[0, 0] * toy.y - coef[1, 0]
    prod = enc * res
    se = prod.std() / np.sqrt(toy.n)
    expected = w2 * s1 * sz / (s1 + sz)
    assert abs(prod.mean() - expected) <= 3.0 * se + 0.01


def test_toy_shifted_marginals_match_but_break_shortcut():
    kwargs = dict(n=300_000, sigma1_sq=1.0, sigma2_sq=1.0, sigma_z_sq=1.0)
    plain = gen_toy(**kwargs, shifted=False, seed=33)
    shift = gen_toy(**kwargs, shifted=True, seed=33)
    assert shift.y.var() == pytest.approx(plain.y.var(), rel=0.02)
    assert shift.z.var() == pytest.approx(plain.z.var(), rel=0.02)
    cov_plain = np.mean(plain.y * plain.z)
    cov_shift = np.mean(shift.y * shift.z)
    assert cov_plain == pytest.approx(1.0, abs=0.02)
    assert abs(cov_shift) <= 0.02


def test_standardizer_zero_mean_unit_std_on_train_only():
    ds = make_dataset("uni1", 5000, 1, seed=13, m_holdout=500)
    std_inputs = ds.standardizer.batch_inputs(ds.train)
    assert np.allclose(std_inputs.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(std_inputs.std(axis=0), 1.0, atol=1e-10)
    # eval transformed with train stats is close to but not exactly unit
    ev = ds.standardizer.batch_inputs(ds.eval)
    assert not np.allclose(ev.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ev.mean(axis=0), 0.0, atol=0.2)


def test_dataset_split_sizes_and_holdout():
    ds = make_dataset("multi1", 10_000, 3, seed=1, m_holdout=1000)
    assert ds.train.n == 8000
    assert ds.eval.n == 2000
    assert ds.holdout.n == 1000
    assert ds.fit_pool().n == 7000
    assert np.array_equal(ds.holdout.y, ds.train.y[:1000])
    # slices keep noises aligned for later interventions
    a, b = regenerate(ds.holdout, ds.holdout.z)
    assert np.max(np.abs(b - ds.holdout.b)) <= 1e-12


def test_csv_roundtrip_exact(tmp_path):
    batch = gen_scm("multi2", 30, 2, seed=4)
    path = tmp_path / "batch.csv"
    export_csv(batch, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a0", "b", "y0", "y1", "z0"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(data[:, 0:1], batch.a)
    assert np.array_equal(data[:, 1:2], batch.b)
    assert np.array_equal(data[:, 2:4], batch.y)
    assert np.array_equal(data[:, 4:5], batch.z)


def test_invalid_arguments_raise_config_error():
    with pytest.raises(ConfigError):
        gen_scm("nope", 10, 1, seed=0)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        gen_scm("uni1", 10, 1, seed=-1)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        make_dataset("uni1", 100, 1, seed=-1, m_holdout=10)
    with pytest.raises(ConfigError):
        gen_scm("uni1", 0, 1, seed=0)
    with pytest.raises(ConfigError):
        gen_scm("multi1", 10, 1, seed=0)
    with pytest.raises(ConfigError):
        gen_toy(10, -1.0, 1.0, 1.0, False, seed=0)
    with pytest.raises(ConfigError, match="n must be positive"):
        gen_toy(0, 1.0, 1.0, 1.0, False, seed=0)
    with pytest.raises(ConfigError, match="n must be positive"):
        gen_nonlinear_gcm_case(0, 1.0, 1.0, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_dataset("uni1", 100, 1, seed=0, m_holdout=90)
    batch = gen_scm("uni1", 10, 1, seed=0)
    with pytest.raises(ConfigError):
        intervene_z(batch, 10, [0.0])
    with pytest.raises(ConfigError):
        regenerate(batch, np.zeros((5, 1)))
    with pytest.raises(ConfigError, match="cannot regenerate case 'nope'"):
        regenerate(dataclasses.replace(batch, case_id="nope"), batch.z)
    with pytest.raises(ConfigError, match="columns"):
        intervene_z(batch, 0, [0.0, 1.0])


def test_slice_batch_preserves_noise_alignment():
    batch = gen_scm("uni2", 100, 1, seed=8)
    idx = np.array([3, 14, 15, 92])
    sub = slice_batch(batch, idx)
    assert sub.n == 4
    a, b = regenerate(sub, sub.z)
    assert np.max(np.abs(a - sub.a)) <= 1e-12
    assert np.max(np.abs(b - sub.b)) <= 1e-12
