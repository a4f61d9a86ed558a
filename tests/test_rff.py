import dataclasses

import numpy as np
import pytest

from circe.cme import fit_cme
from circe.estimator import centered_gram, circe_statistic
from circe.exceptions import ConfigError
from circe.kernels import KernelParams, gram
from circe.rff import precompute_rff_weights, rff_centered_gram, sample_rff

YP = KernelParams(sigma2=0.5)
ZP = KernelParams(sigma2=1.0)
XP = KernelParams(sigma2=1.0)


def _fitted(rng, m=80):
    y = rng.standard_normal((m, 1))
    z = y**2 + 0.5 * rng.standard_normal((m, 1))
    return fit_cme(y, z, 0.01, YP, ZP)


def _rff_value(k_xx, y, z, w, ym, zm, d_active, variant, batch_index=0):
    centered = rff_centered_gram(y, z, w, ym, zm, d_active, batch_index)
    return circe_statistic(k_xx, centered, variant).value


def _batch(rng, b=48):
    y = rng.standard_normal((b, 1))
    z = y**2 + 0.5 * rng.standard_normal((b, 1))
    x = z + 0.1 * rng.standard_normal((b, 1))
    return x, y, z


def test_feature_map_approximates_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    p = KernelParams(sigma2=0.8)
    K = gram(x, x, p)
    maes = []
    for d in (256, 1024, 4096):
        med = np.median([
            np.abs(sample_rff(2, d, 0.8, seed).features(x) @
                   sample_rff(2, d, 0.8, seed).features(x).T - K).mean()
            for seed in range(10)
        ])
        maes.append(med)
    assert maes[0] > maes[1] > maes[2]


def test_feature_map_deterministic_and_scaled():
    m1 = sample_rff(3, 64, 1.0, seed=7)
    m2 = sample_rff(3, 64, 1.0, seed=7)
    assert np.array_equal(m1.frequencies, m2.frequencies)
    assert np.array_equal(m1.phases, m2.phases)
    x = np.random.default_rng(1).standard_normal((5, 3))
    f = m1.features(x)
    assert f.shape == (5, 64)
    assert np.max(np.abs(f)) <= np.sqrt(2.0 / 64) + 1e-12


def test_weights_match_direct_products():
    rng = np.random.default_rng(2)
    model = _fitted(rng, m=30)
    ym = sample_rff(1, 40, YP.sigma2, seed=11)
    zm = sample_rff(1, 40, ZP.sigma2, seed=12)
    w = precompute_rff_weights(model, ym, zm)
    ry = ym.features(model.holdout_y)
    rz = zm.features(model.holdout_z)
    k_yy = gram(model.holdout_y, model.holdout_y, YP)
    k_zz = gram(model.holdout_z, model.holdout_z, ZP)
    w1 = np.linalg.solve(k_yy + model.lam * np.eye(30), np.eye(30))
    assert np.allclose(w.w1r, ry.T @ w1 @ rz, atol=1e-12)
    assert np.allclose(w.w2r, ry.T @ (w1 @ k_zz @ w1) @ ry, atol=1e-12)


def test_weight_bandwidth_mismatch_rejected():
    rng = np.random.default_rng(3)
    model = _fitted(rng, m=20)
    good_y = sample_rff(1, 16, YP.sigma2, seed=0)
    good_z = sample_rff(1, 16, ZP.sigma2, seed=1)
    bad = sample_rff(1, 16, 9.0, seed=2)
    with pytest.raises(ConfigError):
        precompute_rff_weights(model, bad, good_z)
    with pytest.raises(ConfigError):
        precompute_rff_weights(model, good_y, bad)


def test_full_bank_statistic_approaches_exact():
    # with the whole bank active the only error is the kernel approximation,
    # which shrinks with d_total
    rng = np.random.default_rng(4)
    model = _fitted(rng)
    x, y, z = _batch(rng)
    k_xx = gram(x, x, XP)
    exact = circe_statistic(k_xx, centered_gram(y, z, model, YP, ZP), "plain").value

    errs = []
    for d_total in (128, 512, 2048):
        vals = []
        for seed in range(8):
            ym = sample_rff(1, d_total, YP.sigma2, seed=100 + seed)
            zm = sample_rff(1, d_total, ZP.sigma2, seed=200 + seed)
            w = precompute_rff_weights(model, ym, zm)
            vals.append(_rff_value(k_xx, y, z, w, ym, zm, d_total, "plain"))
        errs.append(np.median(np.abs(np.array(vals) - exact)))
    assert errs[0] > errs[2]
    assert errs[2] <= 0.35 * abs(exact) + 1e-3


def test_subset_rescaling_keeps_values_comparable():
    # a half bank drawn from a double-size bank matches the exact value about
    # as well as a dedicated half-size bank does
    rng = np.random.default_rng(5)
    model = _fitted(rng)
    x, y, z = _batch(rng)
    k_xx = gram(x, x, XP)
    exact = circe_statistic(k_xx, centered_gram(y, z, model, YP, ZP), "plain").value

    sub_errs, dedicated_errs = [], []
    for seed in range(10):
        ym = sample_rff(1, 1024, YP.sigma2, seed=300 + seed)
        zm = sample_rff(1, 1024, ZP.sigma2, seed=400 + seed)
        w = precompute_rff_weights(model, ym, zm, refresh_period=1)
        v = _rff_value(k_xx, y, z, w, ym, zm, 512, "plain", batch_index=seed)
        sub_errs.append(abs(v - exact))
        ym2 = sample_rff(1, 512, YP.sigma2, seed=500 + seed)
        zm2 = sample_rff(1, 512, ZP.sigma2, seed=600 + seed)
        w2 = precompute_rff_weights(model, ym2, zm2)
        v2 = _rff_value(k_xx, y, z, w2, ym2, zm2, 512, "plain")
        dedicated_errs.append(abs(v2 - exact))
    # same order of accuracy; a mis-scaled subset would be off by about 2x
    assert np.median(sub_errs) <= 3.0 * np.median(dedicated_errs) + 1e-4
    assert np.median(sub_errs) >= np.median(dedicated_errs) / 3.0 - 1e-4


def test_rff_statistic_deterministic_given_seed_and_index():
    rng = np.random.default_rng(6)
    model = _fitted(rng, m=40)
    x, y, z = _batch(rng, b=16)
    k_xx = gram(x, x, XP)
    ym = sample_rff(1, 64, YP.sigma2, seed=21)
    zm = sample_rff(1, 64, ZP.sigma2, seed=22)
    w = precompute_rff_weights(model, ym, zm, refresh_period=2)
    a = _rff_value(k_xx, y, z, w, ym, zm, 32, "centered", batch_index=5)
    b = _rff_value(k_xx, y, z, w, ym, zm, 32, "centered", batch_index=5)
    assert a == b
    # same refresh slot shares the subset, a later slot redraws it
    same_slot = _rff_value(k_xx, y, z, w, ym, zm, 32, "centered", batch_index=4)
    other_slot = _rff_value(k_xx, y, z, w, ym, zm, 32, "centered", batch_index=7)
    assert a == same_slot
    assert a != other_slot


@pytest.mark.parametrize("refresh_period", [None, 1, 3])
@pytest.mark.parametrize("d_active", [32, 64])
def test_slot_cache_bitwise_equals_fresh_weights(refresh_period, d_active):
    # batch indices that leave a refresh slot and come back to it
    rng = np.random.default_rng(8)
    model = _fitted(rng, m=40)
    ym = sample_rff(1, 64, YP.sigma2, seed=41)
    zm = sample_rff(1, 64, ZP.sigma2, seed=42)
    w = precompute_rff_weights(model, ym, zm, refresh_period=refresh_period)
    for k in (5, 7, 4, 5, 3):
        _, y, z = _batch(rng, b=16)
        fresh = precompute_rff_weights(model, ym, zm, refresh_period=refresh_period)
        assert np.array_equal(rff_centered_gram(y, z, w, ym, zm, d_active, k),
                              rff_centered_gram(y, z, fresh, ym, zm, d_active, k))
        assert len(w._slot) == 1
    if d_active == 64:
        # the full bank is used as stored, not copied
        (_, _, w1_sub, w2_sub), = w._slot.values()
        assert w1_sub is w.w1r and w2_sub is w.w2r


def test_slot_cache_keeps_map_pairs_and_sizes_apart():
    rng = np.random.default_rng(9)
    model = _fitted(rng, m=40)
    y_a, z_a = sample_rff(1, 64, YP.sigma2, seed=51), sample_rff(1, 64, ZP.sigma2, seed=52)
    y_b, z_b = sample_rff(1, 64, YP.sigma2, seed=53), sample_rff(1, 64, ZP.sigma2, seed=54)
    w = precompute_rff_weights(model, y_a, z_a, refresh_period=2)
    _, y, z = _batch(rng, b=16)
    # each neighbour differs from the one before in one part of the key only:
    # d_active, z seed, y seed, d_active, y and z seeds; and the slot between k=1 and k=2
    calls = [(y_a, z_a, 16), (y_a, z_a, 32), (y_a, z_b, 32), (y_b, z_b, 32), (y_b, z_b, 16),
             (y_a, z_a, 16)]
    for k in (0, 1, 2):
        for ym, zm, d_active in calls:
            fresh = dataclasses.replace(w)
            assert not fresh._slot
            assert np.array_equal(rff_centered_gram(y, z, w, ym, zm, d_active, k),
                                  rff_centered_gram(y, z, fresh, ym, zm, d_active, k))
            assert list(w._slot) == [(ym.seed, zm.seed, d_active, k // 2)]


def test_rff_argument_validation():
    rng = np.random.default_rng(7)
    model = _fitted(rng, m=20)
    _, y, z = _batch(rng, b=8)
    ym = sample_rff(1, 16, YP.sigma2, seed=31)
    zm = sample_rff(1, 16, ZP.sigma2, seed=32)
    w = precompute_rff_weights(model, ym, zm)
    with pytest.raises(ConfigError):
        rff_centered_gram(y, z, w, ym, zm, 17)
    with pytest.raises(ConfigError):
        rff_centered_gram(y, z, w, ym, zm, 0)
    other = sample_rff(1, 8, YP.sigma2, seed=33)
    with pytest.raises(ConfigError):
        rff_centered_gram(y, z, w, other, zm, 8)
    with pytest.raises(ConfigError):
        sample_rff(0, 16, 1.0, seed=0)
    with pytest.raises(ConfigError):
        sample_rff(1, 16, -1.0, seed=0)
