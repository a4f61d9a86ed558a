import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import circe.baselines as baselines_mod
from circe.baselines import FACTOR_STOP, GCM_MIN_BATCH
import circe.trainer as trainer_mod
from circe.cme import fit_cme
from circe.estimator import FACTOR_BLOCK_ROWS, centered_gram, cross_factors
from circe.exceptions import ConfigError, NumericalError
from circe.kernels import (KernelParams, gram, gram_backprop, pivoted_cholesky,
                           regularized_solve, ridge_factor)
from circe.nn import MlpModel
from circe.scm import make_dataset
from circe.trainer import (
    TrainBatch,
    TrainConfig,
    TrainLog,
    _CirceContext,
    loss_and_grad,
    train,
    train_data_from_dataset,
)
from oracles import gen_toy, toy_batch, train_data_from_toy


def small_problem(seed=0, n=16, d_in=3):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, d_in))
    y = rng.standard_normal((n, 1))
    z = y**2 + rng.standard_normal((n, 1))
    targets = rng.standard_normal((n, 1))
    batch = TrainBatch(inputs, targets, y, z)
    hy = rng.standard_normal((20, 1))
    hz = hy**2 + rng.standard_normal((20, 1))
    cme = fit_cme(hy, hz, 0.1, KernelParams(1.0), KernelParams(1.0))
    return batch, cme


def run_step(model, batch, cme, config):
    """loss_and_grad with a circe batch's centered Gram built directly."""
    centered = None
    if config.method == "circe":
        centered = centered_gram(batch.y, batch.z, cme, cme.y_params, cme.z_params)
    return loss_and_grad(model, batch, config, centered)


def loss_only(model, batch, cme, config):
    value, _, _ = run_step(model, batch, cme, config)
    return value


@pytest.mark.parametrize("method,regularize", [
    ("none", "prediction"),
    ("circe", "prediction"),
    ("circe", "features"),
    ("hscic", "prediction"),
    ("gcm", "prediction"),
])
def test_gradients_match_finite_differences(method, regularize):
    batch, cme = small_problem()
    config = TrainConfig(method=method, gamma=0.7, batch_size=16, epochs=1,
                         lr=1e-3, weight_decay=0.0, variant="centered",
                         hidden_widths=(3, 4), regularize=regularize,
                         lam=0.05, seed=1)
    model = MlpModel(3, config.hidden_widths, seed=2)
    _, grads, _ = run_step(model, batch, cme, config)
    step = 1e-6
    worst = 0.0
    for p, g in zip(model.params, grads):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss_only(model, batch, cme, config)
            flat[j] = orig - step
            lo = loss_only(model, batch, cme, config)
            flat[j] = orig
            fd = (hi - lo) / (2 * step)
            worst = max(worst, abs(gflat[j] - fd) / max(1e-6, abs(fd)))
    assert worst <= 1e-5


def test_gamma_zero_reduces_to_mse_oracle():
    batch, cme = small_problem(seed=3)
    model = MlpModel(3, (4,), seed=5)
    base = TrainConfig(method="none", batch_size=16, epochs=1, lr=1e-3,
                       weight_decay=0.0)
    loss0, grads0, diag0 = loss_and_grad(model, batch, base)
    for method in ("circe", "hscic", "gcm"):
        cfg = base.replace(method=method, gamma=0.0)
        loss, grads, diag = run_step(model, batch, cme, cfg)
        assert loss == loss0
        for a, b in zip(grads, grads0):
            assert np.max(np.abs(a - b)) <= 1e-12
    _, pred, _ = model.forward(batch.inputs)
    assert loss0 == pytest.approx(float(np.mean((pred - batch.targets) ** 2)))


def test_circe_step_needs_the_centered_gram():
    batch, _ = small_problem(seed=3)
    model = MlpModel(3, (4,), seed=5)
    config = TrainConfig(method="circe", gamma=1.0, batch_size=16, epochs=1)
    with pytest.raises(ConfigError, match="centered Gram"):
        loss_and_grad(model, batch, config)


def _context_problem(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 1))
    z = y**2 + rng.standard_normal((n, 1))
    batch = TrainBatch(rng.standard_normal((n, 2)), rng.standard_normal((n, 1)),
                       y, z)
    hy = rng.standard_normal((40, 1))
    hz = hy**2 + rng.standard_normal((40, 1))
    cme = fit_cme(hy, hz, 0.05, KernelParams(1.0), KernelParams(0.7))
    return rng, batch, cme


def _assert_context_matches_direct(batch, cme, idx):
    ctx = _CirceContext(batch.y, batch.z, cme)
    mini = batch.take(idx)
    fast = ctx.batch_centered(mini, idx)
    direct = centered_gram(mini.y, mini.z, cme, cme.y_params, cme.z_params)
    assert np.array_equal(fast, direct)


def test_precomputed_context_matches_direct_centered_gram():
    rng, batch, cme = _context_problem(120, 11)
    _assert_context_matches_direct(batch, cme, rng.permutation(batch.n)[:32])


def test_context_gathers_rows_from_partial_last_block():
    # one full block plus a 5-row block, every one of them gathered
    n = FACTOR_BLOCK_ROWS + 5
    rng, batch, cme = _context_problem(n, 12)
    tail = np.arange(FACTOR_BLOCK_ROWS, n)
    idx = np.concatenate([tail, rng.permutation(FACTOR_BLOCK_ROWS)[:27]])
    _assert_context_matches_direct(batch, cme, rng.permutation(idx))


def test_training_is_deterministic_bitwise():
    toy = gen_toy(1024, 1.0, 1.0, 1.0, shifted=False, seed=0)
    data = train_data_from_toy(toy)
    config = TrainConfig(method="none", batch_size=128, epochs=3, lr=1e-2,
                         weight_decay=0.0, hidden_widths=(8,), seed=7)
    m1, log1 = train(config, data)
    m2, log2 = train(config, data)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)
    assert log1.epochs[-1]["train_loss"] == log2.epochs[-1]["train_loss"]


def test_eval_split_is_predicted_once_after_the_last_epoch(monkeypatch):
    toy = gen_toy(1024, 1.0, 1.0, 1.0, shifted=False, seed=0)
    held_out = toy_batch(gen_toy(256, 1.0, 1.0, 1.0, shifted=False, seed=1))
    config = TrainConfig(method="none", batch_size=128, epochs=3, lr=1e-2,
                         weight_decay=0.0, hidden_widths=(8,), seed=7)
    calls = []
    split_mse = trainer_mod._split_mse
    monkeypatch.setattr(trainer_mod, "_split_mse",
                        lambda model, split: calls.append(split) or split_mse(model, split))
    model, log = train(config, trainer_mod.TrainData(toy_batch(toy), held_out))
    assert calls == [held_out]
    assert ["eval_mse" in entry for entry in log.epochs] == [False, False, True]
    mse = np.mean((model.predict(held_out.inputs) - held_out.targets) ** 2)
    assert log.epochs[-1]["eval_mse"] == float(mse)
    _, log = train(config, train_data_from_toy(toy))
    assert log.epochs[-1]["eval_mse"] is None


def test_gamma_zero_trajectory_ignores_cme_model():
    toy = gen_toy(512, 1.0, 1.0, 1.0, shifted=False, seed=1)
    data = train_data_from_toy(toy)
    rng = np.random.default_rng(2)
    hy = rng.standard_normal((30, 1))
    hz = rng.standard_normal((30, 1))
    cme = fit_cme(hy, hz, 0.1, KernelParams(1.0), KernelParams(1.0))
    config = TrainConfig(method="circe", gamma=0.0, batch_size=64, epochs=2,
                         lr=1e-2, weight_decay=0.0, hidden_widths=(4,), seed=3)
    m1, _ = train(config, data, cme_model=None)
    m2, _ = train(config, data, cme_model=cme)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)


def test_toy_linear_recovery_unregularized():
    s1, s2 = 0.8, 1.2
    toy = gen_toy(4096, s1, s2, 1.0, shifted=False, seed=5)
    data = train_data_from_toy(toy)
    config = TrainConfig(method="none", batch_size=256, epochs=150, lr=1e-2,
                         weight_decay=0.0, hidden_widths=(), seed=4)
    model, log = train(config, data)
    w = model.params[0][:, 0]
    w1_star = s1 / (s1 + s2)
    assert w[0] == pytest.approx(w1_star, rel=0.08)
    assert w[1] == pytest.approx(1.0 - w1_star, rel=0.08)
    # loss roughly at the population optimum s1*s2/(s1+s2)
    assert log.epochs[-1]["train_loss"] == pytest.approx(s1 * s2 / (s1 + s2),
                                                         rel=0.15)


def test_toy_circe_drives_shortcut_weight_down():
    toy = gen_toy(2048, 1.0, 1.0, 1.0, shifted=False, seed=6)
    data = train_data_from_toy(toy)
    hold = gen_toy(256, 1.0, 1.0, 1.0, shifted=False, seed=106)
    cme = fit_cme(hold.y, hold.z, 0.01, KernelParams(2.0), KernelParams(1.0))
    config = TrainConfig(method="circe", gamma=1e3, batch_size=128, epochs=60,
                         lr=1e-2, weight_decay=0.0, hidden_widths=(),
                         sigma2_x=2.0, seed=8)
    model, log = train(config, data, cme_model=cme)
    w = model.params[0][:, 0]
    assert abs(w[1]) <= 0.1
    assert log.final_statistic <= 1e-3


def test_training_loss_decreases_on_toy():
    decreases = []
    for seed in range(5):
        toy = gen_toy(1024, 1.0, 1.0, 1.0, shifted=False, seed=seed)
        data = train_data_from_toy(toy)
        config = TrainConfig(method="none", batch_size=128, epochs=20, lr=5e-3,
                             weight_decay=0.0, hidden_widths=(8,), seed=seed)
        _, log = train(config, data)
        losses = [e["train_loss"] for e in log.epochs]
        decreases.append(losses)
    med = np.median(np.array(decreases), axis=0)
    drops = np.sum(np.diff(med) < 0)
    assert drops >= 0.9 * (len(med) - 1)


def test_skip_and_unstable_flags(monkeypatch):
    toy = gen_toy(512, 1.0, 1.0, 1.0, shifted=False, seed=9)
    data = train_data_from_toy(toy)
    real = trainer_mod.loss_and_grad
    calls = {"k": 0, "raised": 0, "non_finite": 0}

    def flaky(model, batch, config, centered=None):
        # every fifth step fails in the solver, every other third step
        # returns a non-finite loss
        calls["k"] += 1
        if calls["k"] % 5 == 0:
            calls["raised"] += 1
            raise NumericalError("solver failed")
        loss, grads, statistic = real(model, batch, config, centered)
        if calls["k"] % 3 == 0:
            calls["non_finite"] += 1
            return float("nan"), grads, statistic
        return loss, grads, statistic

    monkeypatch.setattr(trainer_mod, "loss_and_grad", flaky)
    config = TrainConfig(method="none", batch_size=64, epochs=2, lr=1e-3,
                         weight_decay=0.0, hidden_widths=(4,), seed=0)
    model, log = train(config, data)
    assert calls["raised"] > 0 and calls["non_finite"] > 0
    assert log.skipped_steps == calls["raised"] + calls["non_finite"]
    assert log.total_steps == calls["k"]
    assert log.unstable
    assert all(np.all(np.isfinite(p)) for p in model.params)
    assert not TrainLog().unstable  # no steps, so none skipped


def test_adamw_from_a_config_trains_like_adam_without_decay():
    # coupled and decoupled decay coincide at weight_decay = 0, bit for bit
    data = train_data_from_toy(gen_toy(256, 1.0, 1.0, 1.0, shifted=False, seed=4))
    params = {}
    for optimizer in ("adam", "adamw"):
        for decay in (0.0, 0.3):
            config = TrainConfig(method="none", batch_size=64, epochs=2, lr=1e-2,
                                 weight_decay=decay, optimizer=optimizer,
                                 hidden_widths=(8,), seed=0)
            params[optimizer, decay] = train(config, data)[0].params
    for want, got in zip(params["adam", 0.0], params["adamw", 0.0]):
        assert np.array_equal(want, got)
    assert not all(np.array_equal(want, got) for want, got
                   in zip(params["adam", 0.3], params["adamw", 0.3]))
    assert not all(np.array_equal(want, got) for want, got
                   in zip(params["adamw", 0.0], params["adamw", 0.3]))


@pytest.mark.parametrize("method", ["none", "circe", "hscic", "gcm"])
def test_training_step_runs_on_numpy_linear_algebra_only(monkeypatch, method):
    # numpy and scipy bundle separate OpenBLAS thread pools; a scipy solve
    # between numpy's products makes the two pools contend for the cores
    ds = make_dataset("uni1", 1000, 1, seed=0, m_holdout=100)
    data = train_data_from_dataset(ds)
    std = ds.standardizer
    cme = fit_cme(std.transform("y", ds.holdout.y), std.transform("z", ds.holdout.z),
                  0.1, KernelParams(1.0), KernelParams(1.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg called during training")

    for name in ("cho_factor", "cho_solve", "solve", "lu_factor"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    config = TrainConfig(method=method, gamma=1.0, batch_size=64, epochs=1,
                         lr=1e-3, weight_decay=0.0, hidden_widths=(8,), seed=0)
    _, log = train(config, data, cme_model=cme)
    assert log.skipped_steps == 0


_TRAIN_WITHOUT_SCIPY_LINALG = """
import sys
from circe.cme import fit_cme
from circe.kernels import KernelParams
from circe.scm import make_dataset
from circe.trainer import TrainConfig, train, train_data_from_dataset
ds = make_dataset("uni1", 600, 1, seed=0, m_holdout=100)
std = ds.standardizer
cme = fit_cme(std.transform("y", ds.holdout.y), std.transform("z", ds.holdout.z),
              0.1, KernelParams(1.0), KernelParams(1.0))
for method in ("none", "circe", "hscic", "gcm"):
    config = TrainConfig(method=method, gamma=1.0, batch_size=64, epochs=1,
                         lr=1e-3, weight_decay=0.0, hidden_widths=(8,), seed=0)
    train(config, train_data_from_dataset(ds), cme_model=cme)
print("scipy.linalg" in sys.modules)
"""


def _run_fresh(script):
    """stdout of script run in a fresh interpreter on this checkout's src."""
    src = str(Path(trainer_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_training_never_imports_scipy_linalg():
    # a `from scipy.linalg import ...` binds the function at import time and
    # escapes the monkeypatch above; a fresh interpreter catches that too
    assert _run_fresh(_TRAIN_WITHOUT_SCIPY_LINALG) == ["False"]


_REFUSE_SCIPY = """
import importlib, pkgutil, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy import refused: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
import circe
for info in pkgutil.iter_modules(circe.__path__):
    if info.name != "__main__":  # running it would start the cli
        importlib.import_module(f"circe.{info.name}")
"""


def test_package_runs_without_scipy():
    # the runtime depends on numpy alone; scipy is a test dependency
    script = _REFUSE_SCIPY + _TRAIN_WITHOUT_SCIPY_LINALG + 'print("scipy" in sys.modules)\n'
    assert _run_fresh(script) == ["False", "False"]


def _reuse_problem():
    ds = make_dataset("uni1", 600, 1, seed=0, m_holdout=100)
    std = ds.standardizer
    hold_y, hold_z = std.transform("y", ds.holdout.y), std.transform("z", ds.holdout.z)
    cme = fit_cme(hold_y, hold_z, 0.1, KernelParams(1.0), KernelParams(1.0))
    return ds, cme, (hold_y, hold_z)


def _counting_cross_factors(monkeypatch, cme):
    calls = []

    def counting(*args):
        calls.append(args)
        return cross_factors(*args)

    cme._slot.clear()
    monkeypatch.setattr(trainer_mod, "cross_factors", counting)
    return calls


def _reuse_config(gamma):
    return TrainConfig(method="circe", gamma=gamma, batch_size=64, epochs=1,
                       lr=1e-3, weight_decay=0.0, hidden_widths=(8,), seed=0)


def test_train_reuses_cross_factors_across_calls(monkeypatch):
    ds, cme, _ = _reuse_problem()
    calls = _counting_cross_factors(monkeypatch, cme)
    # separately built, equal training rows: one build serves both gammas
    reused = [train(_reuse_config(g), train_data_from_dataset(ds), cme_model=cme)[0]
              for g in (1.0, 100.0)]
    assert len(calls) == 1
    for g, model in zip((1.0, 100.0), reused):
        cme._slot.clear()
        fresh, _ = train(_reuse_config(g), train_data_from_dataset(ds), cme_model=cme)
        for a, b in zip(model.params, fresh.params):
            assert np.array_equal(a, b)
    assert len(calls) == 3


def test_changed_rows_or_refitted_model_rebuild_the_context(monkeypatch):
    ds, cme, holdout = _reuse_problem()
    calls = _counting_cross_factors(monkeypatch, cme)
    data = train_data_from_dataset(ds)
    train(_reuse_config(1.0), data, cme_model=cme)
    for column in ("y", "z"):
        changed = train_data_from_dataset(ds)
        getattr(changed.train, column)[5, 0] += 1e-3
        train(_reuse_config(1.0), changed, cme_model=cme)
    assert len(calls) == 3
    train(_reuse_config(1.0), data, cme_model=cme)
    assert len(calls) == 4
    refitted = fit_cme(*holdout, 0.1, KernelParams(1.0), KernelParams(1.0))
    train(_reuse_config(1.0), data, cme_model=refitted)
    assert len(calls) == 5


def test_each_model_keeps_its_own_context(monkeypatch):
    ds, cme_a, holdout = _reuse_problem()
    cme_b = fit_cme(*holdout, 0.1, KernelParams(1.0), KernelParams(1.0))
    calls = _counting_cross_factors(monkeypatch, cme_a)
    data = train_data_from_dataset(ds)
    for cme in (cme_a, cme_b, cme_a):
        train(_reuse_config(1.0), data, cme_model=cme)
    # equal fits, separate objects: B builds its own, and A keeps its one
    assert len(calls) == 2
    assert list(cme_a._slot) == list(cme_b._slot) == ["circe"]
    assert not dataclasses.replace(cme_a)._slot
    cme_a._slot.clear()
    train(_reuse_config(1.0), data, cme_model=cme_a)
    assert len(calls) == 3


def test_used_model_is_freed_without_the_cycle_collector():
    ds, cme, _ = _reuse_problem()
    train(_reuse_config(1.0), train_data_from_dataset(ds), cme_model=cme)
    assert cme._slot
    ref = weakref.ref(cme)
    gc.disable()
    try:
        del cme
        assert ref() is None
    finally:
        gc.enable()


def test_cme_model_is_frozen():
    _, cme, _ = _reuse_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cme.lam = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cme.u = cme.u.copy()


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(method="mystery")
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(variant="bogus")
    with pytest.raises(ConfigError):
        TrainConfig(regularize="nowhere")
    for lam in (0.0, -0.1):
        with pytest.raises(ConfigError, match="lam must be positive"):
            TrainConfig(lam=lam)
    # the baselines' per-batch regression needs GCM_MIN_BATCH rows once they train
    for method in ("hscic", "gcm"):
        with pytest.raises(ConfigError, match="batch_size of at least"):
            TrainConfig(method=method, gamma=1.0, batch_size=GCM_MIN_BATCH - 1)
        TrainConfig(method=method, gamma=0.0, batch_size=GCM_MIN_BATCH - 1)
    with pytest.raises(ConfigError, match="leading dimension"):
        TrainBatch(np.zeros((4, 2)), np.zeros(4), np.zeros(4), np.zeros(3))
    # the features of a model without a hidden layer are its raw inputs
    for method in ("none", "circe", "hscic", "gcm"):
        with pytest.raises(ConfigError, match="hidden layer"):
            TrainConfig(method=method, regularize="features", hidden_widths=())
    # each of these used to fail only inside train()
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ConfigError):
        TrainConfig(weight_decay=-0.1)
    for widths in ((64, 0), (-8,)):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_widths=widths)
    for name in ("sigma2_x", "sigma2_y", "sigma2_z"):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                TrainConfig(**{name: bad})
    # NaN fails every range check, so each float field is checked for
    # finiteness; these used to build and train rows of NaN
    for name in ("gamma", "lr", "weight_decay", "lam"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TrainConfig(**{name: bad})
    toy = gen_toy(64, 1.0, 1.0, 1.0, shifted=False, seed=0)
    data = train_data_from_toy(toy)
    with pytest.raises(ConfigError):
        train(TrainConfig(batch_size=128, epochs=1), data)
    with pytest.raises(ConfigError):
        train(TrainConfig(method="circe", gamma=1.0, batch_size=32, epochs=1),
              data, cme_model=None)


def test_train_data_builders():
    ds = make_dataset("uni1", 2000, 1, seed=0, m_holdout=200)
    td = train_data_from_dataset(ds)
    assert td.train.n == 1400
    assert td.eval.n == 400
    assert td.train.inputs.shape[1] == 3


def _circe_coeff_as_first_written(m, variant):
    """The circe gradient coefficient as first written."""
    b = m.shape[0]
    scale = 1.0 / (b * (b - 1))
    if variant == "plain":
        return m * scale
    if variant == "debiased":
        out = m * scale
        np.fill_diagonal(out, 0.0)
        return out
    row = m.mean(axis=0)
    return (m - row[None, :] - row[:, None] + row.mean()) * scale


def _hscic_coeff_as_first_written(x, z, y, z_params, y_params, lam):
    """The HSCIC gradient coefficient as first written, with the ridge
    weights F G^T of the batch factor, or the dense solve where it gives up."""
    n = x.shape[0]
    k_yy = gram(y, y, y_params)
    gt = pivoted_cholesky(y, y_params, FACTOR_STOP, n // 8)
    w = regularized_solve(k_yy, lam, k_yy) if gt is None else ridge_factor(gt, lam).T @ gt
    k_zz = gram(z, z, z_params)
    u = k_zz @ w
    q = np.einsum("li,li->i", w, u)
    return ((w @ w.T) * k_zz + (w * (q - 2.0 * u)) @ w.T) / n


@pytest.mark.parametrize("method,variant,regularize", [
    ("circe", variant, regularize)
    for variant in ("plain", "debiased", "centered")
    for regularize in ("prediction", "features")
] + [("hscic", "centered", "prediction"), ("hscic", "centered", "features")])
def test_penalty_gradient_bitwise_as_first_written(monkeypatch, method, variant,
                                                   regularize):
    # hscic's 256-row batch takes the batch factor, its 64-row one the dense path
    n = 256 if (method, regularize) == ("hscic", "prediction") else 64
    batch, cme = small_problem(seed=4, n=n)
    config = TrainConfig(method=method, gamma=0.7, batch_size=n, epochs=1,
                         variant=variant, hidden_widths=(8, 4),
                         regularize=regularize, lam=0.05)
    model = MlpModel(3, config.hidden_widths, seed=6)
    seen = []

    def recording_backprop(*args):
        seen.append(gram_backprop(*args))
        return seen[-1]

    module = trainer_mod if method == "circe" else baselines_mod
    monkeypatch.setattr(module, "gram_backprop", recording_backprop)
    run_step(model, batch, cme, config)

    feats, pred, _ = model.forward(batch.inputs)
    x = pred if regularize == "prediction" else feats
    xp, yp, zp = (KernelParams(config.sigma2_x), KernelParams(config.sigma2_y),
                  KernelParams(config.sigma2_z))
    if method == "circe":
        centered = centered_gram(batch.y, batch.z, cme, cme.y_params, cme.z_params)
        coeff = _circe_coeff_as_first_written(centered, variant)
    else:
        factor = pivoted_cholesky(batch.y, yp, FACTOR_STOP, n // 8)
        assert (factor is None) == (n == 64)
        coeff = _hscic_coeff_as_first_written(x, batch.z, batch.y, zp, yp, config.lam)
    assert len(seen) == 1
    assert np.array_equal(seen[0], gram_backprop(coeff, x, gram(x, x, xp), xp.sigma2))
