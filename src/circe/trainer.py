"""Regularized regression training: MSE plus a conditional-independence
penalty, with analytic gradients end to end.

The penalty attaches to the scalar prediction by default (the predictor
itself is what must be invariant); feature-level attachment is available
through config. The circe penalty always uses the exact low-rank embedding.
Per-run determinism is seed-scoped: same config and data give
bitwise-identical parameters.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .baselines import GCM_MIN_BATCH, gcm_with_grad, hscic_with_grad
from .cme import CmeModel
from .estimator import VARIANTS, centered_from_factors, circe_statistic, cross_factors
from .exceptions import ConfigError, NumericalError
from .kernels import KernelParams, as_points, gram, gram_backprop
from .nn import MlpModel, hidden_widths_tuple, make_optimizer

METHODS = ("none", "circe", "hscic", "gcm")
REGULARIZE_LEVELS = ("prediction", "features")
UNSTABLE_SKIP_FRACTION = 0.01
# the type a TrainConfig field takes, keyed by the type of its default
_FIELD_KINDS = {str: str, int: numbers.Integral, float: numbers.Real, tuple: (tuple, list)}


def check_type(key: str, value, kind) -> None:
    """ConfigError naming key unless value is an instance of kind; a bool
    is never a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"config value {key}={value!r} has the wrong type")


def check_items(key: str, value, kind) -> tuple:
    """value as a tuple, after checking it is a list or tuple of kind."""
    check_type(key, value, (tuple, list))
    for item in value:
        check_type(key, item, kind)
    return tuple(value)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of one run. A value train() could not use raises
    ConfigError here, by the optimizer's, nn's and KernelParams' own checks."""

    method: str = "none"
    gamma: float = 0.0
    batch_size: int = 256
    epochs: int = 100
    lr: float = 1e-4
    weight_decay: float = 0.3
    optimizer: str = "adam"
    seed: int = 0
    variant: str = "centered"
    hidden_widths: tuple = (64,) * 9
    regularize: str = "prediction"
    lam: float = 0.01
    sigma2_x: float = 1.0
    sigma2_y: float = 1.0
    sigma2_z: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            check_type(f.name, value, _FIELD_KINDS[type(f.default)])
            # NaN fails every range check below, so finiteness is its own rule
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.regularize not in REGULARIZE_LEVELS:
            raise ConfigError(f"unknown regularize level {self.regularize!r}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.method in ("hscic", "gcm") and self.gamma > 0 and self.batch_size < GCM_MIN_BATCH:
            raise ConfigError(f"method {self.method!r} needs batch_size of at least "
                              f"{GCM_MIN_BATCH}, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.lam <= 0:
            raise ConfigError(f"lam must be positive, got {self.lam}")
        make_optimizer(self.optimizer, self.lr, self.weight_decay)
        for sigma2 in (self.sigma2_x, self.sigma2_y, self.sigma2_z):
            KernelParams(sigma2=sigma2)
        object.__setattr__(self, "hidden_widths", hidden_widths_tuple(
            check_items("hidden_widths", self.hidden_widths, numbers.Integral)))
        if self.regularize == "features" and not self.hidden_widths:
            # the features of a model without a hidden layer are its inputs,
            # which no gradient moves
            raise ConfigError("regularize='features' needs a hidden layer")

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)


@dataclass
class TrainBatch:
    """Standardized arrays for one mini-batch (or a full split)."""

    inputs: np.ndarray
    targets: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = as_points(self.targets)
        self.y = as_points(self.y)
        self.z = as_points(self.z)
        n = self.inputs.shape[0]
        if any(arr.shape[0] != n for arr in (self.targets, self.y, self.z)):
            raise ConfigError("batch arrays must share the leading dimension")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "TrainBatch":
        return TrainBatch(self.inputs[idx], self.targets[idx],
                          self.y[idx], self.z[idx])


@dataclass
class TrainData:
    train: TrainBatch
    eval: TrainBatch | None = None


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    total_steps: int = 0
    skipped_steps: int = 0
    final_statistic: float = float("nan")

    @property
    def unstable(self) -> bool:
        if self.total_steps == 0:
            return False
        return self.skipped_steps / self.total_steps > UNSTABLE_SKIP_FRACTION


def _train_factors(rows: TrainBatch, model: CmeModel):
    """Holdout cross-term factors (L, S) of every training row, kept on the
    model with copies of the rows' y and z. A batch drawn by row index gathers
    its rows of both factors; see estimator.cross_factors for when its
    centered Gram equals estimator.centered_gram bitwise. The factors are a
    pure function of the frozen model and the rows, so every gamma of a sweep
    cell, and every circe run on one prepared cell, reuses them until a run
    on other rows replaces them."""
    kept = model._slot.get("circe")
    if kept is None or not (np.array_equal(rows.y, kept[0]) and np.array_equal(rows.z, kept[1])):
        model._slot.clear()  # never hold two sets of factors at once
        kept = model._slot["circe"] = (rows.y.copy(), rows.z.copy(),
                                       *cross_factors(rows.y, rows.z, model))
    return kept[2], kept[3]


def _penalty(config: TrainConfig, x: np.ndarray, batch: TrainBatch,
             centered: np.ndarray | None):
    """(statistic, trainable value, its gradient in x) of the penalty on x;
    gcm trains on a smooth max of the statistic, the others on itself."""
    x_params = KernelParams(sigma2=config.sigma2_x)
    y_params = KernelParams(sigma2=config.sigma2_y)
    if config.method == "circe":
        if centered is None:
            raise ConfigError("method 'circe' needs the batch's centered Gram")
        k_xx = gram(x, x, x_params)
        stat = circe_statistic(k_xx, centered, config.variant)
        return stat.value, stat.value, gram_backprop(stat.coeff, x, k_xx, x_params.sigma2)
    if config.method == "hscic":
        value, d_x = hscic_with_grad(x, batch.z, batch.y, x_params,
                                     KernelParams(sigma2=config.sigma2_z), y_params,
                                     config.lam)
        return value, value, d_x
    est, d_x = gcm_with_grad(x, batch.z, batch.y, y_params, config.lam)
    return est.value, est.regularizer_value, d_x


def loss_and_grad(model: MlpModel, batch: TrainBatch, config: TrainConfig,
                  centered: np.ndarray | None = None):
    """(loss, parameter gradients, penalty statistic) for one batch; the
    statistic is 0.0 on an unpenalized step.

    centered is the batch's (B, B) centered Gram, which a circe penalty
    needs: train() gathers it from the training rows' factors, and a direct
    caller builds it with estimator.centered_gram.
    """
    feats, pred, cache = model.forward(batch.inputs)
    err = pred - batch.targets
    loss = float(np.mean(err * err))
    d_pred = 2.0 * err / err.size
    statistic, d_features = 0.0, None
    if config.method != "none" and config.gamma != 0.0:
        on_features = config.regularize == "features"
        statistic, trainable, d_x = _penalty(config, feats if on_features else pred,
                                             batch, centered)
        loss += config.gamma * trainable
        if on_features:
            d_features = config.gamma * d_x
        else:
            d_pred += config.gamma * d_x
    return loss, model.backward(cache, d_pred, d_features), statistic


def _split_mse(model: MlpModel, split: TrainBatch | None):
    if split is None:
        return None
    return float(np.mean((model.predict(split.inputs) - split.targets) ** 2))


def train(config: TrainConfig, data: TrainData,
          cme_model: CmeModel | None = None):
    """Mini-batch training loop; returns (model, TrainLog). Each epoch logs
    its mean train loss and statistic; the last also logs eval_mse, the
    trained model's mse on data.eval (None without one)."""
    batch = data.train
    n = batch.n
    if config.method == "circe" and config.gamma > 0.0 and cme_model is None:
        raise ConfigError("method 'circe' needs a fitted embedding model")
    if n < config.batch_size:
        raise ConfigError(
            f"training split of {n} smaller than batch_size {config.batch_size}"
        )
    model = MlpModel(batch.inputs.shape[1], config.hidden_widths, seed=config.seed)
    optimizer = make_optimizer(config.optimizer, config.lr, config.weight_decay)

    left = right = None
    if config.method == "circe" and config.gamma > 0.0:
        left, right = _train_factors(batch, cme_model)

    rng = np.random.default_rng(config.seed)
    log = TrainLog()
    n_batches = n // config.batch_size
    last_stat = float("nan")
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        epoch_stat = 0.0
        used = 0
        for step in range(n_batches):
            idx = perm[step * config.batch_size:(step + 1) * config.batch_size]
            mini = batch.take(idx)
            log.total_steps += 1
            centered = None if left is None else centered_from_factors(
                mini.y, mini.z, cme_model.y_params, cme_model.z_params, left[idx], right[idx])
            try:
                loss, grads, statistic = loss_and_grad(model, mini, config, centered)
            except NumericalError:
                log.skipped_steps += 1
                continue
            # a non-finite penalty gradient reaches every bias gradient, each
            # a column sum of the delta it flows into
            if not (np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads)):
                log.skipped_steps += 1
                continue
            optimizer.step(model.params, grads)
            epoch_loss += loss
            epoch_stat += statistic
            used += 1
        entry = {
            "epoch": epoch,
            "train_loss": epoch_loss / used if used else float("nan"),
            "train_statistic": epoch_stat / used if used else float("nan"),
        }
        if used:
            last_stat = entry["train_statistic"]
        log.epochs.append(entry)
    # the eval split is predicted once, by the trained model
    log.epochs[-1]["eval_mse"] = _split_mse(model, data.eval)
    log.final_statistic = last_stat
    return model, log


def train_data_from_dataset(ds) -> TrainData:
    """Standardized TrainData from an ScmBatch dataset split."""
    pool = ds.fit_pool()
    std = ds.standardizer

    def as_train_batch(scm_batch):
        return TrainBatch(
            inputs=std.batch_inputs(scm_batch),
            targets=std.targets(scm_batch),
            y=std.transform("y", scm_batch.y),
            z=std.transform("z", scm_batch.z),
        )

    return TrainData(train=as_train_batch(pool), eval=as_train_batch(ds.eval))
