"""Random Fourier feature approximation of the batch statistic.

Feature maps r_i(x) = sqrt(2/D) cos(w_i . x + b_i) with w_i ~ N(0, I/sigma2)
and b_i ~ U[0, 2pi) approximate the Gaussian kernel, K ~ R R^T. The holdout
side of the centered Gram is folded once into two (D0, D0) weight matrices,
so each batch costs O(B D^2 + B^2 D) instead of touching the holdout again.

Y and Z live in different spaces and get independent maps. A batch may use a
subset of D out of the D0 sampled features; the subset is a deterministic
function of (map seed, refresh slot) and is rescaled by D0/D so every kernel
approximation stays unbiased. The active indices and the rescaled (D, D)
sub-weights are gathered once per refresh slot, on its first batch, and
reused by the slot's later batches; the rest of a batch's cost is its cosine
features, the feature products and the exact batch Grams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cme import CmeModel
from .estimator import centered_from_factors
from .exceptions import ConfigError
from .kernels import KernelParams, as_points, gram


@dataclass(frozen=True)
class RffMap:
    """Feature bank for one input space; rows are frequencies."""

    frequencies: np.ndarray   # (d_total, dim)
    phases: np.ndarray        # (d_total,)
    sigma2: float
    seed: int

    @property
    def d_total(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]

    def features(self, x, indices: np.ndarray | None = None) -> np.ndarray:
        """(n, D) scaled cosine features; D = len(indices) or d_total."""
        x = as_points(x)
        if x.shape[1] != self.dim:
            raise ConfigError(f"points have dim {x.shape[1]}, map expects {self.dim}")
        if indices is None:
            freq, phase = self.frequencies, self.phases
        else:
            freq, phase = self.frequencies[indices], self.phases[indices]
        d = freq.shape[0]
        return math.sqrt(2.0 / d) * np.cos(x @ freq.T + phase[None, :])


def sample_rff(dim: int, d_total: int, sigma2: float, seed: int) -> RffMap:
    """Draw a feature bank for the Gaussian kernel with bandwidth sigma2."""
    if dim < 1 or d_total < 1:
        raise ConfigError(f"dim and d_total must be positive, got {dim}, {d_total}")
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise ConfigError(f"sigma2 must be positive and finite, got {sigma2}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal((d_total, dim)) / math.sqrt(sigma2)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d_total)
    return RffMap(frequencies=freqs, phases=phases, sigma2=float(sigma2), seed=int(seed))


@dataclass(frozen=True)
class RffCmeWeights:
    """Holdout weights folded into feature space.

    w1r = R(Y)^T W1 R(Z) and w2r = R(Y)^T W2 R(Y), both (d_total, d_total),
    computed with full-bank scaling. refresh_period controls how often the
    active subset is redrawn (None means never).

    Each object also keeps the active indices and rescaled sub-weights of the
    last refresh slot that rff_centered_gram used, keyed on (y map seed,
    z map seed, d_active, slot). It holds one slot at most, takes no part in
    comparison, and starts empty, also in a copy made by dataclasses.replace.
    """

    w1r: np.ndarray
    w2r: np.ndarray
    d_total_y: int
    d_total_z: int
    refresh_period: int | None = None
    _slot: dict = field(init=False, default_factory=dict, compare=False, repr=False)


def _dense_weights(model: CmeModel):
    """W1 = (K_YY + lam I)^{-1} = u (D - I/lam) u^T + I/lam and W2 = W1 K_ZZ W1,
    rebuilt as dense (M, M) arrays from the model's kept eigenpairs.

    Random features of the holdout are not confined to the kept eigenvectors
    of K_YY, so W1 keeps the I/lam term on the rest and stays the full inverse.
    """
    inv_lam = 1.0 / model.lam
    w1 = (model.u * (1.0 / (model.s + model.lam) - inv_lam)) @ model.u.T
    w1[np.diag_indices_from(w1)] += inv_lam
    w1 = 0.5 * (w1 + w1.T)
    w2 = w1 @ gram(model.holdout_z, model.holdout_z, model.z_params) @ w1
    return w1, 0.5 * (w2 + w2.T)


def precompute_rff_weights(model: CmeModel, y_map: RffMap, z_map: RffMap,
                           refresh_period: int | None = None) -> RffCmeWeights:
    """Fold the holdout regression weights into the two feature banks."""
    if y_map.sigma2 != model.y_params.sigma2:
        raise ConfigError(
            f"y map bandwidth {y_map.sigma2} does not match model {model.y_params.sigma2}"
        )
    if z_map.sigma2 != model.z_params.sigma2:
        raise ConfigError(
            f"z map bandwidth {z_map.sigma2} does not match model {model.z_params.sigma2}"
        )
    if refresh_period is not None and refresh_period < 1:
        raise ConfigError(f"refresh_period must be positive, got {refresh_period}")
    w1, w2 = _dense_weights(model)
    ry = y_map.features(model.holdout_y)
    rz = z_map.features(model.holdout_z)
    w1r = ry.T @ w1 @ rz
    w2r = ry.T @ w2 @ ry
    return RffCmeWeights(w1r=w1r, w2r=w2r, d_total_y=y_map.d_total,
                         d_total_z=z_map.d_total, refresh_period=refresh_period)


def _active_indices(d_total: int, d_active: int, seed: int, slot: int,
                    stream: int) -> np.ndarray:
    if d_active == d_total:
        return np.arange(d_total)
    rng = np.random.default_rng([seed, stream, slot])
    return rng.permutation(d_total)[:d_active]


def _slot_weights(weights: RffCmeWeights, y_map: RffMap, z_map: RffMap,
                  d_active: int, slot: int):
    """(idx_y, idx_z, w1_sub, w2_sub) of one refresh slot, from the cache when
    the last call used the same slot."""
    key = (y_map.seed, z_map.seed, d_active, slot)
    cached = weights._slot.get(key)
    if cached is not None:
        return cached
    idx_y = _active_indices(y_map.d_total, d_active, y_map.seed, slot, stream=0)
    idx_z = _active_indices(z_map.d_total, d_active, z_map.seed, slot, stream=1)
    # stored weights carry full-bank sqrt(2/D0) scaling on each side
    if d_active == y_map.d_total and d_active == z_map.d_total:
        # full bank active: rescales are exactly 1, skip the copies
        w1_sub = weights.w1r
        w2_sub = weights.w2r
    else:
        # two takes gather the same values as w[np.ix_(rows, cols)], faster
        w1_sub = np.take(np.take(weights.w1r, idx_y, axis=0), idx_z, axis=1)
        w1_sub *= math.sqrt(y_map.d_total / d_active) * math.sqrt(z_map.d_total / d_active)
        w2_sub = np.take(np.take(weights.w2r, idx_y, axis=0), idx_y, axis=1)
        w2_sub *= y_map.d_total / d_active
    weights._slot.clear()
    weights._slot[key] = cached = (idx_y, idx_z, w1_sub, w2_sub)
    return cached


def rff_centered_gram(batch_y, batch_z, weights: RffCmeWeights,
                      y_map: RffMap, z_map: RffMap, d_active: int,
                      batch_index: int = 0) -> np.ndarray:
    """Conditionally centered batch Gram with holdout cross terms replaced
    by RFF products.

    The batch Grams K_yy and K_zz stay exact; only the terms involving the
    holdout go through the feature banks. d_active <= d_total features are
    used, drawn without replacement per refresh slot.
    """
    if y_map.d_total != weights.d_total_y or z_map.d_total != weights.d_total_z:
        raise ConfigError("feature banks do not match the precomputed weights")
    if d_active < 1 or d_active > y_map.d_total or d_active > z_map.d_total:
        raise ConfigError(
            f"d_active={d_active} outside [1, {min(y_map.d_total, z_map.d_total)}]"
        )
    batch_y = as_points(batch_y)
    batch_z = as_points(batch_z)
    b = batch_y.shape[0]
    if batch_z.shape[0] != b:
        raise ConfigError(f"batch_y has {b} rows, batch_z {batch_z.shape[0]}")

    slot = 0 if weights.refresh_period is None else batch_index // weights.refresh_period
    idx_y, idx_z, w1_sub, w2_sub = _slot_weights(weights, y_map, z_map, d_active, slot)
    ry = y_map.features(batch_y, idx_y)
    rz = z_map.features(batch_z, idx_z)
    # P = ry w1_sub rz^T and Q = ry w2_sub ry^T as per-row factors
    return centered_from_factors(batch_y, batch_z, KernelParams(sigma2=y_map.sigma2),
                                 KernelParams(sigma2=z_map.sigma2),
                                 ry, rz @ w1_sub.T, ry @ w2_sub.T)
