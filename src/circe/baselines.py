"""Residual-covariance (GCM) and conditional-dependence (HSCIC) measures.

Both regress onto Y with kernel ridge inside the batch, so nothing is
cached across batches. Gradients with respect to the X features treat the
ridge weights as functions of Y alone, which they are.

GCM never forms the ridge smoother A = K_yy (K_yy + lam I)^-1: since
I - A = lam (K_yy + lam I)^-1, its residuals take one solve with d_x + d_z
right-hand sides and its gradient one with d_x. Every solve runs in
kernels.regularized_solve on numpy's LAPACK (Cholesky test, LU solve), not
scipy's, whose own OpenBLAS thread pool contends with numpy's for the
cores: a 256-row GCM step on two cores took 43-71 ms with it, 15-19 without.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericalError
from .kernels import KernelParams, as_points, gram, gram_backprop, regularized_solve

GCM_MIN_BATCH = 8
GCM_VARIANCE_GUARD = 1e-12
GCM_SMOOTHMAX_TAU = 10.0


@dataclass
class GcmEstimate:
    """Max-normalized residual covariance plus its smooth trainable surrogate."""

    value: float
    raw_covs: np.ndarray
    regularizer_value: float
    included: np.ndarray


@dataclass
class HscicEstimate:
    value: float


def _check_batch(x_feats, z, y, lam):
    x_feats = as_points(x_feats)
    z = as_points(z)
    y = as_points(y)
    n = x_feats.shape[0]
    if z.shape[0] != n or y.shape[0] != n:
        raise ConfigError("x_feats, z, y must share the batch dimension")
    if n < GCM_MIN_BATCH:
        raise ConfigError(f"batch of {n} too small, need at least {GCM_MIN_BATCH}")
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    return x_feats, z, y


def _gcm_core(x_feats, z, y, y_params, lam):
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n, d_x = x_feats.shape
    d_z = z.shape[1]
    k_yy = gram(y, y, y_params)
    resid = lam * regularized_solve(k_yy, lam, np.hstack([x_feats, z]))
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
            var = max(np.mean(r * r) - m * m, 0.0)
            s = np.sqrt(var)
            if s < GCM_VARIANCE_GUARD:
                continue
            included[j, k] = True
            means[j, k] = m
            stds[j, k] = s
            t[j, k] = np.sqrt(n) * m / s
    if not included.any():
        raise NumericalError("every residual pair failed the variance guard")
    abs_t = np.abs(t[included])
    value = float(abs_t.max())
    # log-sum-exp of tau |t|, shifted by its max so no term overflows
    scaled = GCM_SMOOTHMAX_TAU * abs_t
    top = scaled.max()
    regularizer = float((top + np.log(np.sum(np.exp(scaled - top)))) / GCM_SMOOTHMAX_TAU)
    estimate = GcmEstimate(value, t, regularizer, included)
    extras = {"k_yy": k_yy, "rx": rx, "rz": rz, "prods": prods,
              "means": means, "stds": stds}
    return estimate, extras


def gcm_statistic(x_feats, z, y, y_params: KernelParams, lam: float) -> GcmEstimate:
    estimate, _ = _gcm_core(x_feats, z, y, y_params, lam)
    return estimate


def gcm_with_grad(x_feats, z, y, y_params: KernelParams, lam: float):
    """GcmEstimate plus d(regularizer_value)/d(x_feats)."""
    estimate, ex = _gcm_core(x_feats, z, y, y_params, lam)
    t, included = estimate.raw_covs, estimate.included
    n = ex["rx"].shape[0]
    abs_t = np.abs(t[included])
    # softmax weights of the smooth max; they sum to 1
    shifted = GCM_SMOOTHMAX_TAU * (abs_t - abs_t.max())
    soft = np.exp(shifted)
    soft /= soft.sum()
    coeffs = np.zeros_like(ex["rx"])
    for (j, k), weight in zip(np.argwhere(included), soft):
        m, s = ex["means"][j, k], ex["stds"][j, k]
        r = ex["prods"][:, j, k]
        # dT/dR_l for T = sqrt(n) mean(R) / popstd(R)
        dt_dr = (np.sqrt(n) / (n * s)) * (1.0 - m * (r - m) / (s * s))
        coeffs[:, j] += weight * np.sign(t[j, k]) * dt_dr * ex["rz"][:, k]
    # the residual maker I - A is lam (K_yy + lam I)^-1, symmetric
    grad = lam * regularized_solve(ex["k_yy"], lam, coeffs)
    return estimate, grad


def _hscic_core(x_feats, z, y, x_params, z_params, y_params, lam):
    """HscicEstimate, the X features, K_xx and the coefficient C of the value
    <K_xx, C>, with C = ((w w^T) o K_zz + (w o (q - 2u)) w^T) / n."""
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n = x_feats.shape[0]
    k_yy = gram(y, y, y_params)
    w = regularized_solve(k_yy, lam, k_yy)
    k_xx = gram(x_feats, x_feats, x_params)
    k_zz = gram(z, z, z_params)
    u = k_zz @ w
    q = np.einsum("li,li->i", w, u)
    coeff = ((w @ w.T) * k_zz + (w * (q - 2.0 * u)) @ w.T) / n
    return HscicEstimate(float(np.vdot(k_xx, coeff))), x_feats, k_xx, coeff


def hscic_statistic(x_feats, z, y, x_params: KernelParams, z_params: KernelParams,
                    y_params: KernelParams, lam: float) -> HscicEstimate:
    return _hscic_core(x_feats, z, y, x_params, z_params, y_params, lam)[0]


def hscic_with_grad(x_feats, z, y, x_params: KernelParams, z_params: KernelParams,
                    y_params: KernelParams, lam: float):
    """HscicEstimate plus d(value)/d(x_feats) through the X Gram."""
    estimate, x_feats, k_xx, coeff = _hscic_core(x_feats, z, y, x_params, z_params,
                                                 y_params, lam)
    return estimate, gram_backprop(coeff, x_feats, k_xx, x_params.sigma2)
