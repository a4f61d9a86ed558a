"""Residual-covariance (GCM) and conditional-dependence (HSCIC) measures.

Both regress onto Y with kernel ridge inside the batch, so nothing is
cached across batches. Gradients with respect to the X features treat the
ridge weights as functions of Y alone, which they are. Each measure is one
function that returns its value and that gradient: gcm_with_grad and
hscic_with_grad.

GCM never forms the ridge smoother A = K_yy (K_yy + lam I)^-1: since
I - A = lam (K_yy + lam I)^-1, its residuals take one solve with d_x + d_z
right-hand sides and its gradient one with d_x; every (feature, z) pair is
computed at once, on one array of residual products. Both solves share
one kernels.ridge_system, so the Cholesky test and its jitter search run
once per step. Every solve runs on numpy's LAPACK (Cholesky test, LU
solve), not scipy's, whose own OpenBLAS thread pool contends with numpy's
for the cores: a 256-row GCM step on two cores took 43-71 ms with it,
15-19 without.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericalError
from .kernels import (KernelParams, as_points, gram, gram_backprop, regularized_solve,
                      ridge_solve, ridge_system)

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


def gcm_with_grad(x_feats, z, y, y_params: KernelParams, lam: float):
    """GcmEstimate plus d(regularizer_value)/d(x_feats).

    Every (feature, z) pair is one row of the (d_x, d_z, n) residual
    products R, contiguous in n, so each mean over the batch is the same
    pairwise sum a single pair's 1-d mean takes.
    """
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n, d_x = x_feats.shape
    system = ridge_system(gram(y, y, y_params), lam)
    resid = lam * ridge_solve(system, np.hstack([x_feats, z]))
    rx = np.ascontiguousarray(resid[:, :d_x].T)
    rz = np.ascontiguousarray(resid[:, d_x:].T)
    prods = rx[:, None, :] * rz[None, :, :]
    means = prods.mean(axis=2)
    stds = np.sqrt(np.maximum(np.mean(prods * prods, axis=2) - means * means, 0.0))
    # a NaN std stays included, so a non-finite batch surfaces in the value
    included = ~(stds < GCM_VARIANCE_GUARD)
    if not included.any():
        raise NumericalError("every residual pair failed the variance guard")
    m, s = means[included], stds[included]
    t_in = np.sqrt(n) * m / s
    t = np.full(included.shape, np.nan)
    t[included] = t_in
    abs_t = np.abs(t_in)
    value = float(abs_t.max())
    # log-sum-exp of tau |t|, shifted by its max so no term overflows
    scaled = GCM_SMOOTHMAX_TAU * abs_t
    top = scaled.max()
    regularizer = float((top + np.log(np.sum(np.exp(scaled - top)))) / GCM_SMOOTHMAX_TAU)
    # softmax weights of the smooth max; they sum to 1
    soft = np.exp(GCM_SMOOTHMAX_TAU * (abs_t - abs_t.max()))
    soft /= soft.sum()
    # dT/dR_l for T = sqrt(n) mean(R) / popstd(R), one row per included pair
    m, s = m[:, None], s[:, None]
    r = prods[included]
    dt_dr = (np.sqrt(n) / (n * s)) * (1.0 - m * (r - m) / (s * s))
    j, k = np.nonzero(included)
    coeffs = np.zeros((n, d_x))
    # pairs of one feature add into its column in z order
    np.add.at(coeffs.T, j, (soft * np.sign(t_in))[:, None] * dt_dr * rz[k])
    # the residual maker I - A is lam (K_yy + lam I)^-1, symmetric
    grad = lam * ridge_solve(system, coeffs)
    return GcmEstimate(value, t, regularizer, included), grad


def hscic_with_grad(x_feats, z, y, x_params: KernelParams, z_params: KernelParams,
                    y_params: KernelParams, lam: float):
    """(value, d(value)/d(x_feats)). The value is <K_xx, C> with
    C = ((w w^T) o K_zz + (w o (q - 2u)) w^T) / n, the gradient
    gram_backprop(C) through the X Gram."""
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n = x_feats.shape[0]
    k_yy = gram(y, y, y_params)
    w = regularized_solve(k_yy, lam, k_yy)
    k_xx = gram(x_feats, x_feats, x_params)
    k_zz = gram(z, z, z_params)
    u = k_zz @ w
    q = np.einsum("li,li->i", w, u)
    coeff = ((w @ w.T) * k_zz + (w * (q - 2.0 * u)) @ w.T) / n
    return float(np.vdot(k_xx, coeff)), gram_backprop(coeff, x_feats, k_xx, x_params.sigma2)
