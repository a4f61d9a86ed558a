"""Residual-covariance (GCM) and conditional-dependence (HSCIC) measures.

Both regress onto Y with kernel ridge inside the batch, so nothing is
cached across batches. Gradients with respect to the X features treat the
ridge weights as functions of Y alone, which they are. Each measure is one
function that returns its value and that gradient: gcm_with_grad and
hscic_with_grad.

Both regress through one greedy pivoted Cholesky factor K_yy ~ G G^T of
the batch Gram (kernels.pivoted_cholesky), computed from the batch labels:
it reads only the diagonal and the r pivot rows of K_yy, so a batch on
this route never forms K_yy. With F = G (G^T G + lam I)^-1 from one r x r
solve (kernels.ridge_factor), HSCIC's weights (K_yy + lam I)^-1 K_yy are
F G^T, and GCM's residual maker I - A = lam (K_yy + lam I)^-1 is
I - F G^T, so GCM's residuals B - F (G^T B) and its gradient share one
factor per step. GCM never forms the smoother A, and every (feature, z)
pair is computed at once, on one array of residual products. The batch
factor gives up at n/8 columns while its pivot is above
kernels.FACTOR_GIVE_UP of the largest diagonal, and always at n/2; such a
batch forms K_yy and takes the dense path: one kernels.ridge_system (a
Cholesky test with its jitter search, once per step) and LU solves
through ridge_solve. Every solve runs on numpy's LAPACK, not scipy's,
whose own OpenBLAS thread pool contends with numpy's for the cores: a
256-row GCM step on two cores took 43-71 ms with it, 15-19 without.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericalError
from .kernels import (KernelParams, as_points, gram, gram_backprop, pivoted_cholesky,
                      regularized_solve, ridge_factor, ridge_solve, ridge_system)

GCM_MIN_BATCH = 8
GCM_VARIANCE_GUARD = 1e-12
GCM_SMOOTHMAX_TAU = 10.0
# the batch factor ends once its pivot falls to this fraction of the largest
# diagonal. The dropped part moves the ridge weights by about FACTOR_STOP /
# lam relative, 1e-12 at the default grid's smallest lam of 1e-3, where the
# holdout's stop of 1e-13 left errors up to 1.6e-10; the roundoff of the
# residual diagonal sat at 2e-16 to 5e-16 on uni1 batches of 256 and 512
FACTOR_STOP = 1e-15


@dataclass
class GcmEstimate:
    """GCM statistic: t_stats holds the t-statistic of each (feature, z)
    residual pair, NaN where the pair failed the variance guard (included
    False); value is the largest |t| and regularizer_value its smooth
    trainable surrogate."""

    value: float
    t_stats: np.ndarray
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
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"lambda must be positive and finite, got {lam}")
    return x_feats, z, y


def _batch_factor(y, y_params, lam):
    """(G^T, F^T) of kernels.ridge_factor on the batch's label Gram, or None
    for the dense path. The factor reads only the pivot rows of K_yy.

    The n/8 checkpoint sorts B = 256 batches early: on seeds 0-2 the pivot
    at column 32 was at most 6.2e-6 of the largest diagonal on uni1
    (sigma2_y in {0.1, 1}, 21-52 columns in all) and at least 1.0e-2 on
    multi2, whose factors do not finish within n/2 columns.
    """
    gt = pivoted_cholesky(y, y_params, FACTOR_STOP, y.shape[0] // 8)
    return None if gt is None else (gt, ridge_factor(gt, lam))


def gcm_with_grad(x_feats, z, y, y_params: KernelParams, lam: float):
    """GcmEstimate plus d(regularizer_value)/d(x_feats).

    Every (feature, z) pair is one row of the (d_x, d_z, n) residual
    products R, contiguous in n, so each mean over the batch is the same
    pairwise sum a single pair's 1-d mean takes.
    """
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n, d_x = x_feats.shape
    factor = _batch_factor(y, y_params, lam)
    if factor is None:
        system = ridge_system(gram(y, y, y_params), lam)

        def residuals(b):
            return lam * ridge_solve(system, b)
    else:
        gt, ft = factor

        def residuals(b):
            return b - ft.T @ (gt @ b)
    resid = residuals(np.hstack([x_feats, z]))
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
    # the residual maker I - A is symmetric
    grad = residuals(coeffs)
    return GcmEstimate(value, t, regularizer, included), grad


def hscic_with_grad(x_feats, z, y, x_params: KernelParams, z_params: KernelParams,
                    y_params: KernelParams, lam: float):
    """(value, d(value)/d(x_feats)). The value is <K_xx, C> with
    C = ((w w^T) o K_zz + (w o (q - 2u)) w^T) / n, the gradient
    gram_backprop(C) through the X Gram."""
    x_feats, z, y = _check_batch(x_feats, z, y, lam)
    n = x_feats.shape[0]
    factor = _batch_factor(y, y_params, lam)
    if factor is None:
        k_yy = gram(y, y, y_params)
        w = regularized_solve(k_yy, lam, k_yy)
    else:
        gt, ft = factor
        w = ft.T @ gt
    k_xx = gram(x_feats, x_feats, x_params)
    k_zz = gram(z, z, z_params)
    u = k_zz @ w
    q = np.einsum("li,li->i", w, u)
    coeff = ((w @ w.T) * k_zz + (w * (q - 2.0 * u)) @ w.T) / n
    return float(np.vdot(k_xx, coeff)), gram_backprop(coeff, x_feats, k_xx, x_params.sigma2)
