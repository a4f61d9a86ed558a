"""Batch estimators of the conditional independence statistic.

The statistic is the squared Hilbert-Schmidt norm of the covariance between
encoder features of X and conditionally centered joint features of (Z, Y).
On a batch it reduces to a trace of the encoder Gram against a centered Gram
built from the holdout embedding regression; that Gram is a plain (B, B)
array, and B is its row count. Every variant is linear in the encoder Gram,
<K_xx, C>, so one coefficient C gives the value and, through
kernels.gram_backprop, the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cme import CmeModel
from .exceptions import ConfigError
from .kernels import KernelParams, as_points, gram, gram_into

VARIANTS = ("plain", "debiased", "centered")
# rows per block when building the holdout cross-term factors: a 128-row
# block's Gram at M=1000 is 1 MB, small enough to reuse the holes that the
# LOO grid leaves in the heap
FACTOR_BLOCK_ROWS = 128


@dataclass(frozen=True)
class CirceEstimate:
    """The statistic and its coefficient C, the statistic's gradient in K_xx."""

    value: float
    coeff: np.ndarray = field(repr=False, compare=False)


def cross_factors(y, z, model: CmeModel):
    """Per-row factors (L, S) = (K_yY u, 1/2 L D c D - K_zZ u D), each (n, r).

    With the model's truncated spectrum u, s, c and D = diag(1 / (s + lam)),
    the holdout cross terms of the centered Gram are P = K_yY u D u^T K_Zz
    and Q = L D c D L^T. Q is symmetric, so Q - P - P^T = T + T^T with
    T = L S^T. Row i of both factors depends on point i alone, so a batch
    of rows is a row gather. Rows are filled in blocks of FACTOR_BLOCK_ROWS
    so no full (n, M) Gram temporary is alive. Every block's y Gram and z
    Gram is built in one (FACTOR_BLOCK_ROWS, M) buffer, with a second for
    the cross product of points of two or more columns, both allocated once
    per call: blocks that each mapped and freed their own buffers faulted
    their pages in afresh.
    """
    y = as_points(y)
    z = as_points(z)
    n = y.shape[0]
    d = 1.0 / (model.s + model.lam)
    u_d = model.u * d
    half_dcd = 0.5 * (d[:, None] * model.c * d)
    left, right = np.empty((n, model.rank)), np.empty((n, model.rank))
    shape = (min(n, FACTOR_BLOCK_ROWS), model.n_holdout)
    buffer = np.empty(shape)
    work = np.empty(shape) if max(y.shape[1], z.shape[1]) > 1 else None
    for start in range(0, n, FACTOR_BLOCK_ROWS):
        stop = min(n, start + FACTOR_BLOCK_ROWS)
        rows, out = slice(start, stop), buffer[:stop - start]
        tmp = None if work is None else work[:stop - start]
        np.matmul(gram_into(y[rows], model.holdout_y, model.y_params, out, tmp),
                  model.u, out=left[rows])
        np.matmul(left[rows], half_dcd, out=right[rows])
        right[rows] -= gram_into(z[rows], model.holdout_z, model.z_params, out, tmp) @ u_d
    return left, right


def centered_from_factors(batch_y, batch_z, y_params: KernelParams,
                          z_params: KernelParams, left: np.ndarray,
                          right: np.ndarray) -> np.ndarray:
    """K_yy o (K_zz + T + T^T), (B, B), with T = left right^T.

    The factors come from cross_factors (exact holdout regression) or from
    random feature products (circe.rff); each has one row per batch point.
    T + T^T stands for the holdout cross terms Q - P - P^T.
    """
    k_yy = gram(batch_y, batch_y, y_params)
    matrix = gram(batch_z, batch_z, z_params)
    cross = left @ right.T
    matrix += cross
    matrix += cross.T
    matrix *= k_yy
    return matrix


def centered_gram(batch_y, batch_z, model: CmeModel,
                  y_params: KernelParams, z_params: KernelParams) -> np.ndarray:
    """Centered joint Gram of a batch against a fitted embedding model.

    With W1 = (K_YY + lam I)^{-1} and W2 = W1 K_ZZ W1 over the holdout,
    both taken on the model's kept eigenpairs (see cross_factors for T),
        P = K_yY W1 K_Zz,   Q = K_yY W2 K_Yy,
        result = K_yy o (K_zz - P - P^T + Q) = K_yy o (K_zz + T + T^T).
    The kernel parameters must match the ones the model was fitted with.
    """
    if y_params != model.y_params:
        raise ConfigError(
            f"y kernel mismatch: model fitted with {model.y_params}, got {y_params}"
        )
    if z_params != model.z_params:
        raise ConfigError(
            f"z kernel mismatch: model fitted with {model.z_params}, got {z_params}"
        )
    batch_y = as_points(batch_y)
    batch_z = as_points(batch_z)
    if batch_y.shape[0] != batch_z.shape[0]:
        raise ConfigError(
            f"batch_y has {batch_y.shape[0]} rows, batch_z {batch_z.shape[0]}"
        )
    return centered_from_factors(batch_y, batch_z, y_params, z_params,
                                 *cross_factors(batch_y, batch_z, model))


def _centering_projection(k: np.ndarray) -> np.ndarray:
    """H K H with H = I - (1/B) 1 1^T, as ((K - r) - r^T) + mean(r) with r
    the column means, in one buffer."""
    row = k.mean(axis=0)
    out = k - row[None, :]
    out -= row[:, None]
    out += row.mean()
    return out


def statistic_gradient_coeff(centered: np.ndarray, variant: str) -> np.ndarray:
    """C in the statistic <K_xx, C>, so also d(statistic)/d(K_xx), from the
    (B, B) centered Gram Khat: Khat (plain), Khat with a zero diagonal
    (debiased) or H Khat H (centered), / (B(B-1))."""
    b = centered.shape[0]
    if centered.shape != (b, b) or b < 2:
        raise ConfigError(f"centered Gram must be (B, B) with B >= 2, got {centered.shape}")
    scale = 1.0 / (b * (b - 1))
    if variant == "centered":
        out = _centering_projection(centered)
        out *= scale
        return out
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    out = centered * scale
    if variant == "debiased":
        np.fill_diagonal(out, 0.0)
    return out


def circe_statistic(k_xx: np.ndarray, centered: np.ndarray, variant: str) -> CirceEstimate:
    """Statistic <K_xx, C> on a batch, C from statistic_gradient_coeff; the
    estimate carries C for gram_backprop."""
    k_xx = np.asarray(k_xx, dtype=np.float64)
    if k_xx.shape != centered.shape:
        raise ConfigError(f"k_xx shape {k_xx.shape} does not match the centered "
                          f"Gram's {centered.shape}")
    coeff = statistic_gradient_coeff(centered, variant)
    return CirceEstimate(value=float(np.vdot(k_xx, coeff)), coeff=coeff)


def circe_oracle(batch_x_feats, batch_y, batch_z, analytic_mu,
                 x_params: KernelParams, y_params: KernelParams,
                 z_params: KernelParams, variant: str) -> CirceEstimate:
    """Statistic with the true conditional embedding supplied analytically.

    analytic_mu(batch_y) must return (anchors, weights) with anchors (P, d_z)
    and weights (B, P) such that mu(y_i) = sum_p weights[i, p] psi(anchors[p]).
    Used as the reference the regression-based estimator is tested against.
    """
    batch_x_feats = as_points(batch_x_feats)
    batch_y = as_points(batch_y)
    batch_z = as_points(batch_z)
    b = batch_y.shape[0]
    if batch_x_feats.shape[0] != b or batch_z.shape[0] != b:
        raise ConfigError("batch arrays must share the leading dimension")

    anchors, weights = analytic_mu(batch_y)
    anchors = as_points(anchors)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (b, anchors.shape[0]):
        raise ConfigError(
            f"weights shape {weights.shape} does not match "
            f"(batch={b}, anchors={anchors.shape[0]})"
        )

    k_yy = gram(batch_y, batch_y, y_params)
    k_zz = gram(batch_z, batch_z, z_params)
    k_zA = gram(batch_z, anchors, z_params)
    k_AA = gram(anchors, anchors, z_params)

    cross = k_zA @ weights.T
    inner = k_zz - cross - cross.T + weights @ k_AA @ weights.T
    k_xx = gram(batch_x_feats, batch_x_feats, x_params)
    return circe_statistic(k_xx, k_yy * inner, variant)
