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
from .kernels import KernelParams, as_points, gram

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
    T = L S^T. Row i of both factors is a function of point i alone, so a
    batch of rows is a row gather. Bitwise, a row also depends on the row
    count of its block: OpenBLAS takes a small-matrix dgemm kernel for
    products of at most about 1e6 multiply-adds (rows x M x r), and at some
    ranks r it rounds rows differently from the blocked kernel.

    Rows are filled in blocks of FACTOR_BLOCK_ROWS, each with its own y and
    z Grams, so no full (n, M) Gram temporary is alive.
    """
    y = as_points(y)
    z = as_points(z)
    n = y.shape[0]
    d = 1.0 / (model.s + model.lam)
    u_d = model.u * d
    half_dcd = 0.5 * (d[:, None] * model.c * d)
    left, right = np.empty((n, model.rank)), np.empty((n, model.rank))
    for start in range(0, n, FACTOR_BLOCK_ROWS):
        rows = slice(start, start + FACTOR_BLOCK_ROWS)
        np.matmul(gram(y[rows], model.holdout_y, model.y_params), model.u, out=left[rows])
        np.matmul(left[rows], half_dcd, out=right[rows])
        right[rows] -= gram(z[rows], model.holdout_z, model.z_params) @ u_d
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
