"""Conditional mean embedding fit by kernel ridge regression, with closed-form
leave-one-out model selection.

The embedding of Z given Y is estimated from a holdout set of (y, z) pairs:
mu(y) = sum_j beta_j(y) psi(z_j) with beta(y) = (K_YY + lam I)^{-1} k_Y(y).
The leave-one-out error of the fit has a closed form and never refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, NumericalError
from .kernels import KernelParams, as_points, gram, regularized_solve

LOO_DIAG_GUARD = 1e-10

DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_SIGMA2_Y_GRID = (0.001, 0.01, 0.1, 1.0)


@dataclass
class CmeModel:
    """Fitted embedding regression. w1 = (K_YY + lam I)^{-1}, w2 = w1 K_ZZ w1."""

    holdout_y: np.ndarray
    holdout_z: np.ndarray
    lam: float
    y_params: KernelParams
    z_params: KernelParams
    w1: np.ndarray
    w2: np.ndarray

    @property
    def n_holdout(self) -> int:
        return self.holdout_y.shape[0]


@dataclass
class LooReport:
    """Grid search record. Entries follow the (lam outer, sigma2_y inner) order.

    floored_eigs[j] counts the negative eigenvalues of K_YY at sigma2_ys grid
    value j that were clamped to 0 before scoring (roundoff on a numerically
    low-rank Gram, or an exactly singular one from duplicated y rows).
    """

    lams: np.ndarray
    sigma2_ys: np.ndarray
    errors: np.ndarray
    best_lam: float
    best_sigma2_y: float
    best_error: float
    floored_eigs: np.ndarray

    def as_rows(self):
        return list(zip(self.lams, self.sigma2_ys, self.errors))

    def floor_rows(self):
        """(sigma2_y, number of clamped eigenvalues) per grid bandwidth."""
        grid = self.sigma2_ys[:len(self.floored_eigs)]
        return list(zip(grid, self.floored_eigs))


def _check_holdout(holdout_y, holdout_z):
    holdout_y = as_points(holdout_y)
    holdout_z = as_points(holdout_z)
    if holdout_y.shape[0] != holdout_z.shape[0]:
        raise ConfigError(
            f"holdout_y has {holdout_y.shape[0]} rows, holdout_z {holdout_z.shape[0]}"
        )
    m = holdout_y.shape[0]
    if m < 2:
        raise ConfigError(f"need at least 2 holdout points, got {m}")
    return holdout_y, holdout_z


def fit_cme(holdout_y, holdout_z, lam: float, y_params: KernelParams,
            z_params: KernelParams) -> CmeModel:
    """Fit the embedding regression weights on a holdout set."""
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)
    m = holdout_y.shape[0]
    k_yy = gram(holdout_y, holdout_y, y_params)
    k_zz = gram(holdout_z, holdout_z, z_params)
    w1 = regularized_solve(k_yy, lam, np.eye(m))
    w1 = 0.5 * (w1 + w1.T)
    w2 = w1 @ k_zz @ w1
    w2 = 0.5 * (w2 + w2.T)
    return CmeModel(holdout_y, holdout_z, float(lam), y_params, z_params, w1, w2)


def _loo_errors(holdout_y, k_zz, lams, y_params: KernelParams):
    """Leave-one-out errors of every lam in lams from one eigendecomposition.

    With K_YY = U diag(s) U^T and d = s / (s + lam), the hat matrix is
    A = U diag(d) U^T = W U^T with W = U diag(d). Then
        diag(A) = (U o U) d,
        diag(A K_ZZ) = (U o K_ZZ U) d,
        diag(A K_ZZ A^T) = rowsum((W C) o W),  C = U^T K_ZZ U,
    so each lam costs one M^3 product. Negative eigenvalues, which a PSD
    Gram has only through roundoff, are clamped to 0 (Rifkin & Lippert 2007).
    Returns (errors, number of clamped eigenvalues).
    """
    lams = np.asarray(lams, dtype=np.float64)
    if np.any(~np.isfinite(lams) | (lams <= 0)):
        raise ConfigError(f"lambda values must be positive and finite, got {lams.tolist()}")
    k_yy = gram(holdout_y, holdout_y, y_params)
    try:
        s, u = np.linalg.eigh(k_yy)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of K_YY failed: {exc}") from None
    del k_yy
    if not np.all(np.isfinite(s)):
        raise NumericalError("K_YY has non-finite eigenvalues")
    n_floored = int(np.count_nonzero(s < 0.0))
    np.maximum(s, 0.0, out=s)
    ku = k_zz @ u
    c = u.T @ ku
    d = s[:, None] / (s[:, None] + lams[None, :])
    diag_a = (u * u) @ d
    diag_ak = (u * ku) @ d
    del ku
    k_zz_diag = np.diag(k_zz)
    errors = np.empty(len(lams))
    for j in range(len(lams)):
        denom = 1.0 - diag_a[:, j]
        if np.any(denom <= LOO_DIAG_GUARD):
            errors[j] = math.inf
            continue
        w = u * d[:, j]
        resid = k_zz_diag - 2.0 * diag_ak[:, j] + np.einsum("ij,ij->i", w @ c, w)
        np.maximum(resid, 0.0, out=resid)
        errors[j] = np.mean(resid / denom**2)
    return errors, n_floored


def loo_error(holdout_y, holdout_z, lam: float, y_params: KernelParams,
              z_params: KernelParams) -> float:
    """Mean leave-one-out embedding error of the ridge fit, without refitting.

    With A = K_YY (K_YY + lam I)^{-1} and alpha_i the i-th row of A, the held-out
    residual for point i is
        ||psi(z_i) - F_{-i}(y_i)||^2 = r_i / (1 - A_ii)^2,
        r_i = k(z_i, z_i) - 2 (A K_ZZ)_ii + (A K_ZZ A^T)_ii.
    Returns +inf when any 1 - A_ii falls below the diagonal guard.
    """
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)
    k_zz = gram(holdout_z, holdout_z, z_params)
    errors, _ = _loo_errors(holdout_y, k_zz, [lam], y_params)
    return float(errors[0])


def _better(err, lam, s2, best):
    """Smaller error wins; exact ties prefer larger lam, then larger sigma2_y."""
    if best is None:
        return True
    b_err, b_lam, b_s2 = best
    if err < b_err:
        return True
    if err == b_err:
        if lam > b_lam:
            return True
        if lam == b_lam and s2 > b_s2:
            return True
    return False


def select_hyperparams(holdout_y, holdout_z,
                       lambda_grid=DEFAULT_LAMBDA_GRID,
                       sigma2_y_grid=DEFAULT_SIGMA2_Y_GRID,
                       z_params: KernelParams = KernelParams(sigma2=1.0),
                       ) -> tuple[CmeModel, LooReport]:
    """Grid-search (lam, sigma2_y) by leave-one-out error and fit the winner.

    The z-kernel bandwidth is fixed by the caller and not searched. K_ZZ is
    built once, and one eigendecomposition of K_YY per sigma2_y scores the
    whole lambda grid.
    """
    lambda_grid = [float(v) for v in lambda_grid]
    sigma2_y_grid = [float(v) for v in sigma2_y_grid]
    if not lambda_grid or not sigma2_y_grid:
        raise ConfigError("hyperparameter grids must be non-empty")
    y_params = [KernelParams(sigma2=s2) for s2 in sigma2_y_grid]
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)

    k_zz = gram(holdout_z, holdout_z, z_params)
    errors = np.empty((len(lambda_grid), len(sigma2_y_grid)))
    floored = np.empty(len(sigma2_y_grid), dtype=np.int64)
    for j, params in enumerate(y_params):
        errors[:, j], floored[j] = _loo_errors(holdout_y, k_zz, lambda_grid, params)
    del k_zz

    best = None
    for i, lam in enumerate(lambda_grid):
        for j, s2 in enumerate(sigma2_y_grid):
            err = float(errors[i, j])
            if math.isfinite(err) and _better(err, lam, s2, best):
                best = (err, lam, s2)

    if best is None:
        raise ConfigError("all grid points produced non-finite leave-one-out error")
    b_err, b_lam, b_s2 = best
    report = LooReport(np.repeat(lambda_grid, len(sigma2_y_grid)),
                       np.tile(sigma2_y_grid, len(lambda_grid)),
                       errors.ravel(), b_lam, b_s2, b_err, floored)
    model = fit_cme(holdout_y, holdout_z, b_lam, KernelParams(sigma2=b_s2), z_params)
    return model, report


def save_cme(model: CmeModel, path) -> None:
    np.savez(
        path,
        schema_version=1,
        holdout_y=model.holdout_y,
        holdout_z=model.holdout_z,
        lam=model.lam,
        sigma2_y=model.y_params.sigma2,
        sigma2_z=model.z_params.sigma2,
        w1=model.w1,
        w2=model.w2,
    )


def load_cme(path) -> CmeModel:
    with np.load(path) as data:
        if int(data["schema_version"]) != 1:
            raise ConfigError(f"unknown model schema {data['schema_version']}")
        return CmeModel(
            holdout_y=data["holdout_y"],
            holdout_z=data["holdout_z"],
            lam=float(data["lam"]),
            y_params=KernelParams(sigma2=float(data["sigma2_y"])),
            z_params=KernelParams(sigma2=float(data["sigma2_z"])),
            w1=data["w1"],
            w2=data["w2"],
        )
