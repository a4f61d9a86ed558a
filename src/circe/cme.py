"""Conditional mean embedding fit by kernel ridge regression, with closed-form
leave-one-out model selection.

The embedding of Z given Y is estimated from a holdout set of (y, z) pairs:
mu(y) = sum_j beta_j(y) psi(z_j) with beta(y) = (K_YY + lam I)^{-1} k_Y(y).
The fit keeps the numerically nonzero part of the spectrum of K_YY. A greedy
pivoted Cholesky factor K_YY ~ G G^T of width k (kernels.pivoted_cholesky,
which reads only the diagonal and the k pivot rows of K_YY) finds that part
in O(M k^2), and an eigh of the small k x k Gram G^T G gives its eigenpairs.
K_ZZ ~ G_z G_z^T is factored the same way, once per fit or grid, and enters
only through G_z^T u. Neither factor gives up, so neither M x M Gram is ever
formed. The leave-one-out error of every lam has a closed form in the same
eigenpairs and never refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BAD_NPZ_ERRORS, ConfigError, NumericalError
from .kernels import KernelParams, as_points, pivoted_cholesky

LOO_DIAG_GUARD = 1e-10
# eigenpairs of K_YY at or below this fraction of the largest eigenvalue are
# dropped from the fit: at M = 1000 they are roundoff of a low-rank Gram
RANK_CUT = 1e-12

DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_SIGMA2_Y_GRID = (0.001, 0.01, 0.1, 1.0)


@dataclass(frozen=True)
class CmeModel:
    """Fitted embedding regression, kept as the truncated spectrum of K_YY.

    K_YY ~ u diag(s) u^T over the r eigenpairs above RANK_CUT times the
    largest eigenvalue, and c = u^T K_ZZ u. With D = diag(1 / (s + lam)) the
    regression weights on the kept subspace are W1 = u D u^T, and
    W2 = W1 K_ZZ W1 = u D c D u^T; the discarded eigenpairs are roundoff of a
    numerically low-rank Gram. Frozen, so one object is one fit.

    _slot is a per-object cache for the trainer. It starts empty, also in a
    copy made by dataclasses.replace and in a loaded model, and takes no
    part in comparison.
    """

    holdout_y: np.ndarray
    holdout_z: np.ndarray
    lam: float
    y_params: KernelParams
    z_params: KernelParams
    u: np.ndarray
    s: np.ndarray
    c: np.ndarray
    _slot: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    @property
    def n_holdout(self) -> int:
        return self.holdout_y.shape[0]

    @property
    def rank(self) -> int:
        return self.s.shape[0]


@dataclass
class LooReport:
    """Grid search record. Entries follow the (lam outer, sigma2_y inner) order.

    factor_widths[j] is the width of the K_YY factor at sigma2_y grid value
    j, and ranks[j] the number of its eigenpairs the rank cut kept.
    z_factor_width is the width of the one factor of K_ZZ that every
    bandwidth shared. Every width is at least 1 and at most M.
    """

    lams: np.ndarray
    sigma2_ys: np.ndarray
    errors: np.ndarray
    best_lam: float
    best_sigma2_y: float
    best_error: float
    ranks: np.ndarray
    factor_widths: np.ndarray
    z_factor_width: int

    def as_rows(self):
        return list(zip(self.lams, self.sigma2_ys, self.errors))

    def bandwidth_rows(self):
        """(sigma2_y, factor width, kept rank) per grid bandwidth."""
        grid = self.sigma2_ys[:len(self.ranks)]
        return list(zip(grid, self.factor_widths, self.ranks))


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


def _check_lams(lams, name: str = "lambda") -> np.ndarray:
    lams = np.asarray(lams, dtype=np.float64)
    if np.any(~np.isfinite(lams) | (lams <= 0)):
        raise ConfigError(f"{name} values must be positive and finite, got {lams.tolist()}")
    return lams


def _holdout_factor(points, params: KernelParams) -> np.ndarray:
    """Pivoted Cholesky factor G^T (width, M) of a holdout Gram. It stops at
    a tenth of RANK_CUT times the largest diagonal, below every eigenvalue
    the cut keeps, and never gives up, so a near full-rank Gram takes a
    factor up to M wide."""
    return pivoted_cholesky(points, params, 0.1 * RANK_CUT, None)


def _spectrum(holdout_y, y_params: KernelParams, gz: np.ndarray):
    """Truncated eigendecomposition of K_YY with K_ZZ projected onto it.

    The pivoted Cholesky factor G runs on the labels themselves and computes
    only the k pivot rows of K_YY it reads. G^T G has the nonzero
    eigenvalues of G G^T, so with G^T G = V diag(s) V^T the eigenvectors of
    K_YY are G V diag(s)^{-1/2}: a k x k eigh and two M k^2 products. Those
    columns are orthonormal only to about 1e-5 in the smallest kept
    directions (s near RANK_CUT times the largest). The factor and the
    eigenvectors V are freed once u is formed. K_ZZ comes factored as
    G_z G_z^T, gz = G_z^T (r_z, M): c = p^T p with p = G_z^T u costs
    M r r_z + r_z r^2, and K_ZZ u = G_z p is left to _loo_errors, which alone
    needs it.
    Returns (s, u, c, p, width): the r eigenvalues above RANK_CUT times the
    largest, their eigenvectors u (M, r), the symmetric c = u^T K_ZZ u,
    p (r_z, r), and the factor's width.
    """
    g = _holdout_factor(holdout_y, y_params)
    width = g.shape[0]
    try:
        s, v = np.linalg.eigh(g @ g.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of K_YY failed: {exc}") from None
    if not np.all(np.isfinite(s)):
        raise NumericalError("K_YY has non-finite eigenvalues")
    # eigh sorts ascending, so the kept eigenpairs are the last r
    cut = int(np.searchsorted(s, RANK_CUT * s[-1], side="right"))
    s = s[cut:].copy()
    # g is G^T, so the eigenvectors of G G^T are g.T v / sqrt(s)
    u = g.T @ v[:, cut:]
    del g, v
    u /= np.sqrt(s)
    p = gz @ u
    c = p.T @ p
    return s, u, c, p, width


def fit_cme(holdout_y, holdout_z, lam: float, y_params: KernelParams,
            z_params: KernelParams) -> CmeModel:
    """Fit the embedding regression on a holdout set: the spectrum of K_YY,
    truncated at RANK_CUT."""
    lam = float(_check_lams([lam])[0])
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)
    s, u, c, _, _ = _spectrum(holdout_y, y_params, _holdout_factor(holdout_z, z_params))
    return CmeModel(holdout_y, holdout_z, lam, y_params, z_params, u, s, c)


def _loo_errors(s, u, p, gz: np.ndarray, lams):
    """Leave-one-out errors of every lam in lams from one truncated spectrum.

    With K_YY = U diag(s) U^T and d = s / (s + lam), the hat matrix is
    A = U diag(d) U^T = W U^T with W = U diag(d). With K_ZZ ~ G_z G_z^T,
    gz = G_z^T and p = G_z^T U,
        diag(A) = (U o U) d,
        diag(A K_ZZ) = (U o G_z p) d,
        diag(A K_ZZ A^T) = rowsum((W p^T)^2),
    so each lam costs one M r r_z product over the r kept eigenpairs; a
    discarded eigenvalue would contribute d below RANK_CUT s_max / lam
    (Rifkin & Lippert 2007). diag(K_ZZ) is the Gaussian kernel's exact 1.
    K_ZZ U, U o K_ZZ U, U o U and every lam's W are written in turn into one
    (M, r) scratch array, so besides U the grid holds one M x r working set
    and K_ZZ U is gone once its d-product is taken.
    """
    d = s[:, None] / (s[:, None] + lams[None, :])
    work = np.empty_like(u)
    np.matmul(gz.T, p, out=work)
    np.multiply(u, work, out=work)
    diag_ak = work @ d
    diag_a = np.multiply(u, u, out=work) @ d
    errors = np.empty(len(lams))
    for j in range(len(lams)):
        denom = 1.0 - diag_a[:, j]
        if np.any(denom <= LOO_DIAG_GUARD):
            errors[j] = math.inf
            continue
        wp = np.multiply(u, d[:, j], out=work) @ p.T
        quad = np.einsum("ij,ij->i", wp, wp)
        resid = 1.0 - 2.0 * diag_ak[:, j] + quad
        np.maximum(resid, 0.0, out=resid)
        errors[j] = np.mean(resid / denom**2)
    return errors


def loo_error(holdout_y, holdout_z, lam: float, y_params: KernelParams,
              z_params: KernelParams) -> float:
    """Mean leave-one-out embedding error of the ridge fit, without refitting.

    With A = K_YY (K_YY + lam I)^{-1} and alpha_i the i-th row of A, the held-out
    residual for point i is
        ||psi(z_i) - F_{-i}(y_i)||^2 = r_i / (1 - A_ii)^2,
        r_i = k(z_i, z_i) - 2 (A K_ZZ)_ii + (A K_ZZ A^T)_ii.
    Returns +inf when any 1 - A_ii falls below the diagonal guard.
    """
    lams = _check_lams([lam])
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)
    gz = _holdout_factor(holdout_z, z_params)
    s, u, _, p, _ = _spectrum(holdout_y, y_params, gz)
    return float(_loo_errors(s, u, p, gz, lams)[0])


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
    factored once, and one truncated spectrum of K_YY per sigma2_y scores
    the whole lambda grid. Only the leading bandwidth's spectrum is kept,
    and the winner is built from it. Every bandwidth takes the same
    _spectrum as fit_cme, both factors included, so the winner is bitwise
    equal to fit_cme at its parameters whenever both run on the same BLAS
    thread count.
    """
    lambda_grid = [float(v) for v in lambda_grid]
    sigma2_y_grid = [float(v) for v in sigma2_y_grid]
    if not lambda_grid or not sigma2_y_grid:
        raise ConfigError("hyperparameter grids must be non-empty")
    lams = _check_lams(lambda_grid)
    y_params = [KernelParams(sigma2=s2) for s2 in sigma2_y_grid]
    holdout_y, holdout_z = _check_holdout(holdout_y, holdout_z)

    gz = _holdout_factor(holdout_z, z_params)
    errors = np.empty((len(lambda_grid), len(sigma2_y_grid)))
    ranks = np.empty(len(sigma2_y_grid), dtype=np.int64)
    widths = np.empty(len(sigma2_y_grid), dtype=np.int64)
    best = best_spectrum = None
    for j, (s2, params) in enumerate(zip(sigma2_y_grid, y_params)):
        s, u, c, p, widths[j] = _spectrum(holdout_y, params, gz)
        ranks[j] = s.shape[0]
        errors[:, j] = _loo_errors(s, u, p, gz, lams)
        for i, lam in enumerate(lambda_grid):
            err = float(errors[i, j])
            if math.isfinite(err) and _better(err, lam, s2, best):
                best = (err, lam, s2)
                best_spectrum = (u, s, c)
        # the next spectrum is the grid's peak: hold only the best one there
        del s, u, c, p

    if best is None:
        raise ConfigError("all grid points produced non-finite leave-one-out error")
    b_err, b_lam, b_s2 = best
    report = LooReport(np.repeat(lambda_grid, len(sigma2_y_grid)),
                       np.tile(sigma2_y_grid, len(lambda_grid)),
                       errors.ravel(), b_lam, b_s2, b_err, ranks, widths,
                       gz.shape[0])
    model = CmeModel(holdout_y, holdout_z, b_lam, KernelParams(sigma2=b_s2), z_params,
                     *best_spectrum)
    return model, report


MODEL_SCHEMA_VERSION = 2


def save_cme(model: CmeModel, path) -> None:
    np.savez(
        path,
        schema_version=MODEL_SCHEMA_VERSION,
        holdout_y=model.holdout_y,
        holdout_z=model.holdout_z,
        lam=model.lam,
        sigma2_y=model.y_params.sigma2,
        sigma2_z=model.z_params.sigma2,
        u=model.u,
        s=model.s,
        c=model.c,
    )


def load_cme(path) -> CmeModel:
    """The model save_cme wrote to path; ConfigError naming path for any
    other file, one of another schema version or with a holdout, lam or
    spectrum fit_cme could not have made among them."""
    try:
        with np.load(path) as data:
            version = int(data["schema_version"])
            if version != MODEL_SCHEMA_VERSION:
                raise ConfigError(
                    f"model schema version {version} is not {MODEL_SCHEMA_VERSION}; "
                    "refit the model with `circe fit-cme`"
                )
            holdout_y, holdout_z = _check_holdout(data["holdout_y"], data["holdout_z"])
            lam = float(_check_lams([data["lam"]])[0])
            u, s, c = data["u"], data["s"], data["c"]
            m = holdout_y.shape[0]
            if u.ndim != 2 or u.shape[0] != m:
                raise ConfigError(f"u has shape {u.shape}, expected ({m}, r)")
            r = u.shape[1]
            for name, arr, shape in (("s", s, (r,)), ("c", c, (r, r))):
                if arr.shape != shape:
                    raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
            for name, arr in (("holdout_y", holdout_y), ("holdout_z", holdout_z),
                              ("u", u), ("s", s), ("c", c)):
                if not np.isfinite(arr).all():
                    raise ConfigError(f"{name} has a non-finite entry")
            if np.any(s <= 0):
                raise ConfigError(f"s must be positive, got minimum {s.min()}")
            return CmeModel(holdout_y, holdout_z, lam,
                            KernelParams(sigma2=float(data["sigma2_y"])),
                            KernelParams(sigma2=float(data["sigma2_z"])), u, s, c)
    except BAD_NPZ_ERRORS as exc:
        raise ConfigError(f"cannot load embedding model {path}: {exc}") from exc
