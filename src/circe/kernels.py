"""Gaussian kernel primitives, Gram matrices, regularized SPD solves, and a
greedy pivoted Cholesky factor of numerically low-rank Grams that computes
only the Gram rows it pivots on.

All arrays are float64. The bandwidth parameter is the variance sigma2 in
k(x, x') = exp(-||x - x'||^2 / (2 * sigma2)); it is always set explicitly,
never from a data heuristic. Squared distances of one-column points come
from direct differences and of wider points from the norm expansion (see
squared_distances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericalError

JITTER_START = 1e-10
JITTER_CAP = 1e-4
RESIDUAL_TOL = 1e-8
# a pivoted Cholesky factor gives up at its checkpoint column while the
# pivot is still above this fraction of the largest diagonal. On the SCM
# cases' Gaussian batch Grams at B = 256, the factors that finish were below
# 1e-5 at B/8 and those that fail above 1e-2
FACTOR_GIVE_UP = 1e-4


@dataclass(frozen=True)
class KernelParams:
    """Parameters of a Gaussian kernel. sigma2 is the squared bandwidth."""

    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")


def as_points(x) -> np.ndarray:
    """Coerce to a float64 (n, d) point array; 1-d input becomes a column."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ConfigError(f"expected 1-d or 2-d point array, got shape {x.shape}")
    return x


def squared_distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||rows[i] - cols[j]||^2, (n_rows, n_cols).

    One-column points take (r_i - c_j)^2 directly: one outer difference,
    squared in place, never negative and exactly 0 on duplicated points.
    Wider points take (r2 + c2) - 2 rows cols^T, whose GEMM beats the
    per-column differences from two columns up.
    """
    rows = as_points(rows)
    cols = as_points(cols)
    if rows.shape[1] != cols.shape[1]:
        raise ConfigError(
            f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]} columns"
        )
    if rows.shape[1] == 1:
        d2 = np.subtract.outer(rows[:, 0], cols[:, 0])
        d2 *= d2
        return d2
    r2 = np.sum(rows * rows, axis=1)[:, None]
    c2 = np.sum(cols * cols, axis=1)[None, :]
    # (r2 + c2) - 2 (rows cols^T), in that order
    d2 = r2 + c2
    cross = rows @ cols.T
    cross *= 2.0
    d2 -= cross
    # roundoff can leave tiny negatives on near-duplicate points
    np.maximum(d2, 0.0, out=d2)
    return d2


def gram(rows, cols, params: KernelParams) -> np.ndarray:
    """Gram matrix K[i, j] = k(rows[i], cols[j]), built in the distance buffer.

    d2 / (-2 sigma2) is bitwise -d2 / (2 sigma2): IEEE division is exact in
    the sign.
    """
    d2 = squared_distances(rows, cols)
    np.divide(d2, -2.0 * params.sigma2, out=d2)
    return np.exp(d2, out=d2)


def ridge_system(K: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(K + lam I, the matrix its solves factor) for symmetric PSD K.

    A Cholesky factorization tests definiteness, with jitter escalating
    tenfold from JITTER_START * mean(diag) up to JITTER_CAP * mean(diag)
    while it fails; past the cap it raises NumericalError. The second matrix
    is K + lam I plus the jitter that passed, so a caller with several
    right-hand sides at different times runs this search once.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ConfigError(f"K must be square, got shape {K.shape}")
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"lam must be positive and finite, got {lam}")

    n = K.shape[0]
    A = K + lam * np.eye(n)
    mean_diag = float(np.mean(np.diag(K)))
    if mean_diag <= 0:
        mean_diag = 1.0

    jitter = 0.0
    jittered = A
    while True:
        try:
            np.linalg.cholesky(jittered)
            return A, jittered
        except np.linalg.LinAlgError:
            jitter = JITTER_START * mean_diag if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CAP * mean_diag * (1 + 1e-12):
                raise NumericalError(
                    f"Cholesky failed at jitter cap {JITTER_CAP * mean_diag:.3e}"
                ) from None
            jittered = A + jitter * np.eye(n)


def ridge_solve(system: tuple[np.ndarray, np.ndarray], B: np.ndarray) -> np.ndarray:
    """Solve (K + lam I) S = B on a ridge_system: an LU solve of its jittered
    matrix, then a relative residual against K + lam I above RESIDUAL_TOL
    raises NumericalError."""
    A, jittered = system
    B = np.asarray(B, dtype=np.float64)
    if B.shape[0] != A.shape[0]:
        raise ConfigError(f"B has {B.shape[0]} rows, K is {A.shape[0]}x{A.shape[0]}")
    return _checked_solve(A, jittered, B)


def _checked_solve(A: np.ndarray, factored: np.ndarray, B: np.ndarray) -> np.ndarray:
    """LU solve of factored S = B; a relative residual against A that is not
    finite or exceeds RESIDUAL_TOL raises NumericalError."""
    try:
        S = np.linalg.solve(factored, B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"solve failed: {exc}") from None
    b_norm = float(np.linalg.norm(B))
    residual = float(np.linalg.norm(A @ S - B)) / max(b_norm, np.finfo(np.float64).tiny)
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise NumericalError(f"solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return S


def regularized_solve(K: np.ndarray, lam: float, B: np.ndarray) -> np.ndarray:
    """Solve (K + lam I) S = B for symmetric PSD K on numpy's LAPACK: the
    jitter search of ridge_system, then ridge_solve.

    No scipy solver: scipy's bundled OpenBLAS thread pool contends with
    numpy's for the cores, and a 256-row HSCIC step on two cores took
    70-104 ms with scipy's Cholesky solve against 26-33 ms on numpy alone.
    """
    return ridge_solve(ridge_system(K, lam), B)


def pivoted_cholesky(points, params: KernelParams, stop: float,
                     checkpoint: int | None) -> np.ndarray | None:
    """Greedy pivoted Cholesky K ~ G G^T of the Gaussian Gram K of `points`;
    returns G^T, (r, n), an array that owns exactly its r rows.

    Each step takes the largest residual diagonal as its pivot and ends the
    factor once that diagonal falls to `stop` (Harbrecht, Peters & Schneider
    2012), so a numerically low-rank K costs O(n r^2). With an integer
    `checkpoint` it returns None when the factor would need n/2 columns or
    more, one that wide being no cheaper than a dense factorization, also at
    column `checkpoint` while the pivot is still above FACTOR_GIVE_UP. K's
    diagonal is 1, so both are absolute. With checkpoint None it never gives
    up: its (n-1)/2-row buffer grows to n rows for a factor that needs them,
    and n columns end any factor.

    The factor reads only that diagonal and the rows of its pivots, each
    computed when its pivot is taken: from direct differences on one-column
    points, bitwise row p of gram(points, points, params), and from the norm
    expansion on wider points, with the norms summed once. K itself is
    never formed.
    """
    points = as_points(points)
    n = points.shape[0]
    d = np.ones(n)
    limit = (n - 1) // 2
    g = np.empty((limit, n))
    # one scratch row for every step: at n = 256 a column costs a few
    # microseconds, so fresh temporaries are a fifth of it
    tmp = np.empty(n)
    tiny = np.empty(n, dtype=bool)
    scale = -2.0 * params.sigma2
    column = points[:, 0] if points.shape[1] == 1 else None
    if column is None:
        norms = np.sum(points * points, axis=1)
        # 2 rows cols^T is exactly (2 rows) cols^T: scaling by 2 is exact
        twice = 2.0 * points
    for j in range(n):
        p = int(d.argmax())
        pivot = d[p]
        if pivot <= stop:
            # shrink the buffer to the j rows written, so the factor owns no
            # more than itself; no view of g may outlive the resize
            row = None
            g.resize((j, n), refcheck=False)
            return g
        if j == limit:
            if checkpoint is not None:
                return None
            g.resize((n, n), refcheck=False)
        elif j == checkpoint and pivot > FACTOR_GIVE_UP:
            return None
        row = g[j]
        # row p of K in the row itself, in the operation order of gram
        if column is not None:
            np.subtract(column[p], column, out=row)
            row *= row
        else:
            np.add(norms[p], norms, out=row)
            row -= np.matmul(twice, points[p], out=tmp)
            np.maximum(row, 0.0, out=row)
        np.divide(row, scale, out=row)
        np.exp(row, out=row)
        row -= np.matmul(g[:j, p], g[:j], out=tmp)
        row /= math.sqrt(pivot)
        # products of entries this small are subnormal, and subnormal
        # arithmetic is several times slower; they are far below stop
        np.less(np.abs(row, out=tmp), 1e-150, out=tiny)
        row[tiny] = 0.0
        d -= np.multiply(row, row, out=tmp)
    return g


def ridge_factor(gt: np.ndarray, lam: float) -> np.ndarray:
    """F^T = (G^T G + lam I)^-1 G^T for a factor K ~ G G^T given as G^T, (r, n).

    By the push-through identity (K + lam I)^-1 K ~ F G^T and
    lam (K + lam I)^-1 ~ I - F G^T, so ridge regressions on K cost this one
    r x r solve instead of an n x n factorization. The solve is checked
    against G^T G + lam I as ridge_solve checks its own.
    """
    small = gt @ gt.T
    small.flat[::small.shape[0] + 1] += lam
    return _checked_solve(small, small, gt)


def gram_backprop(coeff: np.ndarray, points: np.ndarray, K: np.ndarray, sigma2: float) -> np.ndarray:
    """Gradient of sum_ij coeff[i, j] * k(p_i, p_j) with respect to the points.

    coeff need not be symmetric; K must be the Gaussian Gram of the points at
    bandwidth sigma2. Uses dk(p_i, p_j)/dp_i = ((p_j - p_i) / sigma2) * k.
    """
    points = as_points(points)
    S = coeff + coeff.T
    S *= K
    grad = S @ points
    grad -= np.sum(S, axis=1)[:, None] * points
    grad /= sigma2
    return grad
