"""Synthetic structural causal models with retained exogenous noise.

Each generator keeps the noise draws it used, so interventions on Z can
regenerate every descendant through the same structural equations. The
causal layout is Y -> Z -> A -> B with additional edges from Y and Z into
A and B; the regression task is to predict B from (A, Y, Z).

EQUATIONS maps each case id to its equations (y, z, noises) -> (a, b), and
is the one place that decides them: gen_scm draws (y, z) and the noises and
calls it, and regenerate calls it again with z replaced.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError

SCM_CASES = ("uni1", "uni2", "multi1", "multi2")
EVAL_FRAC = 0.2  # share of make_dataset's rows held out for evaluation


@dataclass
class ScmBatch:
    """Raw (unstandardized) draws plus the exogenous noises behind them."""

    case_id: str
    a: np.ndarray
    b: np.ndarray
    y: np.ndarray
    z: np.ndarray
    noises: dict

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _col(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1, 1)


def _noise_std(var: float) -> float:
    # N(0, v) is read as variance v throughout
    return float(np.sqrt(var))


def _uni1_equations(y, z, noises):
    a = 0.5 * z * noises["eps_a"] + 2.0 * y
    b = 0.5 * np.exp(-a * y) * np.sin(2.0 * a * y) + 5.0 * z + 0.2 * noises["eps_b"]
    return a, b


def _uni2_equations(y, z, noises):
    a = np.exp(-0.5 * z**2) * np.sin(2.0 * z) + 2.0 * y + 0.2 * noises["eps_a"]
    b = np.sin(2.0 * a * y) * np.exp(-0.5 * a * y) + 5.0 * z + 0.2 * noises["eps_b"]
    return a, b


def _multi1_equations(y, z, noises):
    zsum = z.sum(axis=1, keepdims=True)
    a = np.exp(-0.5 * z[:, 0:1]) + zsum * np.sin(y) + 0.1 * noises["eps_a"]
    b = np.exp(-0.5 * z[:, 1:2]) * zsum + a * y + 0.1 * noises["eps_b"]
    return a, b


def _multi2_equations(y, z, noises):
    ysum = y.sum(axis=1, keepdims=True)
    a = np.exp(-0.5 * z) + np.sin(ysum) * z + 0.1 * noises["eps_a"]
    b = np.exp(-0.5 * z) * z + ysum + z + a * y[:, 0:1] + 0.1 * noises["eps_b"]
    return a, b


EQUATIONS = {
    "uni1": _uni1_equations,
    "uni2": _uni2_equations,
    "multi1": _multi1_equations,
    "multi2": _multi2_equations,
}


def check_d(case: str, d: int) -> None:
    """ConfigError unless d >= 2 for a multivariate case; uni cases ignore d."""
    if case not in ("uni1", "uni2") and d < 2:
        raise ConfigError(f"d must be at least 2 for {case}, got {d}")


def gen_scm(case: str, n: int, d: int, seed: int) -> ScmBatch:
    """Draw n samples from one of the four synthetic cases.

    d is the Z dimension for multi1 and the Y dimension for multi2; the
    univariate cases ignore it. Z = ||Y||^2 + eps_z in every case.
    """
    if case not in SCM_CASES:
        raise ConfigError(f"unknown case {case!r}, expected one of {SCM_CASES}")
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    check_d(case, d)
    rng = np.random.default_rng(seed)
    s_small = _noise_std(0.1)
    y = rng.standard_normal((n, d if case == "multi2" else 1))
    eps_z = rng.standard_normal((n, d if case == "multi1" else 1))
    noises = {"eps_z": eps_z,
              "eps_a": _col(rng.normal(0.0, s_small, n)),
              "eps_b": _col(rng.normal(0.0, s_small, n))}
    z = np.sum(y * y, axis=1, keepdims=True) + eps_z
    a, b = EQUATIONS[case](y, z, noises)
    return ScmBatch(case, a, b, y, z, noises)


def regenerate(batch: ScmBatch, z_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (A, B) from stored noises under do(Z = z_new)."""
    z_new = np.asarray(z_new, dtype=np.float64)
    if z_new.shape != batch.z.shape:
        raise ConfigError(f"z_new shape {z_new.shape} does not match {batch.z.shape}")
    if batch.case_id not in EQUATIONS:
        raise ConfigError(f"cannot regenerate case {batch.case_id!r}")
    return EQUATIONS[batch.case_id](batch.y, z_new, batch.noises)


def slice_batch(batch: ScmBatch, idx: np.ndarray) -> ScmBatch:
    return replace(
        batch,
        a=batch.a[idx],
        b=batch.b[idx],
        y=batch.y[idx],
        z=batch.z[idx],
        noises={k: v[idx] for k, v in batch.noises.items()},
    )


class Standardizer:
    """Column-wise zero-mean unit-std maps fit on the training split."""

    def __init__(self, stats: dict):
        self.stats = stats

    @classmethod
    def fit(cls, batch: ScmBatch) -> "Standardizer":
        stats = {}
        for name in ("a", "b", "y", "z"):
            arr = getattr(batch, name)
            mean = arr.mean(axis=0)
            std = arr.std(axis=0)
            std = np.where(std < 1e-12, 1.0, std)
            stats[name] = (mean, std)
        return cls(stats)

    def transform(self, name: str, arr: np.ndarray) -> np.ndarray:
        mean, std = self.stats[name]
        return (arr - mean) / std

    def inputs(self, a, y, z) -> np.ndarray:
        return np.hstack([
            self.transform("a", a),
            self.transform("y", y),
            self.transform("z", z),
        ])

    def batch_inputs(self, batch: ScmBatch) -> np.ndarray:
        return self.inputs(batch.a, batch.y, batch.z)

    def targets(self, batch: ScmBatch) -> np.ndarray:
        return self.transform("b", batch.b)


@dataclass
class Dataset:
    """Train/eval split of one case with the holdout carved from the train end.

    The first m_holdout train rows feed the embedding regression; the
    remaining train rows form mini-batches. Standardization comes from the
    full train split.
    """

    case_id: str
    train: ScmBatch
    eval: ScmBatch
    m_holdout: int
    standardizer: Standardizer

    @property
    def holdout(self) -> ScmBatch:
        return slice_batch(self.train, np.arange(self.m_holdout))

    def fit_pool(self) -> ScmBatch:
        return slice_batch(self.train, np.arange(self.m_holdout, self.train.n))


def check_split(n: int, m_holdout: int) -> int:
    """Size of make_dataset's train split; ConfigError unless the holdout
    fits in it with 2 <= m_holdout < n_train."""
    n_train = n - int(round(n * EVAL_FRAC))
    if not 2 <= m_holdout < n_train:
        raise ConfigError(
            f"m_holdout={m_holdout} must fit inside the train split of {n_train}"
        )
    return n_train


def make_dataset(case: str, n: int, d: int, seed: int, m_holdout: int = 1000) -> Dataset:
    """Generate a case and split it 80/20 with train-split standardization."""
    n_train = check_split(n, m_holdout)
    batch = gen_scm(case, n, d, seed)
    train = slice_batch(batch, np.arange(n_train))
    eval_b = slice_batch(batch, np.arange(n_train, n))
    return Dataset(case, train, eval_b, m_holdout, Standardizer.fit(train))


def export_csv(batch: ScmBatch, path) -> None:
    """One row per sample with columns a0.., b, y0.., z0.."""
    header = (
        [f"a{i}" for i in range(batch.a.shape[1])]
        + ["b"]
        + [f"y{i}" for i in range(batch.y.shape[1])]
        + [f"z{i}" for i in range(batch.z.shape[1])]
    )
    rows = np.hstack([batch.a, batch.b, batch.y, batch.z])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
