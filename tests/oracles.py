"""Reference models and oracles that the tests check the package against.

None of these is part of the program: the CLI, the sweep and the benchmark
never call them. They are
- circe_oracle, the statistic with the true conditional embedding given in
  closed form;
- the linear toy task (gen_toy, train_data_from_toy), whose least-squares and
  invariant weights are known analytically;
- the GCM failure-mode case (gen_nonlinear_gcm_case), where a covariate
  depends on the distractor only through its square;
- intervene_z, a single-point counterfactual built on scm.regenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from circe.estimator import CirceEstimate, circe_statistic
from circe.exceptions import ConfigError
from circe.kernels import KernelParams, as_points, gram
from circe.scm import ScmBatch, regenerate, slice_batch
from circe.trainer import TrainBatch, TrainData


def _normal(rng, var: float, n: int) -> np.ndarray:
    """(n, 1) draws of N(0, var), var read as a variance."""
    return rng.normal(0.0, np.sqrt(var), (n, 1))


def circe_oracle(batch_x_feats, batch_y, batch_z, analytic_mu,
                 x_params: KernelParams, y_params: KernelParams,
                 z_params: KernelParams, variant: str) -> CirceEstimate:
    """Statistic with the true conditional embedding supplied analytically.

    analytic_mu(batch_y) must return (anchors, weights) with anchors (P, d_z)
    and weights (B, P) such that mu(y_i) = sum_p weights[i, p] psi(anchors[p]).
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


@dataclass
class ToyBatch:
    """Linear toy task: z ~ N(0, s_z), y = z + xi1, x = (y + xi2, z).

    Under the shifted marginal y is rebuilt from an independent copy of z,
    which breaks the x2 shortcut while keeping every marginal the same.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]


def gen_toy(n: int, sigma1_sq: float, sigma2_sq: float, sigma_z_sq: float,
            shifted: bool, seed: int) -> ToyBatch:
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    for name, v in (("sigma1_sq", sigma1_sq), ("sigma2_sq", sigma2_sq),
                    ("sigma_z_sq", sigma_z_sq)):
        if v <= 0:
            raise ConfigError(f"{name} must be positive, got {v}")
    rng = np.random.default_rng(seed)
    z = _normal(rng, sigma_z_sq, n)
    xi1 = _normal(rng, sigma1_sq, n)
    xi2 = _normal(rng, sigma2_sq, n)
    y = (_normal(rng, sigma_z_sq, n) if shifted else z) + xi1
    return ToyBatch(x=np.hstack([y + xi2, z]), y=y, z=z)


def toy_batch(toy: ToyBatch) -> TrainBatch:
    """The toy task in raw coordinates, so closed-form weights stay comparable."""
    return TrainBatch(inputs=toy.x, targets=toy.y, y=toy.y, z=toy.z)


def train_data_from_toy(toy: ToyBatch) -> TrainData:
    return TrainData(train=toy_batch(toy))


def gen_nonlinear_gcm_case(n: int, alpha: float, sigma_z: float, sigma_y: float,
                           seed: int) -> ScmBatch:
    """Two observed covariates (Y + alpha xi_z^2, Y + xi_y) with target Y.

    The first covariate depends on the distractor z = xi_z only through its
    square, so the residual product with z has zero mean by symmetry even
    though the covariate is not conditionally independent of z given Y.
    scm.regenerate has no equations for this case.
    """
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 1))
    xi_z = rng.normal(0.0, sigma_z, (n, 1))
    xi_y = rng.normal(0.0, sigma_y, (n, 1))
    a = np.hstack([y + float(alpha) * xi_z**2, y + xi_y])
    return ScmBatch("nonlinear_gcm", a, y.copy(), y, xi_z, {"xi_y": xi_y})


def intervene_z(batch: ScmBatch, i: int, z_new) -> dict:
    """Counterfactual single point under do(Z_i = z_new); Y and noises fixed."""
    if not 0 <= i < batch.n:
        raise ConfigError(f"index {i} out of range for batch of {batch.n}")
    point = slice_batch(batch, np.array([i]))
    z_row = np.asarray(z_new, dtype=np.float64).reshape(1, -1)
    if z_row.shape[1] != batch.z.shape[1]:
        raise ConfigError(
            f"z_new has {z_row.shape[1]} columns, expected {batch.z.shape[1]}"
        )
    a, b = regenerate(point, z_row)
    return {"a": a[0], "b": b[0], "y": point.y[0], "z": z_row[0]}
