"""Kernel-based conditional independence regularization for regression."""

from .baselines import gcm_with_grad, hscic_with_grad
from .cme import CmeModel, fit_cme, load_cme, loo_error, save_cme, select_hyperparams
from .estimator import centered_gram, circe_statistic
from .exceptions import CirceError, ConfigError, NumericalError
from .harness import eval_vcf, pareto_front, run_sweep
from .kernels import KernelParams, gram, regularized_solve
from .nn import Adam, AdamW, MlpModel
from .rff import precompute_rff_weights, sample_rff
from .scm import gen_scm, make_dataset
from .trainer import TrainConfig, loss_and_grad, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdamW",
    "CirceError",
    "CmeModel",
    "ConfigError",
    "KernelParams",
    "MlpModel",
    "NumericalError",
    "TrainConfig",
    "centered_gram",
    "circe_statistic",
    "eval_vcf",
    "fit_cme",
    "gcm_with_grad",
    "gen_scm",
    "gram",
    "hscic_with_grad",
    "load_cme",
    "loo_error",
    "loss_and_grad",
    "make_dataset",
    "pareto_front",
    "precompute_rff_weights",
    "regularized_solve",
    "run_sweep",
    "sample_rff",
    "save_cme",
    "select_hyperparams",
    "train",
    "__version__",
]
