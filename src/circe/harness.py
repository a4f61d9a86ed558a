"""Experiment orchestration: VCF and MSE evaluation, sweeps, reports.

A sweep executes the cross product cases x methods x gamma grid x seeds as
one job per (case, seed) cell. The job generates the cell's dataset and fits
its embedding once, trains every method and gamma on them, and drops the
cell when it returns. Runs are seed-scoped and deterministic at a fixed
OpenBLAS thread count. A pool's workers each run max(1, cores // workers)
threads, at most the parent's count, so they do not contend for the cores;
a serial sweep runs the parent's count. So on two cores `--workers 2`
reproduces a one-thread serial sweep, while a serial sweep at the default
two threads moves some cells in their last bits.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cme import DEFAULT_LAMBDA_GRID, DEFAULT_SIGMA2_Y_GRID, _check_lams, select_hyperparams
from .exceptions import CirceError, ConfigError
from .kernels import KernelParams
from .scm import SCM_CASES, ScmBatch, check_d, check_split, make_dataset, regenerate
from .trainer import (
    METHODS,
    TrainConfig,
    check_items,
    check_type,
    train,
    train_data_from_dataset,
)

DEFAULT_N_INTERVENTIONS = 20
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# per-method gamma grids, 10 log-spaced points
DEFAULT_GAMMA_GRIDS = {
    "none": (0.0,),
    "circe": tuple(np.logspace(0.0, 4.0, 10)),
    "hscic": tuple(np.logspace(0.0, 4.0, 10)),
    "gcm": tuple(np.logspace(-2.0, -0.5, 10)),
}
# (lr, weight_decay) defaults by case family
CASE_OPTIM_DEFAULTS = {
    "uni1": (1e-4, 0.3),
    "uni2": (1e-4, 0.3),
    "multi1": (3e-4, 0.1),
    "multi2": (3e-4, 0.1),
}


@dataclass
class VcfResult:
    value: float
    n_interventions: int
    n_points: int


@dataclass
class RunRecord:
    case_id: str
    method: str
    variant: str
    gamma: float
    seed: int
    lam: float
    sigma2_y: float
    sigma2_z: float
    mse_in: float
    vcf: float
    statistic_final: float
    unstable: bool
    wall_seconds: float

    def as_row(self):
        return [str(SCHEMA_VERSION)] + [_CELL_RULES[f.type][0](getattr(self, f.name))
                                        for f in fields(self)]


def _read_bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(f"expected True or False, got {text!r}")
    return text == "True"


# (write, read) of a results cell, keyed by its RunRecord field's annotation
_CELL_RULES = {
    "str": (str, str),
    "int": (lambda v: str(int(v)), int),
    "float": (lambda v: repr(float(v)), float),
    "bool": (lambda v: str(bool(v)), _read_bool),
}
# schema 1 had an mse_ood column, always NaN in sweeps; readers ignore it
SCHEMA_VERSION = 2
# schema_version, then one column per RunRecord field in field order; lam's
# column is named lambda
CSV_COLUMNS = ("schema_version",) + tuple("lambda" if f.name == "lam" else f.name
                                          for f in fields(RunRecord))
SUMMARY_COLUMNS = ("case_id", "method", "gamma", "median_mse_in", "median_vcf",
                   "median_statistic", "n_seeds", "n_unstable")


def predictor_from_model(model, standardizer):
    """Callable (a, y, z) -> predictions, wrapping standardization."""

    def predict(a, y, z):
        return model.predict(standardizer.inputs(a, y, z))

    return predict


def _check_n_interventions(n_interventions: int) -> None:
    if n_interventions < 2:
        raise ConfigError(f"n_interventions must be >= 2, got {n_interventions}")


def eval_vcf(predict, batch: ScmBatch, n_interventions: int = DEFAULT_N_INTERVENTIONS,
             seed: int = 0) -> VcfResult:
    """Mean over points of the predictor's variance under z interventions.

    z' is drawn from the marginal of Z by resampling the batch's own z
    column; all Z-descendants are regenerated from stored noises.
    """
    _check_n_interventions(n_interventions)
    rng = np.random.default_rng(seed)
    b = batch.n
    preds = np.empty((n_interventions, b))
    for t in range(n_interventions):
        pick = rng.integers(0, b, size=b)
        z_new = batch.z[pick]
        a_new, _ = regenerate(batch, z_new)
        preds[t] = np.asarray(predict(a_new, batch.y, z_new)).reshape(-1)
    value = float(np.mean(np.var(preds, axis=0, ddof=1)))
    return VcfResult(value=value, n_interventions=n_interventions, n_points=b)


def pareto_front(points) -> list:
    """Indices of non-dominated (mse, vcf) points, both minimized.

    Dominance needs at least one strict inequality, so exact duplicates
    survive together. Output is ordered by mse ascending, input order
    breaking ties.
    """
    pts = [(float(m), float(v)) for m, v in points]
    if not pts:
        raise ConfigError("pareto_front needs at least one point")
    keep = []
    for i, (mi, vi) in enumerate(pts):
        dominated = False
        for j, (mj, vj) in enumerate(pts):
            if j == i:
                continue
            if mj <= mi and vj <= vi and (mj < mi or vj < vi):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    keep.sort(key=lambda i: (pts[i][0], i))
    return keep


# set by each run from the sweep axes and the LOO winner, so not config keys
PER_RUN_FIELDS = {"method", "gamma", "seed", "lam", "sigma2_y"}


@dataclass(init=False)
class SweepConfig:
    """Sweep axes plus one TrainConfig template for every run, validated when
    built, with each (method, gamma) run's config and the fit pool's room for
    a batch. The template is built from flat keywords naming a TrainConfig
    field, except PER_RUN_FIELDS, which are unknown keys; lr and weight_decay
    override the case's CASE_OPTIM_DEFAULTS unless None."""

    cases: tuple
    methods: tuple
    seeds: tuple = DEFAULT_SEEDS
    gammas: dict | None = None
    n: int = 10_000
    d: int = 2
    m_holdout: int = 1000
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    sigma2_y_grid: tuple = DEFAULT_SIGMA2_Y_GRID
    n_interventions: int = DEFAULT_N_INTERVENTIONS
    lr: float | None = None
    weight_decay: float | None = None
    train: TrainConfig = field(init=False)

    def __init__(self, cases, methods, **kw):
        own = {f.name for f in fields(self) if f.init}
        flat = {f.name for f in fields(TrainConfig)} - own - PER_RUN_FIELDS
        unknown = set(kw) - own - flat
        if unknown:
            raise ConfigError(f"unknown sweep config keys: {sorted(unknown)}")
        for key in own & set(kw):
            setattr(self, key, kw[key])
        overrides = {k: getattr(self, k) for k in ("lr", "weight_decay")
                     if getattr(self, k) is not None}
        self.train = TrainConfig(**overrides,
                                 **{k: v for k, v in kw.items() if k in flat})
        self.cases = tuple(cases)
        self.methods = tuple(methods)
        self.seeds = tuple(int(s) for s in check_items("seeds", self.seeds, numbers.Integral))
        for key in ("n", "d", "m_holdout", "n_interventions"):
            check_type(key, getattr(self, key), numbers.Integral)
        # the checks select_hyperparams and make_dataset would make per run
        for key in ("lambda_grid", "sigma2_y_grid"):
            grid = check_items(key, getattr(self, key), numbers.Real)
            if not grid:
                raise ConfigError(f"{key} must be non-empty")
            setattr(self, key, tuple(float(v) for v in _check_lams(grid, key)))
        pool = check_split(self.n, self.m_holdout) - self.m_holdout
        if self.train.batch_size > pool:
            raise ConfigError(f"batch_size {self.train.batch_size} exceeds the fit pool "
                              f"of {pool} rows, the train split less m_holdout")
        _check_n_interventions(self.n_interventions)
        if not self.cases:
            raise ConfigError("sweep needs at least one case")
        for case in self.cases:
            if case not in SCM_CASES:
                raise ConfigError(f"unknown case {case!r}, expected {SCM_CASES}")
            check_d(case, self.d)
        if not self.methods:
            raise ConfigError("sweep needs at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        grids = dict(DEFAULT_GAMMA_GRIDS)
        if self.gammas:
            check_type("gammas", self.gammas, dict)
            for method, grid in self.gammas.items():
                if method not in METHODS:
                    raise ConfigError(f"gamma grid for unknown method {method!r}")
                grids[method] = tuple(float(g) for g in
                                      check_items("gammas", grid, numbers.Real))
        self.gammas = grids
        # a repeated value would train and write the same rows twice
        for key, values in (("cases", self.cases), ("methods", self.methods),
                            ("seeds", self.seeds),
                            *((f"gammas of {m}", g) for m, g in grids.items())):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat a value, got {list(values)}")
        # each run's own TrainConfig and each seed; the rest a run sets (the
        # case's lr and weight_decay, the LOO winner) is valid by the checks above
        for method in self.methods:
            for gamma in self.gammas[method]:
                self.train.replace(method=method, gamma=gamma)
        for seed in self.seeds:
            self.train.replace(seed=seed)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        if "cases" not in raw or "methods" not in raw:
            raise ConfigError("sweep config requires 'cases' and 'methods'")
        return cls(**raw)


def _prepare_case(config: SweepConfig, case: str, seed: int):
    """One (case, seed) cell: (dataset, CME, LOO report, standardized TrainData).

    The CME is the LOO grid's winner on the standardized holdout; every run of
    the cell trains on the same TrainData.
    """
    ds = make_dataset(case, config.n, config.d, seed, m_holdout=config.m_holdout)
    std = ds.standardizer
    hold_y = std.transform("y", ds.holdout.y)
    hold_z = std.transform("z", ds.holdout.z)
    cme, report = select_hyperparams(
        hold_y, hold_z,
        lambda_grid=config.lambda_grid,
        sigma2_y_grid=config.sigma2_y_grid,
        z_params=KernelParams(sigma2=config.train.sigma2_z),
    )
    return ds, cme, report, train_data_from_dataset(ds)


def _run_one(config: SweepConfig, cell, case: str, method: str, gamma: float,
             seed: int):
    """Train and evaluate one (method, gamma) on a prepared cell; returns
    (RunRecord fields, model)."""
    ds, cme, _, data = cell
    lr, wd = CASE_OPTIM_DEFAULTS[case]
    train_config = config.train.replace(
        method=method, gamma=float(gamma), seed=seed, lam=cme.lam,
        sigma2_y=cme.y_params.sigma2,
        lr=lr if config.lr is None else config.lr,
        weight_decay=wd if config.weight_decay is None else config.weight_decay,
    )
    model, log = train(train_config, data, cme_model=cme if method == "circe" else None)
    predict = predictor_from_model(model, ds.standardizer)
    vcf = eval_vcf(predict, ds.eval, config.n_interventions, seed=seed)
    metrics = dict(lam=cme.lam, sigma2_y=cme.y_params.sigma2,
                   mse_in=log.epochs[-1]["eval_mse"], vcf=vcf.value,
                   statistic_final=log.final_statistic, unstable=log.unstable)
    return metrics, model


def _run_cell(config: SweepConfig, case: str, seed: int, runs, strict: bool):
    """Prepare the (case, seed) cell once, then run each (method, gamma) of
    runs on it; yields (RunRecord, model) per run.

    With strict=False a CirceError becomes an unstable row with NaN metrics
    and a None model, so one failed run does not end the sweep; a failed
    preparation makes every row of the cell such a row. Any other exception
    is a bug and propagates. The first row's wall_seconds includes the
    preparation. When the runs end, also by an exception, the cell's
    embedding drops the cross factors its circe runs shared.
    """
    nan = float("nan")
    failed = dict(lam=nan, sigma2_y=nan, mse_in=nan, vcf=nan,
                  statistic_final=nan, unstable=True)
    start = time.perf_counter()
    try:
        cell = _prepare_case(config, case, seed)
    except CirceError:
        if strict:
            raise
        cell = None
    try:
        for method, gamma in runs:
            metrics, model = failed, None
            if cell is not None:
                try:
                    metrics, model = _run_one(config, cell, case, method, gamma, seed)
                except CirceError:
                    if strict:
                        raise
            record = RunRecord(case_id=case, method=method, variant=config.train.variant,
                               gamma=float(gamma), seed=seed, sigma2_z=config.train.sigma2_z,
                               wall_seconds=time.perf_counter() - start, **metrics)
            yield record, model
            start = time.perf_counter()
    finally:
        if cell is not None:
            cell[1]._slot.clear()


def run_single_with_model(config: SweepConfig, case: str, method: str,
                          gamma: float, seed: int):
    """Prepare the (case, seed) cell and run one (method, gamma) on it;
    returns (RunRecord, model). A CirceError propagates."""
    [row] = _run_cell(config, case, seed, [(method, gamma)], strict=True)
    return row


def _run_case_seed(payload):
    """One sweep job: every (method, gamma) row of a (case, seed) cell, which
    is prepared here and dropped when the job returns."""
    config, case, seed = payload
    runs = [(method, gamma) for method in config.methods
            for gamma in config.gammas[method]]
    return [record for record, _ in _run_cell(config, case, seed, runs, strict=False)]


# where numpy's wheels bundle their OpenBLAS
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def blas_threads(threads: int | None = None) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, after setting it to
    `threads` where given; None, and nothing set, where numpy bundles no
    OpenBLAS with the scipy_openblas 64-bit symbols."""
    for path in sorted(NUMPY_LIBS.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if threads is not None:
                put(threads)
            return get()
    return None


def run_sweep(config: SweepConfig, out_csv=None, workers: int = 1):
    """Execute the sweep; returns (records, any_unstable)."""
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    jobs = [(config, case, seed) for case in config.cases for seed in config.seeds]
    if workers == 1 or len(jobs) == 1:
        per_job = [_run_case_seed(job) for job in jobs]
    else:
        # each worker would run the parent's BLAS thread count, and workers x
        # threads spinning on fewer cores run several times slower than serial
        share = max(1, min(blas_threads() or 1, len(os.sched_getaffinity(0)) // workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=blas_threads,
                                 initargs=(share,)) as pool:
            per_job = list(pool.map(_run_case_seed, jobs))
    by_key = {(r.case_id, r.method, r.gamma, r.seed): r
              for rows in per_job for r in rows}
    records = [by_key[(case, method, float(gamma), seed)]
               for case in config.cases for method in config.methods
               for gamma in config.gammas[method] for seed in config.seeds]
    if out_csv is not None:
        write_records_csv(records, out_csv)
    any_unstable = any(r.unstable for r in records)
    return records, any_unstable


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())


def read_records_csv(path) -> list:
    """RunRecords of a results CSV; ConfigError naming the line and column of
    a cell that is missing or does not parse."""
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"results CSV missing columns {sorted(missing)}")
            for row in reader:
                if None in row:
                    raise ConfigError(f"results CSV {path} line {reader.line_num} "
                                      f"has more cells than columns")
                values = {}
                for f, column in zip(fields(RunRecord), CSV_COLUMNS[1:]):
                    try:
                        if row[column] is None:
                            raise ValueError("the row ends before this column")
                        values[f.name] = _CELL_RULES[f.type][1](row[column])
                    except ValueError as exc:
                        raise ConfigError(f"results CSV {path} line {reader.line_num}, "
                                          f"column {column}: {exc}") from exc
                records.append(RunRecord(**values))
    except OSError as exc:
        raise ConfigError(f"cannot read results CSV {path}: {exc}") from exc
    return records


def summarize_records(records) -> dict:
    """Median metrics per (case, method, gamma), one row of SUMMARY_COLUMNS
    each, plus per-(case, method) Pareto fronts of the rows whose medians are
    finite."""
    if not records:
        raise ConfigError("no records to summarize")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.case_id, r.method, r.gamma), []).append(r)
    summary_rows = []
    for (case, method, gamma), rows in sorted(groups.items()):
        summary_rows.append(dict(zip(SUMMARY_COLUMNS, (
            case, method, gamma,
            float(np.median([r.mse_in for r in rows])),
            float(np.median([r.vcf for r in rows])),
            float(np.median([r.statistic_final for r in rows])),
            len(rows), sum(r.unstable for r in rows),
        ))))
    fronts = {}
    for key, group in itertools.groupby(summary_rows,
                                        key=lambda r: (r["case_id"], r["method"])):
        rows = [r for r in group
                if np.isfinite(r["median_mse_in"]) and np.isfinite(r["median_vcf"])]
        if rows:
            idx = pareto_front([(r["median_mse_in"], r["median_vcf"]) for r in rows])
            fronts[key] = [rows[i] for i in idx]
    return {"rows": summary_rows, "pareto": fronts}


def write_summary_csv(summary_rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary_rows)
