"""The four benchmark workloads and the correctness checks on their outputs.

Every workload has a set-up, repeated to time it, and a fixed round of timed
operations that is repeated until the run length is used up. The program is
driven only through its public entry points, looked up on their modules at
call time so that the traced run can wrap them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from circe import cme, estimator, harness, kernels, rff, scm, trainer

# Baseline rows train one epoch: an hscic step costs about four circe steps.
FULL = dict(n=10_000, d=2, m_holdout=1000, epochs=2, baseline_epochs=1, bank=2048,
            active=512, refresh=4, batches_per_round=64, warmup=dict(n=1500, m_holdout=200))
# Self-check size: every code path at a fraction of the cost.
SMOKE = dict(n=1500, d=2, m_holdout=200, epochs=1, baseline_epochs=1, bank=256,
             active=64, refresh=4, batches_per_round=8, warmup=dict(n=800, m_holdout=100))

SWEEP_CASES = ("uni1", "multi1")
TRAIN_CASE = "uni1"
GAMMA_INDEX = 5  # middle of each method's default gamma grid
TRAIN_ROWS = {
    "train_circe": (("circe", "prediction"), ("circe", "features"), ("none", "prediction")),
    "train_baselines": (("hscic", "prediction"), ("gcm", "prediction")),
}
RFF_LAMBDA, RFF_SIGMA2 = 0.1, 1.0  # fixed CME fit for the stream
VARIANT = "centered"
REFERENCE_BATCHES = 8


def gamma_for(method):
    grid = harness.DEFAULT_GAMMA_GRIDS[method]
    return float(grid[min(GAMMA_INDEX, len(grid) - 1)])


# Full-bank RFF statistic vs the exact one: the Monte-Carlo error of D
# features shrinks as 1/sqrt(D); criterion 06 allows 5% + 1e-3 at D = 8192.
def rff_tolerance(exact, bank):
    scale = math.sqrt(8192 / bank)
    return scale * (0.05 * abs(exact) + 1e-3)


class Checks:
    """Pass/fail outcome of every checked operation, in order."""

    def __init__(self):
        self.outcomes = []  # (op label, ok, detail)

    def op(self, label, failures):
        self.outcomes.append((label, not failures, "; ".join(failures)))


def _close(a, b, rtol=1e-5, atol=1e-12):
    return abs(a - b) <= atol + rtol * abs(b)


def loo_argmin_failures(report):
    """The reported winner must be the argmin of the report's own table.

    Ties prefer the larger lambda, then the larger sigma2_y, as cme documents.
    """
    rows = [(float(e), -float(lam), -float(s2))
            for lam, s2, e in zip(report.lams, report.sigma2_ys, report.errors)
            if math.isfinite(e)]
    if not rows:
        return ["no finite LOO error"]
    err, neg_lam, neg_s2 = min(rows)
    if (report.best_error, report.best_lam, report.best_sigma2_y) != (err, -neg_lam, -neg_s2):
        return [f"LOO winner ({report.best_lam}, {report.best_sigma2_y}) is not the "
                f"argmin ({-neg_lam}, {-neg_s2}) of its report"]
    return []


def row_failures(mse_in, vcf, log=None, unstable=False):
    out = []
    if unstable:
        out.append("unstable row")
    if log is not None and log.skipped_steps:
        out.append(f"{log.skipped_steps} skipped steps")
    if not (math.isfinite(mse_in) and math.isfinite(vcf)):
        out.append(f"non-finite mse_in={mse_in} vcf={vcf}")
    return out


def reference_failures(ref, got, label):
    """Compare values against the reference recorded for the default seed."""
    out = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not _close(have, want):
            out.append(f"{label} {key}={have} differs from reference {want}")
    return out


def prepare_cell(case, seed, size):
    """scm.make_dataset plus the LOO grid and CME fit, as the harness does."""
    ds = scm.make_dataset(case, size["n"], size["d"], seed, m_holdout=size["m_holdout"])
    std = ds.standardizer
    hold = ds.holdout
    model, report = cme.select_hyperparams(
        std.transform("y", hold.y), std.transform("z", hold.z),
        z_params=kernels.KernelParams(sigma2=1.0),
    )
    return ds, model, report


class SweepCell:
    """harness.run_sweep on fresh (case, seed) cells, none and circe at one gamma."""

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        self.cell_s = []
        self.first = {}

    def _config(self, seeds, n, m_holdout):
        return harness.SweepConfig(
            cases=SWEEP_CASES, methods=("none", "circe"), seeds=seeds, n=n,
            d=self.size["d"], m_holdout=m_holdout, epochs=self.size["epochs"],
            gammas={"circe": (gamma_for("circe"),)},
        )

    def setup(self, k):
        """A small sweep that warms the code paths and BLAS threads up."""
        w = self.size["warmup"]
        harness.run_sweep(self._config((self.seed * 1000 + 900 + k,), w["n"], w["m_holdout"]))

    def cell_seed(self, r):
        return self.seed * 1000 + r

    def round(self, r, tracer, checks, reference):
        """One run_sweep call over both cases at a fresh seed."""
        s, op = self.cell_seed(r), f"round{r}"
        tracer.op = op
        try:
            records, _ = tracer.call("bench.round", harness.run_sweep,
                                     self._config((s,), self.size["n"], self.size["m_holdout"]))
        except Exception as exc:  # a failed op is counted, never fatal
            checks.op(op, [f"{type(exc).__name__}: {exc}"])
            return
        reports = [tracer.results[i][1] for i in sorted(tracer.results)
                   if tracer.names[i] == "cme.select_hyperparams" and tracer.ops[i] == op]
        got = {case: {"loo": {"lam": rep.best_lam, "sigma2_y": rep.best_sigma2_y}}
               for case, rep in zip(SWEEP_CASES, reports)}
        for rec in records:
            got[rec.case_id][rec.method] = {"mse_in": rec.mse_in, "vcf": rec.vcf}
        for case, report in zip(SWEEP_CASES, reports):
            checks.op(f"{op}/{case}/loo", loo_argmin_failures(report))
        for rec in records:
            checks.op(f"{op}/{rec.case_id}/{rec.method}",
                      row_failures(rec.mse_in, rec.vcf, unstable=rec.unstable))
        for case in SWEEP_CASES:
            ref = reference.get(f"{case}/{s}") if reference is not None else None
            if ref is not None:
                fails = [f for key in ref for f in reference_failures(ref[key], got[case].get(key, {}), key)]
                checks.op(f"{op}/{case}/reference", fails)
        # a row's wall_seconds includes the cell's prepare when it runs first
        self.cell_s += [sum(rec.wall_seconds for rec in records if rec.case_id == case)
                        for case in SWEEP_CASES]
        if r == 0:
            self.first = {f"{case}/{s}": got[case] for case in SWEEP_CASES}

    def record(self):
        """Reference values of round 0: LOO winners, mse_in and vcf per row."""
        return self.first

    def setup_checks(self, checks, reference):
        pass

    def samples(self, tracer):
        """Raw measurements; steps and train() time come from the probed spans."""
        ids = [i for i in tracer.results
               if tracer.names[i] == "trainer.train" and tracer.ops[i] != "setup"]
        return {"steps": sum(tracer.results[i][1].total_steps for i in ids),
                "step_s": sum(tracer.ends[i] - tracer.starts[i] for i in ids),
                "cell_s": self.cell_s}


class TrainRows:
    """A prepared uni1 cell and a fixed set of sweep rows (train plus VCF eval)."""

    def __init__(self, name, seed, size):
        self.rows = TRAIN_ROWS[name]
        self.seed, self.size = seed, size
        self.epochs = size["baseline_epochs" if name == "train_baselines" else "epochs"]
        self.steps = 0
        self.train_s = 0.0
        self.last = {}  # row label -> outputs of the latest round

    def setup(self, k):
        self.ds, self.cme, self.report = prepare_cell(TRAIN_CASE, self.seed, self.size)

    def setup_checks(self, checks, reference):
        fails = loo_argmin_failures(self.report)
        if reference is not None:
            fails += reference_failures(reference["loo"], {"lam": self.report.best_lam,
                                                           "sigma2_y": self.report.best_sigma2_y}, "loo")
        checks.op("setup/loo", fails)

    def _row(self, method, regularize):
        """The calls harness.run_single_with_model makes for one row."""
        lr, wd = harness.CASE_OPTIM_DEFAULTS[TRAIN_CASE]
        config = trainer.TrainConfig(
            method=method, gamma=gamma_for(method), epochs=self.epochs, lr=lr,
            weight_decay=wd, seed=self.seed, regularize=regularize, variant=VARIANT,
            lam=self.cme.lam, sigma2_y=self.cme.y_params.sigma2,
        )
        data = trainer.train_data_from_dataset(self.ds)
        t0 = time.perf_counter()
        model, log = trainer.train(config, data, cme_model=self.cme if method == "circe" else None)
        self.train_s += time.perf_counter() - t0
        self.steps += log.total_steps
        predict = harness.predictor_from_model(model, self.ds.standardizer)
        vcf = harness.eval_vcf(predict, self.ds.eval, harness.DEFAULT_N_INTERVENTIONS, seed=self.seed)
        return log, log.epochs[-1]["eval_mse"], vcf.value

    def round(self, r, tracer, checks, reference):
        for method, regularize in self.rows:
            label = f"{method}/{regularize}"
            tracer.op = f"round{r}/{label}"
            try:
                log, mse_in, vcf = tracer.call("bench.row", self._row, method, regularize)
            except Exception as exc:  # a failed op is counted, never fatal
                checks.op(f"round{r}/{label}", [f"{type(exc).__name__}: {exc}"])
                continue
            fails = row_failures(mse_in, vcf, log=log, unstable=log.unstable)
            if reference is not None:
                fails += reference_failures(reference[label], {"mse_in": mse_in, "vcf": vcf}, label)
            checks.op(f"round{r}/{label}", fails)
            self.last[label] = {"mse_in": mse_in, "vcf": vcf}

    def samples(self, tracer):
        return {"steps": self.steps, "step_s": self.train_s}

    def record(self):
        return {"loo": {"lam": self.report.best_lam, "sigma2_y": self.report.best_sigma2_y},
                **self.last}


class RffStream:
    """rff_centered_gram on a stream of batches with a rotating active subset.

    Calls the rff functions directly: TrainConfig(use_rff=True) fails at the
    commit that introduced this benchmark (the trainer passes the bank size
    as sample_rff's input dimension), so the trainer cannot carry the stream.
    """

    batch = 256

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        self.x_params = kernels.KernelParams(sigma2=1.0)
        self.batch_ms = []
        self.k = 0
        self.first = {}  # statistic of the first batches, the seed-0 reference

    def setup(self, k):
        size = self.size
        ds = scm.make_dataset(TRAIN_CASE, size["n"], size["d"], self.seed, m_holdout=size["m_holdout"])
        std, hold = ds.standardizer, ds.holdout
        params = kernels.KernelParams(sigma2=RFF_SIGMA2)
        self.cme = cme.fit_cme(std.transform("y", hold.y), std.transform("z", hold.z),
                               RFF_LAMBDA, params, params)
        self.y_map = rff.sample_rff(1, size["bank"], RFF_SIGMA2, seed=2 * self.seed + 1)
        self.z_map = rff.sample_rff(1, size["bank"], RFF_SIGMA2, seed=2 * self.seed + 2)
        self.weights = rff.precompute_rff_weights(self.cme, self.y_map, self.z_map,
                                                  refresh_period=size["refresh"])
        self.pool = trainer.train_data_from_dataset(ds).train
        self.rng = np.random.default_rng(self.seed)
        self.order = np.empty(0, dtype=np.int64)

    def _stat(self, take, centered):
        k_xx = kernels.gram(take.targets, take.targets, self.x_params)
        stat = estimator.circe_statistic(k_xx, centered, VARIANT)
        coeff = estimator.statistic_gradient_coeff(centered, VARIANT)
        grad = kernels.gram_backprop(coeff, take.targets, k_xx, self.x_params.sigma2)
        return stat.value, grad

    def setup_checks(self, checks, reference):
        """Full-bank RFF statistic on a check batch vs the exact statistic."""
        take = self.pool.take(np.arange(self.batch))
        exact_c = estimator.centered_gram(take.y, take.z, self.cme, self.cme.y_params, self.cme.z_params)
        approx_c = rff.rff_centered_gram(take.y, take.z, self.weights, self.y_map, self.z_map,
                                         self.size["bank"])
        exact, _ = self._stat(take, exact_c)
        approx, _ = self._stat(take, approx_c)
        tol = rff_tolerance(exact, self.size["bank"])
        fails = [] if abs(approx - exact) <= tol else [
            f"RFF statistic {approx:.4e} vs exact {exact:.4e} beyond tolerance {tol:.2e}"]
        self.check_values = {"exact": exact, "rff_full_bank": approx}
        if reference is not None:
            fails += reference_failures(reference["check"], self.check_values, "check")
        checks.op("setup/rff_vs_exact", fails)

    def _next_idx(self):
        if len(self.order) < self.batch:
            self.order = np.concatenate([self.order, self.rng.permutation(self.pool.n)])
        idx, self.order = self.order[:self.batch], self.order[self.batch:]
        return idx

    def _one(self, k):
        take = self.pool.take(self._next_idx())
        centered = rff.rff_centered_gram(take.y, take.z, self.weights, self.y_map, self.z_map,
                                         self.size["active"], batch_index=k)
        return self._stat(take, centered)

    def round(self, r, tracer, checks, reference):
        for _ in range(self.size["batches_per_round"]):
            k = self.k
            tracer.op = f"batch{k}"
            self.k += 1
            t0 = time.perf_counter()
            try:
                value, grad = tracer.call("bench.batch", self._one, k)
            except Exception as exc:  # a failed op is counted, never fatal
                checks.op(f"batch{k}", [f"{type(exc).__name__}: {exc}"])
                continue
            self.batch_ms.append(1e3 * (time.perf_counter() - t0))
            finite = math.isfinite(value) and np.all(np.isfinite(grad))
            fails = [] if finite else ["non-finite statistic or gradient"]
            if reference is not None and str(k) in reference["batches"]:
                fails += reference_failures({"stat": reference["batches"][str(k)]}, {"stat": value}, f"batch{k}")
            checks.op(f"batch{k}", fails)
            if k < REFERENCE_BATCHES:
                self.first[str(k)] = value

    def samples(self, tracer):
        return {"steps": len(self.batch_ms), "step_s": sum(self.batch_ms) / 1e3,
                "batch_ms": self.batch_ms}

    def record(self):
        return {"check": self.check_values, "batches": self.first}


def make(name, seed, size):
    if name == "sweep_cell":
        return SweepCell(seed, size)
    if name in TRAIN_ROWS:
        return TrainRows(name, seed, size)
    if name == "rff_stream":
        return RffStream(seed, size)
    raise KeyError(name)
