"""In-memory span recorder that wraps module attributes of the program.

The program has no tracing of its own, so spans are recorded at layer
boundaries by swapping functions on the modules that look them up at call
time (``circe.trainer.gram``, ``MlpModel.forward``, ``scipy.linalg.cho_factor``
and so on) and restoring the originals afterwards. A target that no longer
resolves is skipped and named in ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# Holdout-sized solves and Grams (M = 1000 in the full-size workloads) versus
# batch-sized ones (B = 256); the split keeps the two uses of one kernel apart.
BATCH_ROWS = 256


def _solve_name(K, lam, B):
    size = "n256" if len(K) <= BATCH_ROWS else "n1000"
    return f"kernels.regularized_solve.{size}"


def _gram_name(rows, cols, params):
    small = len(rows) <= BATCH_ROWS and len(cols) <= BATCH_ROWS
    return "kernels.gram.batch" if small else "kernels.gram.cross"


# (module path, attribute path, span name or function of the call arguments)
TARGETS = (
    ("circe.harness", "run_sweep", "harness.run_sweep"),
    ("circe.harness", "eval_vcf", "harness.eval_vcf"),
    ("circe.harness", "make_dataset", "scm.make_dataset"),
    ("circe.scm", "make_dataset", "scm.make_dataset"),
    ("circe.harness", "regenerate", "scm.regenerate"),
    ("circe.harness", "select_hyperparams", "cme.select_hyperparams"),
    ("circe.cme", "select_hyperparams", "cme.select_hyperparams"),
    ("circe.cme", "loo_error", "cme.loo_error"),
    ("circe.cme", "fit_cme", "cme.fit_cme"),
    ("circe.cme", "regularized_solve", _solve_name),
    ("circe.baselines", "regularized_solve", _solve_name),
    ("scipy.linalg", "cho_factor", "scipy.cho_factor"),
    ("circe.kernels", "gram", _gram_name),
    ("circe.cme", "gram", _gram_name),
    ("circe.estimator", "gram", _gram_name),
    ("circe.trainer", "gram", _gram_name),
    ("circe.baselines", "gram", _gram_name),
    ("circe.rff", "gram", _gram_name),
    ("circe.kernels", "gram_backprop", "kernels.gram_backprop"),
    ("circe.trainer", "gram_backprop", "kernels.gram_backprop"),
    ("circe.baselines", "gram_backprop", "kernels.gram_backprop"),
    ("circe.estimator", "circe_statistic", "estimator.circe_statistic"),
    ("circe.trainer", "circe_statistic", "estimator.circe_statistic"),
    ("circe.estimator", "statistic_gradient_coeff", "estimator.statistic_gradient_coeff"),
    ("circe.trainer", "statistic_gradient_coeff", "estimator.statistic_gradient_coeff"),
    ("circe.harness", "train", "trainer.train"),
    ("circe.trainer", "train", "trainer.train"),
    ("circe.trainer", "loss_and_grad", "trainer.loss_and_grad"),
    ("circe.trainer", "hscic_with_grad", "baselines.hscic_with_grad"),
    ("circe.trainer", "gcm_with_grad", "baselines.gcm_with_grad"),
    ("circe.nn", "MlpModel.forward", None),  # named from its parent span
    ("circe.nn", "MlpModel.backward", "nn.backward"),
    ("circe.nn", "Adam.step", "nn.optimizer_step"),
    ("circe.rff", "precompute_rff_weights", "rff.precompute_rff_weights"),
    ("circe.rff", "rff_centered_gram", "rff.rff_centered_gram"),
    ("circe.rff", "RffMap.features", "rff.features"),
)


# spans whose return value the metrics read (TrainLog, LOO error, LooReport)
KEEP_RESULTS = ("trainer.train", "cme.loo_error", "cme.select_hyperparams")


class Tracer:
    """Spans kept as parallel lists: name, start, end, parent index, op id."""

    def __init__(self, only=None):
        self.targets = [t for t in TARGETS if only is None or f"{t[0]}.{t[1]}" in only]
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.results = {}  # span index -> return value, for spans that keep it
        self.stack = []
        self.op = "setup"
        self.missing = []
        self._patched = []

    def _record(self, name, fn, args, kwargs, keep_result):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()
        if keep_result:
            self.results[idx] = out
        return out

    def _wrapper(self, fn, name, is_method):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            call_args = args[1:] if is_method else args
            if name is None:  # MlpModel.forward: training pass or evaluation
                parent = self.names[self.stack[-1]] if self.stack else ""
                label = "nn.forward.train" if parent == "trainer.loss_and_grad" else "nn.forward.eval"
            else:
                label = name(*call_args, **kwargs) if callable(name) else name
            return self._record(label, fn, args, kwargs, keep)

        return wrapped

    def call(self, name, fn, *args, **kwargs):
        """Record a span around a call made by the benchmark itself."""
        return self._record(name, fn, args, kwargs, name in KEEP_RESULTS)

    def install(self):
        self.missing = []
        for module_path, attr_path, name in self.targets:
            try:
                owner = importlib.import_module(module_path)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_path}.{attr_path}")
                continue
            setattr(owner, attr, self._wrapper(original, name, isinstance(owner, type)))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self):
        """Duration minus the time covered by direct children (which nest)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def tree_errors(self):
        """Spans that end before they start or stick out of their parent."""
        bad = []
        for i, p in enumerate(self.parents):
            s, e = self.starts[i], self.ends[i]
            if e is None or e < s:
                bad.append(i)
            elif p >= 0 and not (self.starts[p] <= s and e <= self.ends[p]):
                bad.append(i)
        _, own = self.self_times()
        bad += [i for i, t in enumerate(own) if t < -1e-9]
        return sorted(set(bad))

    def write_jsonl(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i], "op": self.ops[i],
                    "start_s": self.starts[i] - t0, "end_s": self.ends[i] - t0,
                }) + "\n")


# Per-layer metrics of the traced run, as "<span>.<stat>"; BENCHMARK.json
# lists the same names under per_layer.
LAYER_STATS = (
    ("harness.run_sweep", ("calls", "busy_s", "self_s")),
    ("harness.eval_vcf", ("calls", "busy_s")),
    ("scm.make_dataset", ("calls", "busy_s")),
    ("scm.regenerate", ("calls", "busy_s")),
    ("cme.select_hyperparams", ("calls", "busy_s", "self_s")),
    ("cme.loo_error", ("calls", "busy_s", "p50_ms", "max_ms", "finite_ratio")),
    ("cme.fit_cme", ("calls", "busy_s")),
    ("kernels.regularized_solve.n1000", ("calls", "busy_s", "chol_per_call")),
    ("kernels.regularized_solve.n256", ("calls", "busy_s", "p50_ms", "chol_per_call")),
    ("kernels.gram.batch", ("calls", "busy_s")),
    ("kernels.gram.cross", ("calls", "busy_s")),
    ("kernels.gram_backprop", ("calls", "busy_s", "p50_ms")),
    ("estimator.circe_statistic", ("calls", "busy_s")),
    ("estimator.statistic_gradient_coeff", ("calls", "busy_s")),
    ("trainer.train", ("calls", "busy_s")),
    ("trainer.loss_and_grad", ("calls", "busy_s", "self_s", "p50_ms", "p95_ms")),
    ("baselines.hscic_with_grad", ("calls", "busy_s", "self_s")),
    ("baselines.gcm_with_grad", ("calls", "busy_s", "self_s")),
    ("nn.forward.train", ("calls", "busy_s")),
    ("nn.forward.eval", ("calls", "busy_s")),
    ("nn.backward", ("calls", "busy_s")),
    ("nn.optimizer_step", ("calls", "busy_s")),
    ("rff.precompute_rff_weights", ("calls", "busy_s")),
    ("rff.rff_centered_gram", ("calls", "busy_s", "self_s", "p50_ms", "p99_ms")),
    ("rff.features", ("calls", "busy_s")),
)
# Metrics read from return values or span pairs rather than one span's timings.
DERIVED = (
    ("trainer.context_setup_s", "s"),
    ("trainer.steps", "count"),
    ("trainer.skipped_steps", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p95_ms": "ms",
         "p99_ms": "ms", "max_ms": "ms", "finite_ratio": "ratio", "chol_per_call": "ratio"}


def layer_metric_units():
    out = {f"{span}.{stat}": UNITS[stat] for span, stats in LAYER_STATS for stat in stats}
    out.update(DERIVED)
    return out


def _span_names_of(target):
    name = target[2]
    if name is None:
        return ("nn.forward.train", "nn.forward.eval")
    if name is _solve_name:
        return ("kernels.regularized_solve.n1000", "kernels.regularized_solve.n256")
    if name is _gram_name:
        return ("kernels.gram.batch", "kernels.gram.cross")
    return (name,)


def missing_spans(tracer):
    """Span names none of whose wrap targets resolved."""
    produced, lost = set(), set()
    for target in TARGETS:
        key = f"{target[0]}.{target[1]}"
        (lost if key in tracer.missing else produced).update(_span_names_of(target))
    return lost - produced


def layer_metrics(tracer, overhead_s, overhead_ratio):
    """(metrics, missing names) from the spans of a traced run."""
    dur, own = tracer.self_times()
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    chol = {}
    for i, name in enumerate(tracer.names):
        p = tracer.parents[i]
        if name == "scipy.cho_factor" and p >= 0:
            chol[tracer.names[p]] = chol.get(tracer.names[p], 0) + 1
    lost = missing_spans(tracer)
    units = layer_metric_units()
    metrics, missing = {}, []

    def put(name, value):
        metrics[name] = {"value": float(value), "unit": units[name]}

    for span, stats in LAYER_STATS:
        ids = by_name.get(span, [])
        ms = [1e3 * dur[i] for i in ids]
        for stat in stats:
            name = f"{span}.{stat}"
            if span in lost or (stat == "chol_per_call" and "scipy.cho_factor" in lost):
                missing.append(name)
            elif stat == "calls":
                put(name, len(ids))
            elif stat == "busy_s":
                put(name, sum(dur[i] for i in ids))
            elif stat == "self_s":
                put(name, sum(own[i] for i in ids))
            elif stat == "max_ms":
                put(name, max(ms, default=0.0))
            elif stat.startswith("p"):
                put(name, np.percentile(ms, float(stat[1:3])) if ms else 0.0)
            elif stat == "finite_ratio":
                vals = [tracer.results[i] for i in ids]
                put(name, np.mean(np.isfinite(vals)) if vals else 0.0)
            elif stat == "chol_per_call":
                put(name, chol.get(span, 0) / len(ids) if ids else 0.0)
    trains = by_name.get("trainer.train", [])
    if "trainer.train" in lost or "trainer.loss_and_grad" in lost:
        missing.append("trainer.context_setup_s")
    else:
        first_step = {}
        for i in by_name.get("trainer.loss_and_grad", []):
            first_step.setdefault(tracer.parents[i], tracer.starts[i])
        put("trainer.context_setup_s",
            sum(first_step[i] - tracer.starts[i] for i in trains if i in first_step))
    if "trainer.train" in lost:
        missing += ["trainer.steps", "trainer.skipped_steps"]
    else:
        logs = [tracer.results[i][1] for i in trains if i in tracer.results]
        put("trainer.steps", sum(log.total_steps for log in logs))
        put("trainer.skipped_steps", sum(log.skipped_steps for log in logs))
    put("trace.overhead_s", overhead_s)
    put("trace.overhead_ratio", overhead_ratio)
    return metrics, missing

