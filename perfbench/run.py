"""Benchmark of the circe package: one workload per run, result as JSON.

    python3 perfbench/run.py --workload train_circe --seed 0 --seconds 9 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run. The lines before it print every metric by name and unit, including the
workload's own ones. A result file with provenance, every check outcome and
(traced) the span list goes to perfbench/out/. The package is imported from
the src/ directory next to this benchmark; without it the run exits with
code 2 and prints no result. BLAS threads are recorded, never set.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep_cell", "train_circe", "train_baselines", "rff_stream")
# (worker processes, set-ups per worker) of an untraced run. Fresh processes
# give each set-up its own cold start and spread a run over the machine's
# load, which drifts by 10-30% over seconds; peak RSS is the largest of them.
# Workers split the run length, and each runs at least one round.
WORKERS = {"sweep_cell": (1, 3), "train_circe": (4, 1), "train_baselines": (3, 1),
           "rff_stream": (6, 1)}
# Wrapped in the untraced run too: two calls per cell, to read the LOO
# reports and TrainLogs that run_sweep does not return.
SWEEP_PROBES = {"circe.harness.select_hyperparams", "circe.harness.train"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}/{Path(path).name}"] = fn()
                    break
    return out


def provenance(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "circe").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_rounds(bench, tracer, checks, reference, seconds, first_round=0):
    """Rounds until the run length is used (at least one); returns their wall times."""
    times, start, r = [], time.perf_counter(), first_round
    with tracer:
        while True:
            t0 = time.perf_counter()
            bench.round(r, tracer, checks, reference)
            times.append(time.perf_counter() - t0)
            r += 1
            if time.perf_counter() - start >= seconds:
                return times


def merge(samples):
    """Pool the samples of several worker processes: sum counts, join lists."""
    out = {}
    for part in samples:
        for key, value in part.items():
            out[key] = out.get(key, [] if isinstance(value, list) else 0) + value
    return out


def steps_per_s(pooled):
    return pooled["steps"] / pooled["step_s"] if pooled["step_s"] else 0.0


def own_metrics(workload, pooled, rounds):
    """The workload's own end-to-end metrics, as perfbench/BENCHMARK.md names them."""
    if workload == "rff_stream":
        return {"batch_ms_p50": (float(np.percentile(pooled["batch_ms"], 50)), "ms"),
                "batch_ms_p99": (float(np.percentile(pooled["batch_ms"], 99)), "ms"),
                "batches": (len(pooled["batch_ms"]), "count")}
    if workload == "sweep_cell":
        first = ("cell_s", statistics.median(pooled["cell_s"]))
    else:
        first = ("rows_s", statistics.median(rounds))
    return {first[0]: (first[1], "s"), "train_steps_per_s": (steps_per_s(pooled), "1/s")}


def load_program(args):
    """Import circe from the checkout's src/ and build the workload."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    size = workloads.FULL if args.size == "full" else workloads.SMOKE
    ref_path = HERE / "reference.json"
    references = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    reference = None
    if args.seed == 0 and args.size == "full" and not args.record_reference:
        reference = references.get(args.workload)
    bench = workloads.make(args.workload, args.seed, size)
    probe = tracing.Tracer(only=SWEEP_PROBES if args.workload == "sweep_cell" else set())
    return tracing, workloads, bench, probe, reference


def worker(args):
    """One untraced measurement: set-ups, then rounds; raw numbers as JSON."""
    _, workloads, bench, probe, reference = load_program(args)
    checks = workloads.Checks()
    setup_times = []
    with probe:
        for k in range(args.setups):
            t0 = time.perf_counter()
            bench.setup(k)
            setup_times.append(time.perf_counter() - t0)
    bench.setup_checks(checks, reference)
    # workers number their rounds apart, so sweep_cell cells stay fresh
    rounds = run_rounds(bench, probe, checks, reference, args.seconds,
                        first_round=100 * args.worker)
    print(json.dumps({
        "setup_times": setup_times, "round_times": rounds, "samples": bench.samples(probe),
        "peak_rss_mb": peak_rss_mb(), "checks": checks.outcomes,
        "record": bench.record() if args.record_reference else None,
    }))
    return 0


def measure(args):
    """Untraced run: the workload in fresh worker processes, one after another."""
    n_workers, setups = WORKERS[args.workload]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / n_workers),
           "--trace", "0", "--size", args.size, "--setups", str(setups)]
    if args.record_reference:
        cmd.append("--record-reference")
    parts = []
    for i in range(n_workers):
        proc = subprocess.run(cmd + ["--worker", str(i)], capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"worker exited with code {proc.returncode}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    setup_times = [t for p in parts for t in p["setup_times"]]
    rounds = [t for p in parts for t in p["round_times"]]
    pooled = merge([p["samples"] for p in parts])
    outcomes = [(f"w{i}/{label}", ok, detail) for i, p in enumerate(parts)
                for label, ok, detail in p["checks"]]
    failed = sum(not ok for _, ok, _ in outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(rounds),
        "steps_per_s": steps_per_s(pooled),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    own = own_metrics(args.workload, pooled, rounds)
    own.update(setup_s=(values["setup_s"], "s"), peak_rss_mb=(values["peak_rss_mb"], "MB"),
               fail_ratio=(failed / len(outcomes), "ratio"))
    extra = {"workers": n_workers, "setup_times": setup_times, "round_times": rounds,
             "worker_peak_rss_mb": [p["peak_rss_mb"] for p in parts],
             "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
             "record": parts[0]["record"]}
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in own.items()]
    lines += [f"[end-to-end] {k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    return metrics, outcomes, extra, lines


def traced(args):
    """Traced run in this process: set-up once, then traced and untraced rounds.

    After one untraced warm-up round, traced and untraced rounds alternate
    until the run length is used, so both see the same warm state and load.
    """
    tracing, workloads, bench, probe, reference = load_program(args)
    checks = workloads.Checks()
    tracer = tracing.Tracer()
    with tracer:
        tracer.call("bench.setup", bench.setup, 0)
    bench.setup_checks(checks, reference)
    run_rounds(bench, probe, checks, reference, 0.0)
    rounds, untraced, start, r = [], [], time.perf_counter(), 1
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds += run_rounds(bench, tracer, checks, reference, 0.0, first_round=r)
        untraced += run_rounds(bench, probe, checks, reference, 0.0, first_round=r + 1)
        r += 2
    overhead = statistics.median(rounds) - statistics.median(untraced)
    metrics, missing = tracing.layer_metrics(tracer, overhead, overhead / statistics.median(untraced))
    bad = tracer.tree_errors()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}_seed{args.seed}_trace1_spans.jsonl"
    tracer.write_jsonl(spans)
    extra = {"untraced_round_times": untraced, "traced_round_times": rounds,
             "missing": missing, "missing_targets": tracer.missing, "tree_errors": len(bad),
             "spans_file": spans.name, "n_spans": len(tracer.names),
             "peak_rss_mb": peak_rss_mb(),
             "record": bench.record() if args.record_reference else None}
    lines = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines += [f"missing {name}" for name in missing]
    lines.append(f"spans {len(tracer.names)}, tree errors {len(bad)}")
    return metrics, checks.outcomes, extra, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke shrinks every workload for the self-check")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the seed-0 reference values")
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--setups", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "circe" / "__init__.py").is_file():
        print(f"run.py: no circe package under {SRC}", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args)
    metrics, outcomes, extra, lines = (traced if args.trace else measure)(args)
    failed = sum(not ok for _, ok, _ in outcomes)
    result = {"provenance": provenance(args), "metrics": metrics, **extra,
              "attempted": len(outcomes), "failed": failed, "checks": outcomes}
    record = result.pop("record")
    if args.record_reference:
        ref_path = HERE / "reference.json"
        references = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
        references[args.workload] = record
        ref_path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for label, ok, detail in outcomes:
        if not ok:
            print(f"FAILED {label}: {detail}")
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} ops checked, "
          f"{failed} failed; result file {out_file.relative_to(ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
