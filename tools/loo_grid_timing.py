"""Time the LOO grid (cme.select_hyperparams) and fit_cme on the four SCM cases.

Usage:
    python tools/loo_grid_timing.py [--src DIR] [--smoke]

For uni1, uni2, multi1 and multi2 at a 1000-point holdout (n=10000, d=2,
the harness's standardization and default grids), each seed's grid runs
`repeats` times, and so does fit_cme at each sigma2_y of the grid and the
grid's winning lambda. Each case's grid also runs once in each of
`cold_runs` fresh child interpreters, as the first call after the imports
and the dataset: a stall of the first BLAS call in a process shows only
there, since every later call is warm. Cold run i uses seed i modulo the
seed count. One JSON object goes to stdout: per case, the min and median
grid seconds over every repeat of every seed, each cold first-call time
and their max, the median fit_cme seconds per sigma2_y, per seed and
sigma2_y the width of the K_YY factor and the kept rank, and per seed the
width of the K_ZZ factor; and for one more grid call on the first seed its
minor page faults, then for another its tracemalloc peak in MB (2^20 bytes,
numpy's buffers counted exactly); plus the size and the BLAS thread
count. --src picks the package to time, so the same script measures two
checkouts, such as a parent commit and a change. --smoke runs every path
at n=1500, M=200, one seed, one repeat and one cold run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("uni1", "uni2", "multi1", "multi2")
FULL = dict(n=10_000, m_holdout=1000, seeds=(0, 1, 2), repeats=5, cold_runs=5)
SMOKE = dict(n=1500, m_holdout=200, seeds=(0,), repeats=1, cold_runs=1)


def holdout(case, seed, size):
    """The standardized holdout (y, z) of one cell, as the harness builds it."""
    from circe import scm

    ds = scm.make_dataset(case, size["n"], 2, seed, m_holdout=size["m_holdout"])
    return (ds.standardizer.transform("y", ds.holdout.y),
            ds.standardizer.transform("z", ds.holdout.z))


def timed(repeats, fn, *args):
    """Seconds of `repeats` calls of fn(*args), and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return times, out


def grid_memory(select, y, z):
    """Minor page faults of one grid call, then the tracemalloc peak (MB) of another."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    select(y, z)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        select(y, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return faults, peak / 2**20


def cold_first_call(src, case, seed, smoke):
    """Seconds of one grid in a fresh interpreter, its first call after the imports."""
    cmd = [sys.executable, __file__, "--src", src, "--cold", case, str(seed)]
    proc = subprocess.run(cmd + ["--smoke"] * smoke, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cold", nargs=2, metavar=("CASE", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    size = SMOKE if args.smoke else FULL
    sys.path.insert(0, args.src)
    if args.cold:
        from circe import cme

        y, z = holdout(args.cold[0], int(args.cold[1]), size)
        (seconds,), _ = timed(1, cme.select_hyperparams, y, z)
        print(json.dumps(seconds))
        return
    from circe import cme, harness
    from circe.kernels import KernelParams

    z_params = KernelParams(sigma2=1.0)
    seeds = size["seeds"]
    cases = {}
    for case in CASES:
        grid_times, fit_times, bandwidths, z_widths = [], {}, {}, {}
        for seed in seeds:
            y, z = holdout(case, seed, size)
            times, (_, report) = timed(size["repeats"], cme.select_hyperparams, y, z)
            grid_times += times
            if seed == seeds[0]:
                faults, peak_mb = grid_memory(cme.select_hyperparams, y, z)
            for s2 in cme.DEFAULT_SIGMA2_Y_GRID:
                times, _ = timed(size["repeats"], cme.fit_cme, y, z, report.best_lam,
                                 KernelParams(sigma2=s2), z_params)
                fit_times.setdefault(str(s2), []).extend(times)
            bandwidths[seed] = [
                {"sigma2_y": float(s2), "width": int(w), "rank": int(rank)}
                for (s2, _, rank), w in zip(report.floor_rows(), report.factor_widths)
            ]
            z_widths[seed] = int(report.z_factor_width)
        cold = [cold_first_call(args.src, case, seeds[i % len(seeds)], args.smoke)
                for i in range(size["cold_runs"])]
        cases[case] = {"min_s": min(grid_times), "median_s": statistics.median(grid_times),
                       "grid_minor_faults": faults, "grid_peak_mb": peak_mb,
                       "cold_first_call_s": cold, "cold_max_s": max(cold),
                       "fit_cme_median_s": {s2: statistics.median(t)
                                            for s2, t in fit_times.items()},
                       "bandwidths": bandwidths, "z_widths": z_widths}
    print(json.dumps({"src": args.src, "size": size, "blas_threads": harness.blas_threads(),
                      "cases": cases}))


if __name__ == "__main__":
    main()
