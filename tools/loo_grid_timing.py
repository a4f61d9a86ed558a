"""Time the LOO grid (cme.select_hyperparams) and fit_cme on the four SCM cases.

Usage:
    python tools/loo_grid_timing.py [--src DIR]

For uni1, uni2, multi1 and multi2 at a 1000-point holdout (n=10000, d=2,
the harness's standardization and default grids), each seed's grid runs
REPEATS times, and so does fit_cme at each sigma2_y of the grid and the
grid's winning lambda. One JSON object goes to stdout: per case, the min
and median grid seconds over every repeat of every seed, the median
fit_cme seconds per sigma2_y, and per seed and sigma2_y the path taken
("factor" or "eigh"), the factor width and the kept rank; plus the BLAS
thread count. --src picks the package to time, so the same script measures
two checkouts, such as a parent commit and a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("uni1", "uni2", "multi1", "multi2")
SEEDS = (0, 1, 2)
REPEATS = 5


def timed(fn, *args):
    """Seconds of REPEATS calls of fn(*args), and its last result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return times, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT))
    import numpy as np
    from circe import cme, scm
    from circe.kernels import KernelParams
    from perfbench.run import blas_threads

    z_params = KernelParams(sigma2=1.0)
    cases = {}
    for case in CASES:
        grid_times, fit_times, bandwidths = [], {}, {}
        for seed in SEEDS:
            ds = scm.make_dataset(case, 10_000, 2, seed, m_holdout=1000)
            y = ds.standardizer.transform("y", ds.holdout.y)
            z = ds.standardizer.transform("z", ds.holdout.z)
            times, (_, report) = timed(cme.select_hyperparams, y, z)
            grid_times += times
            for s2 in cme.DEFAULT_SIGMA2_Y_GRID:
                times, _ = timed(cme.fit_cme, y, z, report.best_lam,
                                 KernelParams(sigma2=s2), z_params)
                fit_times.setdefault(str(s2), []).extend(times)
            # a package without the factor ran the dense eigh everywhere
            widths = getattr(report, "factor_widths", np.zeros(len(report.ranks), int))
            bandwidths[seed] = [
                {"sigma2_y": float(s2), "path": "factor" if w else "eigh",
                 "width": int(w) or None, "rank": int(rank)}
                for (s2, _, rank), w in zip(report.floor_rows(), widths)
            ]
        cases[case] = {"min_s": min(grid_times), "median_s": statistics.median(grid_times),
                       "fit_cme_median_s": {s2: statistics.median(t)
                                            for s2, t in fit_times.items()},
                       "bandwidths": bandwidths}
    print(json.dumps({"src": args.src, "repeats": REPEATS, "seeds": SEEDS,
                      "blas_threads": blas_threads(), "cases": cases}))


if __name__ == "__main__":
    main()
