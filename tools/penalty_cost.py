"""Time one training step per penalty at several batch sizes: the penalty cost.

Usage:
    python tools/penalty_cost.py [--src DIR] [--smoke]

For uni1 and multi2 at seed 0 (n=10000, d=2, a 1000-point holdout, the
harness's standardization and LOO grid), each penalty (circe, hscic, gcm)
and the unpenalized step run STEPS training steps at B = 64, 256 and 512:
the batch's centered Gram for circe (gathered from the cell's cross
factors, as train does), loss_and_grad and the optimizer step, with the
LOO winner's lam and sigma2_y and each method's middle default gamma.
Each method runs all its steps on the same batches, on its own model,
before the next method starts: taking turns step by step let one
method's heap state slow the next one's step (circe at B = 512 read
2-3 ms slower after the factor-path baselines). One JSON object goes to
stdout: per case the LOO winner, and per batch size the median ms per
step of each method, the penalty cost (a
penalty's median step minus the unpenalized one), the route of the first
batch's ridge regression ("factor" with its width, or "dense") and the
median ms of that batch's factor attempt, which a dense batch pays on top
of its dense solve; plus the BLAS thread count. The attempt computes the
pivot rows of the batch's K_yy itself and builds no Gram. --src picks the
package to time, so the same script measures two checkouts, such as a
parent commit and a change.
--smoke runs every path at n=1500, M=200 and 2 steps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("uni1", "multi2")
METHODS = ("none", "circe", "hscic", "gcm")
BATCH_SIZES = (64, 256, 512)
SEED = 0
FULL = dict(n=10_000, m_holdout=1000, steps=30)
SMOKE = dict(n=1500, m_holdout=200, steps=2)


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    size = SMOKE if args.smoke else FULL
    sys.path.insert(0, args.src)
    import numpy as np
    from circe import baselines, harness, kernels
    from circe.estimator import centered_from_factors, cross_factors
    from circe.nn import MlpModel, make_optimizer
    from circe.trainer import TrainConfig, loss_and_grad

    cases = {}
    for case in CASES:
        config = harness.SweepConfig([case], ["none"], seeds=[SEED], n=size["n"],
                                     m_holdout=size["m_holdout"])
        _, cme, _, data = harness._prepare_case(config, case, SEED)
        train = data.train
        factors = cross_factors(train.y, train.z, cme)
        lr, wd = harness.CASE_OPTIM_DEFAULTS[case]
        rng = np.random.default_rng(SEED)
        batches = {}
        for b in BATCH_SIZES:
            idxs = [rng.choice(train.n, b, replace=False) for _ in range(size["steps"])]
            step_ms = {}
            for method in METHODS:
                grid = harness.DEFAULT_GAMMA_GRIDS[method]
                config = TrainConfig(
                    method=method, gamma=float(grid[len(grid) // 2]), batch_size=b,
                    lr=lr, weight_decay=wd, seed=SEED, lam=cme.lam,
                    sigma2_y=cme.y_params.sigma2)
                model = MlpModel(train.inputs.shape[1], config.hidden_widths, seed=SEED)
                optimizer = make_optimizer(config.optimizer, config.lr, config.weight_decay)
                times = []
                for idx in idxs:
                    mini = train.take(idx)
                    start = time.perf_counter()
                    centered = None
                    if method == "circe":
                        centered = centered_from_factors(
                            mini.y, mini.z, cme.y_params, cme.z_params,
                            *(f[idx] for f in factors))
                    _, grads, _ = loss_and_grad(model, mini, config, centered)
                    optimizer.step(model.params, grads)
                    times.append(time.perf_counter() - start)
                step_ms[method] = 1e3 * statistics.median(times)
            entry = {"step_ms": step_ms,
                     "penalty_ms": {m: step_ms[m] - step_ms["none"] for m in METHODS[1:]}}
            first = train.take(idxs[0])

            def attempt():
                return kernels.pivoted_cholesky(first.y, cme.y_params,
                                                baselines.FACTOR_STOP, b // 8)

            gt = attempt()
            entry["route"] = "dense" if gt is None else f"factor:{gt.shape[0]}"
            entry["factor_attempt_ms"] = median_ms(attempt, size["steps"])
            batches[str(b)] = entry
        cases[case] = {"lam": cme.lam, "sigma2_y": cme.y_params.sigma2,
                       "batch_sizes": batches}
    print(json.dumps({"src": args.src, "seed": SEED, "size": size,
                      "blas_threads": harness.blas_threads(), "cases": cases}))


if __name__ == "__main__":
    main()
