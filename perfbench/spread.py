"""Run workloads over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 10 [--workloads sweep_cell rff_stream] [--trace 0]

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json. For every end-to-end metric it prints the
median of the runs and the spread, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. Writes the values to perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads:
        values, walls, failed = {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += last["failed"] + (not last["correct"])
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall, failed {last['failed']}", flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "spread": spread, "values": vals}
            bound = bounds.get(name)
            note = "" if bound is None else f"bound {bound}, {'ok' if spread < bound / 3 else 'WIDE'}"
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                ok = False
            print(f"  {name:28s} median {med:.6g}  spread {spread:.4f}  {note}")
        print(f"  wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
              f"failed ops {failed}")
        report[workload] = {"metrics": rows, "walls": walls, "failed": failed}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
