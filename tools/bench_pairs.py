"""Run perfbench on two checkouts in alternating pairs and summarize them.

Usage:
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each checkout is a directory holding src/ and perfbench/, such as a
`git clone` of a commit. Ten pairs run; pair i runs every workload of
BENCHMARK.json at seed i on both checkouts with its run length; the parent goes first in
even pairs and the change in odd ones. The output JSON holds, per workload
and end-to-end metric, {min, q1, median, q3, max, n} for each side, the
change's wins over the parent (ties count for neither) and a verdict, plus
each side's commit and BLAS thread counts as perfbench recorded them. The
verdicts are also printed as a table:

- gain: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's BENCHMARK.json bound, a share of the parent's median;
- within_bound: anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run; its metrics and its result file's provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((checkout / "perfbench" / "out" /
                         f"{workload}_seed{seed}_trace0.json").read_text())
    return {"metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "attempted": last["attempted"], "failed": last["failed"],
            "provenance": result["provenance"]}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values), "n": len(values)}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Quartiles, wins and verdict of one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(parent, change))
    gain_by = sign * (c["median"] - p["median"])
    if wins >= 0.9 * len(parent) and gain_by > p["q3"] - p["q1"]:
        verdict = "gain"
    elif -gain_by > bound * abs(p["median"]):
        verdict = "worse"
    else:
        verdict = "within_bound"
    return {"better": better, "parent": p, "change": c, "change_wins": wins,
            "verdict": verdict}


def verdict_table(workloads: dict) -> str:
    """One line per workload and metric: both medians, the wins and the verdict."""
    lines = [f"{'workload':<16} {'metric':<12} {'parent':>10} {'change':>10} {'wins':>5}  verdict"]
    for workload, entry in workloads.items():
        for metric, m in entry["metrics"].items():
            lines.append(f"{workload:<16} {metric:<12} {m['parent']['median']:>10.4g} "
                         f"{m['change']['median']:>10.4g} {m['change_wins']:>2}/{m['parent']['n']:<2}"
                         f"  {m['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {side: [] for side in sides} for w in WORKLOADS}
    for seed in range(PAIRS):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                run = run_once(sides[side], workload, seed)
                runs[workload][side].append(run)
                print(f"pair {seed} {workload} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)

    out = {"pairs": PAIRS, "seeds": [0, PAIRS - 1],
           "run_seconds": SPEC["run_seconds"], "sides": {}, "workloads": {}}
    for side in sides:
        prov = runs[WORKLOADS[0]][side][0]["provenance"]
        out["sides"][side] = {k: prov[k] for k in
                              ("commit", "source_sha256", "blas_threads", "blas_env", "nproc")}
    for workload, by_side in runs.items():
        entry = {"failed": {s: sum(r["failed"] for r in rs) for s, rs in by_side.items()},
                 "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in by_side.items()},
                 "metrics": {}}
        for m in SPEC["end_to_end"]:
            entry["metrics"][m["name"]] = compare(
                [r["metrics"][m["name"]] for r in by_side["parent"]],
                [r["metrics"][m["name"]] for r in by_side["change"]], m["better"], m["bound"])
        out["workloads"][workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(verdict_table(out["workloads"]))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
