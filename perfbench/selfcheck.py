"""Self-check of the benchmark at smoke size; exits non-zero on any problem.

    python3 perfbench/selfcheck.py

For every workload it checks that:
- an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
  each with its unit and a finite value above 0;
- a traced run emits every per-layer metric or names it as missing, and its
  spans form a tree: children lie inside their parents, self time >= 0;
- two runs with the same seed give identical check outcomes.
It also checks that a directory holding only BENCHMARK.json and the
benchmark's files, without the package, makes the command fail without a
result. Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(spec, cwd, workload, trace, seed=3):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                             "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, trace, seed=3):
    return json.loads((HERE / "out" / f"{workload}_seed{seed}_trace{trace}.json").read_text())


def span_problems(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    own = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    out = []
    for s in spans:
        if s["end_s"] < s["start_s"]:
            out.append(f"span {s['id']} ends before it starts")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if not (p["start_s"] <= s["start_s"] and s["end_s"] <= p["end_s"]):
                out.append(f"span {s['id']} {s['name']} outside parent {p['name']}")
            own[p["id"]] -= s["end_s"] - s["start_s"]
    out += [f"span {i} self time {t:.3g} s < 0" for i, t in own.items() if t < -1e-9]
    return out


def check_workload(spec, workload):
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    outcomes = []
    for _ in range(2):
        proc = run(spec, ROOT, workload, 0)
        if proc.returncode != 0:
            return [f"untraced run exited {proc.returncode}: {proc.stderr[-500:]}"]
        out = last_json(proc)
        if set(out) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(out)}")
        if set(out["metrics"]) != set(e2e):
            problems.append(f"end-to-end metrics {sorted(out['metrics'])} != {sorted(e2e)}")
        for name, m in out["metrics"].items():
            if m.get("unit") != e2e.get(name):
                problems.append(f"{name} unit {m.get('unit')} != {e2e.get(name)}")
            if not (isinstance(m["value"], float) and math.isfinite(m["value"]) and m["value"] > 0):
                problems.append(f"{name} value {m['value']} is not a positive number")
        if not out["correct"] or out["failed"]:
            problems.append(f"{out['failed']} of {out['attempted']} ops failed")
        outcomes.append([(label, ok) for label, ok, _ in result_file(workload, 0)["checks"]])
    if outcomes[0] != outcomes[1]:
        problems.append("check outcomes differ between two runs of the same seed")

    proc = run(spec, ROOT, workload, 1)
    if proc.returncode != 0:
        return problems + [f"traced run exited {proc.returncode}: {proc.stderr[-500:]}"]
    out = last_json(proc)
    res = result_file(workload, 1)
    reported = set(out["metrics"]) | set(res["missing"])
    if reported != set(layers):
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"{sorted(reported ^ set(layers))}")
    for name, m in out["metrics"].items():
        if m.get("unit") != layers.get(name):
            problems.append(f"{name} unit {m.get('unit')} != {layers.get(name)}")
    problems += span_problems(HERE / "out" / res["spans_file"])
    return problems


def check_without_package(spec):
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["run without the package exited 0"]
    if proc.stdout.strip():
        return [f"run without the package printed {proc.stdout.strip()[:200]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        problems = check_workload(spec, w["name"])
        failures += len(problems)
        print(f"{w['name']}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    problems = check_without_package(spec)
    failures += len(problems)
    print(f"without package: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
