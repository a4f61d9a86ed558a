"""The benchmark's output contract, on the smoke size of every workload.

perfbench/run.py reports a run as the last line of its stdout, one JSON
object. A run that exits 0 but prints anything after that line, writes a
non-finite metric (json.dumps spells it NaN) or loses a metric because a
wrapped module attribute no longer resolves is a run the benchmark cannot
read, so each of those fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {0: [m["name"] for m in SPEC["end_to_end"]],
           1: [m["name"] for m in SPEC["per_layer"]]}


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_a_strict_json_result(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "smoke",
           "--seconds", "0", "--seed", "3", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(METRICS[trace])
