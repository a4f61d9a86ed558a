"""tools/penalty_cost.py runs at its smoke size and prints the JSON it documents."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from circe.harness import blas_threads

ROOT = Path(__file__).resolve().parents[1]


def test_penalty_cost_smoke_prints_its_json():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "penalty_cost.py"), "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    # the tool reads numpy's OpenBLAS, which the child's environment sets to one
    # thread, and reports None where numpy bundles none
    assert out["blas_threads"] == (None if blas_threads() is None else 1)
    assert out["size"]["steps"] == 2
    assert set(out["cases"]) == {"uni1", "multi2"}
    for case in out["cases"].values():
        assert set(case["batch_sizes"]) == {"64", "256", "512"}
        for entry in case["batch_sizes"].values():
            assert set(entry["step_ms"]) == {"none", "circe", "hscic", "gcm"}
            assert all(math.isfinite(v) and v > 0 for v in entry["step_ms"].values())
            assert set(entry["penalty_ms"]) == {"circe", "hscic", "gcm"}
            assert entry["route"] == "dense" or entry["route"].startswith("factor:")
            assert entry["factor_attempt_ms"] > 0
    # 1-d y at uni1's winner is low rank, 2-d y at multi2's is not
    assert out["cases"]["uni1"]["batch_sizes"]["256"]["route"].startswith("factor:")
    assert out["cases"]["multi2"]["batch_sizes"]["256"]["route"] == "dense"
