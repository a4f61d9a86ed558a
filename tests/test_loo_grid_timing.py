"""tools/loo_grid_timing.py runs at its smoke size and prints the JSON it documents."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _positive(value):
    return math.isfinite(value) and value > 0


def test_loo_grid_timing_smoke_prints_its_json():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loo_grid_timing.py"),
                           "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["size"] == {"n": 1500, "m_holdout": 200, "seeds": [0], "repeats": 1,
                           "cold_runs": 1}
    assert set(out["cases"]) == {"uni1", "uni2", "multi1", "multi2"}
    for case in out["cases"].values():
        assert _positive(case["min_s"]) and case["min_s"] <= case["median_s"]
        assert isinstance(case["grid_minor_faults"], int) and case["grid_minor_faults"] >= 0
        # an M = 200 grid peaks at 1.3-1.9 MB
        assert 0 < case["grid_peak_mb"] < 10
        assert len(case["cold_first_call_s"]) == 1
        assert all(_positive(t) for t in case["cold_first_call_s"])
        assert case["cold_max_s"] == max(case["cold_first_call_s"])
        assert set(case["fit_cme_median_s"]) == {"0.001", "0.01", "0.1", "1.0"}
        assert all(_positive(t) for t in case["fit_cme_median_s"].values())
        rows = case["bandwidths"]["0"]
        assert [row["sigma2_y"] for row in rows] == [0.001, 0.01, 0.1, 1.0]
        for row in rows:
            assert 0 < row["rank"] <= row["width"] <= 200
        assert 0 < case["z_widths"]["0"] <= 200
    # at M = 200 1-d y is low rank at sigma2_y = 1, and 2-d y takes a
    # column per point at 0.001
    assert out["cases"]["uni1"]["bandwidths"]["0"][-1]["width"] < 100
    assert out["cases"]["multi2"]["bandwidths"]["0"][0]["width"] == 200
    # and 1-d z is low rank at sigma2_z = 1, while multi1's 2-d z factors
    # past M/2
    assert out["cases"]["uni1"]["z_widths"]["0"] < 100
    assert out["cases"]["multi1"]["z_widths"]["0"] > 100
