"""tools/tier1_timing.py runs a test selection and prints the JSON line it documents."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from circe.harness import blas_threads

ROOT = Path(__file__).resolve().parents[1]


def _timing(*pytest_args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "tier1_timing.py"), *pytest_args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout + proc.stderr
    return proc.returncode, json.loads(lines[0])


def test_tier1_timing_on_the_public_api_tests():
    status, out = _timing("tests/test_public_api.py")
    assert status == 0
    assert set(out) == {"wall_s", "collected", "passed", "failed", "skipped", "errors",
                        "slowest", "blas_threads"}
    assert math.isfinite(out["wall_s"]) and out["wall_s"] > 0
    assert out["collected"] == out["passed"] == 2
    assert out["failed"] == out["skipped"] == out["errors"] == 0
    assert {row["test"] for row in out["slowest"]} == {
        "tests/test_public_api.py::test_every_name_in_all_resolves_once",
        "tests/test_public_api.py::test_star_import_fills_a_fresh_namespace"}
    seconds = [row["seconds"] for row in out["slowest"]]
    assert seconds == sorted(seconds, reverse=True) and min(seconds) >= 0
    # numpy's OpenBLAS, which the child's environment sets to one thread
    assert out["blas_threads"] == (None if blas_threads() is None else 1)


def test_tier1_timing_counts_each_outcome(tmp_path):
    tests = tmp_path / "test_outcomes.py"
    tests.write_text(
        "import time\n"
        "import pytest\n"
        "@pytest.fixture\n"
        "def broken():\n"
        "    raise RuntimeError\n"
        "def test_slow():\n"
        "    time.sleep(0.2)\n"
        "def test_fails():\n"
        "    assert False\n"
        "def test_skips():\n"
        "    pytest.skip()\n"
        "def test_errors(broken):\n"
        "    pass\n"
        "@pytest.mark.parametrize('i', range(4))\n"
        "def test_passes(i):\n"
        "    pass\n")
    status, out = _timing(str(tests))
    assert status == 1
    assert (out["collected"], out["passed"], out["failed"], out["skipped"], out["errors"]) == (
        8, 5, 1, 1, 1)
    assert len(out["slowest"]) == 5
    assert out["slowest"][0]["test"].endswith("test_outcomes.py::test_slow")
    assert out["slowest"][0]["seconds"] >= 0.2
