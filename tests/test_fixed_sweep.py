"""The fixed sweep reproduces its recorded results.csv, cell for cell.

tools/fixed_sweep.json is small (30 rows, about 2.4 s) but runs every method
on a uni case and two multi cases, so a change that moves any number of a
sweep shows here. multi2's two-column y takes a near full-width factor in its
LOO grid and the dense label Gram in its baselines' batch regressions, which
uni1 and multi1 do not. The sweep runs in a fresh interpreter with one
OpenBLAS thread: two one-thread runs are byte-identical, while the default
thread count moves the gcm cells by about 1e-14. Only wall_seconds is ignored.

`--workers 2` reproduces it at the default thread count too: run_sweep gives
each pool worker max(1, cores // workers) OpenBLAS threads, and that test holds
its interpreter to two cores, so each of the two workers runs one thread.

A change that moves a cell on purpose re-records the reference with
    OPENBLAS_NUM_THREADS=1 python -m circe sweep --config tools/fixed_sweep.json --out DIR
(copying DIR/results.csv to tools/fixed_sweep_reference.csv) and names the
cells it moved, and why, in CHANGES.md.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _diff_results():
    path = ROOT / "tools" / "diff_results.py"
    spec = importlib.util.spec_from_file_location("diff_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.diff_results


def _sweep_matches_reference(out, workers, env, prelude=()):
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, *prelude, "sweep", "--config",
           str(ROOT / "tools" / "fixed_sweep.json"), "--out", str(out),
           "--workers", workers]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reference = ROOT / "tools" / "fixed_sweep_reference.csv"
    assert _diff_results()(reference, out / "results.csv") == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fixed_sweep_matches_reference(tmp_path, workers):
    # at one thread the worker count never changes results: two worker
    # processes reproduce the one-process reference too
    _sweep_matches_reference(tmp_path, workers, dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                             ["-m", "circe"])


def test_pool_workers_at_the_default_thread_count_match_the_reference(tmp_path):
    # with no thread setting, each of two workers on two cores runs one
    # OpenBLAS thread; unpinned, each would run two and move the cells a
    # two-thread run moves
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    two_cores = ("import os, runpy; "
                 "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
                 "runpy.run_module('circe', run_name='__main__', alter_sys=True)")
    _sweep_matches_reference(tmp_path, "2", env, ["-c", two_cores])
