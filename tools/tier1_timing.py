"""Time the Tier-1 test run and report its counts and slowest tests.

Usage:
    python tools/tier1_timing.py [PYTEST_ARGS ...]
    python tools/tier1_timing.py tests/test_kernels.py

Runs the Tier-1 command, `python -m pytest -q --continue-on-collection-errors`
from the repository root with src first on PYTHONPATH, in this process, with
PYTEST_ARGS appended (paths are read from the repository root). pytest's own
report goes to stderr. One JSON line goes to stdout: the wall seconds of the
run; the counts of collected, passed, failed, skipped and errored tests (an
error is a failed collection, setup or teardown); the five slowest tests with
their seconds (setup, call and teardown summed), slowest first; and the
OpenBLAS thread count of numpy at the start (harness.blas_threads). The exit
status is pytest's.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1_ARGS = ("-q", "--continue-on-collection-errors")
SLOWEST = 5


class Tally:
    """pytest plugin that counts outcomes and sums each test's durations."""

    def __init__(self):
        self.collected = 0
        self.counts = Counter()
        self.seconds = defaultdict(float)

    def pytest_collectreport(self, report):
        if report.failed:
            self.counts["errors"] += 1

    def pytest_collection_finish(self, session):
        self.collected = len(session.items)

    def pytest_runtest_logreport(self, report):
        self.seconds[report.nodeid] += report.duration
        if report.when == "call":
            self.counts[report.outcome] += 1
        elif report.failed:
            self.counts["errors"] += 1
        elif report.skipped:
            self.counts["skipped"] += 1


def main(argv=None):
    import pytest

    argv = list(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    from circe.harness import blas_threads

    threads = blas_threads()
    tally = Tally()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        status = pytest.main([*TIER1_ARGS, *argv], plugins=[tally])
    wall = time.perf_counter() - start
    slowest = sorted(tally.seconds.items(), key=lambda item: item[1], reverse=True)[:SLOWEST]
    print(json.dumps({
        "wall_s": round(wall, 3),
        "collected": tally.collected,
        **{key: tally.counts[key] for key in ("passed", "failed", "skipped", "errors")},
        "slowest": [{"test": test, "seconds": round(seconds, 3)} for test, seconds in slowest],
        "blas_threads": threads,
    }))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
