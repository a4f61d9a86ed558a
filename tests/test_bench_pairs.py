import importlib.util
from pathlib import Path

import pytest


def _load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]   # median 10, IQR 0.35


@pytest.mark.parametrize("better, change, wins, verdict", [
    # higher is better: +20% in every pair
    ("higher", [p * 1.2 for p in PARENT], 10, "gain"),
    # nine of ten wins and a median step beyond the IQR still count
    ("higher", [p + 1.0 for p in PARENT[:9]] + [PARENT[9] - 1.0], 9, "gain"),
    # eight wins are too few, however large the step
    ("higher", [p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]], 8, "within_bound"),
    # every pair won, but by less than the parent's own spread
    ("higher", [p + 0.1 for p in PARENT], 10, "within_bound"),
    # a tie counts for neither side
    ("higher", list(PARENT), 0, "within_bound"),
    # 20% lower is inside a 25% bound, 30% lower is not
    ("higher", [p * 0.8 for p in PARENT], 0, "within_bound"),
    ("higher", [p * 0.7 for p in PARENT], 0, "worse"),
    # lower is better: the same numbers read the other way
    ("lower", [p * 0.7 for p in PARENT], 10, "gain"),
    ("lower", [p * 1.2 for p in PARENT], 0, "within_bound"),
    ("lower", [p * 1.3 for p in PARENT], 0, "worse"),
])
def test_verdict_on_synthetic_pairs(better, change, wins, verdict):
    tool = _load_tool()
    result = tool.compare(PARENT, change, better, 0.25)
    assert result["change_wins"] == wins
    assert result["verdict"] == verdict
    assert result["parent"]["median"] == 10.0
    table = tool.verdict_table({"w": {"metrics": {"m": result}}})
    assert table.splitlines()[-1].split()[-1] == verdict
