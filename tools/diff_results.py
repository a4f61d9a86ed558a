"""Compare two sweep results.csv files cell by cell, ignoring wall_seconds.

Usage: python tools/diff_results.py A.csv B.csv

Rows are matched on (case, method, gamma, seed) and cells are compared as
the harness writes them (RunRecord.as_row), so NaN equals NaN. Prints one
line per differing (case, method, gamma, seed, column), with the relative
size |b - a| / max(|a|, |b|) of a difference between two finite numbers,
then exits 1 if anything differs and 0 otherwise (2 on a usage error).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circe.harness import CSV_COLUMNS, read_records_csv  # noqa: E402

IGNORED_COLUMNS = ("wall_seconds",)


def _rows(path):
    rows = {}
    for record in read_records_csv(path):
        key = (record.case_id, record.method, record.gamma, record.seed)
        rows[key] = dict(zip(CSV_COLUMNS, record.as_row()))
    return rows


def _relative(a: str, b: str) -> str:
    """' (rel X)' for two finite numeric cells, '' otherwise."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return ""
    if not (math.isfinite(x) and math.isfinite(y)):
        return ""
    scale = max(abs(x), abs(y))
    return f" (rel {abs(y - x) / scale if scale else 0.0:.2g})"


def diff_results(path_a, path_b) -> list:
    """One line per differing cell, or per row present in only one file."""
    a, b = _rows(path_a), _rows(path_b)
    lines = []
    for key in list(a) + [k for k in b if k not in a]:
        label = " ".join(str(part) for part in key)
        if key not in a or key not in b:
            lines.append(f"{label}: row only in {path_a if key in a else path_b}")
            continue
        for column in CSV_COLUMNS:
            if column not in IGNORED_COLUMNS and a[key][column] != b[key][column]:
                old, new = a[key][column], b[key][column]
                lines.append(f"{label} {column}: {old} -> {new}{_relative(old, new)}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = diff_results(*args)
    for line in lines:
        print(line)
    if not lines:
        print(f"no differences except {', '.join(IGNORED_COLUMNS)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
