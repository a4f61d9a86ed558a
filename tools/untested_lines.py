"""List the statement lines of src/circe that a selection of tests never runs.

Usage:
    python tools/untested_lines.py [PYTEST_ARGS ...]
    python tools/untested_lines.py tests/test_kernels.py
    python tools/untested_lines.py tests --deselect tests/test_acceptance.py::test_criterion_08_runtime

Runs pytest in this process, with the given arguments, under a stdlib line
tracer (sys.settrace and threading.settrace) that records the lines executed
in the files of src/circe. The tracer starts before circe is imported, so
module-level statements count too. The statements of each module come from
its ast: a simple statement counts as executed if any of its lines ran, a
compound statement (def, class, if, for, try, with, ...) if its header or a
decorator line ran. Docstrings are not statements.

One JSON object goes to stdout: {"circe.<module>": [line, ...], ...}, the
unexecuted statement lines of every module, ascending, with an empty list
for a module whose statements all ran. pytest's own report goes to stderr,
and the exit status is pytest's. src/circe goes first on sys.path and on
PYTHONPATH, so the tests need no PYTHONPATH of their own.

It follows the Python interpreters that tests start (the `circe` command
line, the fixed sweep, the tools' smoke tests). A scratch directory holds a
generated sitecustomize.py and goes first on PYTHONPATH, and TRACE_DIR_VAR
names it. In a child that sees the variable, site imports that hook, which
starts the same tracer and, at the child's exit, writes the lines it saw to
a JSON file there; the report merges every file. A child that ends through
os._exit writes nothing: the workers of a `--workers 2` process pool end
that way, so what only they run counts as unexecuted, though the pool's
parent is followed.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circe"
TRACE_DIR_VAR = "CIRCE_UNTESTED_LINES_DIR"
# the children's sitecustomize: tools/ is not on their sys.path, so it loads
# this file by its path, then calls follow_child
HOOK = '''import importlib.util
spec = importlib.util.spec_from_file_location("_untested_lines", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.follow_child()
'''


def statements(source: str) -> dict:
    """{first line: lines whose execution means the statement ran} for every
    statement of a module's source, docstrings left out."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines = set(range(node.lineno, max(last, node.lineno) + 1))
        lines.update(d.lineno for d in getattr(node, "decorator_list", ()))
        out[node.lineno] = lines
    return out


def untested(executed: dict) -> dict:
    """{"circe.<module>": sorted unexecuted statement lines} over PACKAGE."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        stmts = statements(path.read_text())
        report[f"circe.{path.stem}"] = sorted(
            first for first, lines in stmts.items() if not lines & ran)
    return report


def start_tracing() -> dict:
    """Trace this thread and every thread started from now on; returns
    {resolved path under PACKAGE: set of lines run}, filled as they run."""
    executed: dict = {}
    watched: dict = {}    # co_filename -> its set in executed, or None

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in watched:
            path = Path(filename).resolve()
            watched[filename] = (executed.setdefault(str(path), set())
                                 if path.parent == PACKAGE else None)
        lines = watched[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    return executed


def follow_child() -> None:
    """In a child interpreter started under main: trace it, and write the
    lines it ran to a new file in TRACE_DIR_VAR's directory when it exits."""
    trace_dir = os.environ.get(TRACE_DIR_VAR)
    if not trace_dir:
        return
    executed = start_tracing()

    def write():
        sys.settrace(None)
        fd, path = tempfile.mkstemp(suffix=".json", dir=trace_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump({name: sorted(lines) for name, lines in executed.items()}, fh)

    atexit.register(write)


def main(argv=None):
    import pytest

    argv = list(sys.argv[1:] if argv is None else argv)
    trace_dir = tempfile.mkdtemp(prefix="untested_lines_")
    hook = HOOK.format(path=str(Path(__file__).resolve()))
    Path(trace_dir, "sitecustomize.py").write_text(hook)
    # this process and the child interpreters that tests start import src/circe
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [trace_dir, str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.environ[TRACE_DIR_VAR] = trace_dir
    executed = start_tracing()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        for path in Path(trace_dir).glob("*.json"):
            for name, lines in json.loads(path.read_text()).items():
                executed.setdefault(name, set()).update(lines)
        shutil.rmtree(trace_dir)
    json.dump(untested(executed), sys.stdout, indent=1)
    print()
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
