"""tools/untested_lines.py traces a test selection and prints the JSON it documents."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "circe"


def _body_lines(path, name):
    """First lines of the statements in function name's body, docstring left out."""
    tree = ast.parse(path.read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    return [stmt.lineno for stmt in body]


def _untested(*pytest_args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "untested_lines.py"),
                           *pytest_args, "-q"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_untested_lines_on_the_kernel_tests():
    out = _untested("tests/test_kernels.py")
    assert set(out) == {f"circe.{path.stem}" for path in PACKAGE.glob("*.py")}
    for lines in out.values():
        assert all(isinstance(line, int) for line in lines)
        assert lines == sorted(set(lines))
    # the kernel tests build Grams but never run the command line
    gram_body = _body_lines(PACKAGE / "kernels.py", "gram")
    assert gram_body and not set(gram_body) & set(out["circe.kernels"])
    assert out["circe.cli"]


def test_untested_lines_follow_a_cli_subprocess():
    # test_gen_writes_csv runs `python -m circe gen` in a child interpreter;
    # in this process it only imports circe.cli, which runs its top-level
    # statements and no function body
    out = _untested("tests/test_cli.py::test_gen_writes_csv")
    spec = importlib.util.spec_from_file_location("untested_lines",
                                                  ROOT / "tools" / "untested_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (PACKAGE / "cli.py").read_text()
    top_level = {node.lineno for node in ast.parse(source).body}
    unfollowed = set(tool.statements(source)) - top_level
    assert set(out["circe.cli"]) < unfollowed
    assert not set(_body_lines(PACKAGE / "cli.py", "_cmd_gen")) & set(out["circe.cli"])
    assert out["circe.__main__"] == []
