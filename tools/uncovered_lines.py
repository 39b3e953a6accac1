"""Lines of the package that the test suite never runs: python3 tools/uncovered_lines.py [PYTEST_ARGS]

Runs pytest in this process, on `-q tests` unless given other arguments, with the
repository's src/ first on the import path and a line tracer installed through
sys.settrace and threading.settrace, so that the direction worker's thread is traced
too. It then prints each line of src/admmattack/*.py that has bytecode and never ran,
as path:line and the line's text, with docstrings left out, and a count. A line that
runs only in a child process, such as a `python -m admmattack` subprocess that a test
starts, is listed as well: the tracer sees this process only.

Needs the standard library and pytest. Traced, the whole suite took about 105 s on
2 vCPUs, against about 60 s untraced, so this is a tool to run by hand, not a CI step.
Exits with pytest's status when the suite does not pass, else 0.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "admmattack"


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> set:
    """The lines of a source file that have bytecode, docstrings left out."""
    source = path.read_text()
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - docstring_lines(ast.parse(source))


def trace_suite(pytest_args) -> tuple:
    """Run pytest under the line tracer: (its exit status, {path: lines that ran})."""
    files = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    local_tracers = {}  # co_filename -> the local tracer of its file, or None

    def local_tracer_for(filename):
        ran = files.get(os.path.abspath(filename))
        if ran is None:
            return None
        add = ran.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = local_tracers[filename]
        except KeyError:
            local = local_tracers[filename] = local_tracer_for(filename)
        if local is not None:
            local(frame, event, arg)  # the call event's line is the code's first line
        return local

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), files


def main(argv) -> int:
    status, ran = trace_suite(argv or ["-q", "tests"])
    missed = 0
    for name, lines in ran.items():
        path = Path(name)
        text = path.read_text().splitlines()
        for line in sorted(code_lines(path) - lines):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
