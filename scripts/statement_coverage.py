#!/usr/bin/env python3
"""Run the test suite under a line trace and list each statement in src/distreg that no test reaches.

Usage:
    python scripts/statement_coverage.py

It runs the suite as ``python -m pytest -q --continue-on-collection-errors``
does, from the root of the checkout with src/ first on the path.  Every
thread is traced (sys.settrace and threading.settrace), but only frames of
files under src/distreg get a line tracer, so the suite runs about 1.5x
slower.  Exits nonzero if pytest fails or if any statement in
src/distreg/*.py never ran, and prints each such statement as path:line.
Docstrings and the body of ``if __name__ == "__main__":`` are left out.  A
statement counts as run when its first line is traced.  Subprocesses that
the tests start are not traced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distreg"
MAIN_TEST = "__name__ == '__main__'"  # ast.unparse of a main guard's test


def _is_docstring(node: ast.AST) -> bool:
    """A bare string statement: a docstring, or another string that compiles to nothing."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statement_sites() -> set[tuple[str, int]]:
    """(file, first line) of every statement in src/distreg/*.py but docstrings and the body of a main guard."""
    sites = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        guards = [node for node in ast.walk(tree) if isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_TEST]
        skipped = {inner for guard in guards for stmt in guard.body for inner in ast.walk(stmt)}
        sites |= {
            (str(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in skipped and not _is_docstring(node)
        }
    return sites


def traced_run() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs that ran in src/distreg."""
    ran: set[tuple[str, int]] = set()
    ours: dict[str, str | None] = {}  # co_filename -> its resolved path if under src/distreg, else None

    def local(frame, event, arg):
        if event == "line":
            ran.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if os.path.dirname(path) == str(SRC) else None
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    code, ran = traced_run()
    sites = statement_sites()
    missed = sorted(sites - ran)
    for path, line in missed:
        print(f"statement_coverage: never ran: {os.path.relpath(path, ROOT)}:{line}")
    if code:
        print(f"statement_coverage: pytest exited with {code}")
    print(f"statement_coverage: {len(sites) - len(missed)} of {len(sites)} statements in src/distreg ran")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
