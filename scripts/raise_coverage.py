#!/usr/bin/env python3
"""Run the test suite under a line trace and list each raise in src/distreg that no test reaches.

Usage:
    python scripts/raise_coverage.py

It runs the suite as ``python -m pytest -q --continue-on-collection-errors``
does, from the root of the checkout with src/ first on the path.  Every
thread is traced (sys.settrace and threading.settrace), but only frames of
files under src/distreg get a line tracer, so the suite runs about 1.5x
slower.  Exits nonzero if pytest fails or if any ``raise`` statement in
src/distreg/*.py never ran, and prints each such raise as path:line.
Subprocesses that the tests start are not traced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distreg"


def raise_sites() -> set[tuple[str, int]]:
    """(file, line) of every raise statement in src/distreg/*.py."""
    return {
        (str(path), node.lineno)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise)
    }


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
    sites = raise_sites()
    missed = sorted(sites - ran)
    for path, line in missed:
        print(f"raise_coverage: never ran: {os.path.relpath(path, ROOT)}:{line}")
    if code:
        print(f"raise_coverage: pytest exited with {code}")
    print(f"raise_coverage: {len(sites) - len(missed)} of {len(sites)} raises in src/distreg ran")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
