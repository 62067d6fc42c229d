#!/usr/bin/env python3
"""List the statements of ``src/logicdec/`` that a pytest run never executes.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
recording the lines run in frames whose file lies under ``src/logicdec/``,
then prints ``path:line: source`` for each statement that never ran, and
their count.  Statements come from ``ast``; docstrings and
``global``/``nonlocal`` declarations are left out.  A compound statement
counts as run when its header ran, a simple one when any of its lines did.

Only this process is traced, not the processes it spawns: the demos, the
CLI runs that tests start with ``subprocess`` and ``logicdec serve`` under
perfbench count as not run.  It needs only the stdlib and pytest.

Run from anywhere:  python tools/untested_lines.py [pytest args]
(the default runs the whole suite).  It exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logicdec"


def statement_lines(source: str) -> dict[int, range]:
    """First line of each statement -> the lines whose run counts as its run."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(first, max(last, node.lineno) + 1)
    return out


def run_traced(fn):
    """Call ``fn()`` under the line tracer, in this thread and any thread it
    starts; return its result and, per real path of a file under
    ``src/logicdec/``, the lines that ran."""
    package = os.path.realpath(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in inside:
            inside[path] = os.path.realpath(path).startswith(package)
        if not inside[path]:
            return None
        lines = ran.setdefault(os.path.realpath(path), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def report(ran: dict[str, set[int]]) -> int:
    """Print ``path:line: source`` for each statement of the package that
    never ran, then their count; return the count."""
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text("utf-8")
        text = source.splitlines()
        hit = ran.get(os.path.realpath(path), set())
        for line, counted in sorted(statement_lines(source).items()):
            if hit.isdisjoint(counted):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} statements never ran")
    return missed


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(lambda: pytest.main(argv))
    report(ran)
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
