"""Report the lines of ``src/trafficmarket`` that a test run never executes.

A pytest plugin, loaded only by name, with the repository root on
``sys.path`` (``python -m pytest`` puts the working directory there)::

    PYTHONPATH=src python -m pytest -q -p tests.line_tracer

From the start of the session to its end it traces, with ``sys.settrace``,
only frames whose code lives in ``src/trafficmarket/``, and each code object
only until all of its lines have run. At the end it prints
every statement inside a function body that never ran, as ``path:line``
with its source, and fails the session if it printed any. Module-level
statements run at import, often before the tracer starts, so they are not
counted; nor is code that runs in a subprocess. Tracing makes the run
several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trafficmarket"
_PREFIX = str(PACKAGE) + os.sep
#: (file, line) of every line event in the package
_ran: set[tuple[str, int]] = set()
#: code object to its lines that have not run yet, or to an empty set if
#: the code lies outside the package; a code object whose lines have all
#: run is traced no more, which keeps hot loops cheap
_pending: dict = {}
#: what ``never_ran`` returned when the session finished
_missed: list = []


def _trace_lines(frame, event, arg):
    if event == "line":
        pending = _pending[frame.f_code]
        if frame.f_lineno in pending:
            pending.discard(frame.f_lineno)
            _ran.add((frame.f_code.co_filename, frame.f_lineno))
            if not pending:
                frame.f_trace_lines = False
    return _trace_lines


def _trace_calls(frame, event, arg):
    code = frame.f_code
    pending = _pending.get(code)
    if pending is None:
        pending = _pending[code] = set()
        if os.path.realpath(code.co_filename).startswith(_PREFIX):
            # the def line itself runs no line event
            pending.update(line for _, _, line in code.co_lines() if line)
            pending.discard(code.co_firstlineno)
    return _trace_lines if pending else None


def _header(node: ast.stmt) -> range:
    """The lines of a statement that run when it does: a simple statement's
    own lines, or a compound statement's lines before its first child, its
    decorators included."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = max(start, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
    return range(start, end + 1)


def _function_statements(tree: ast.Module):
    """Each statement inside a function body, but for docstrings and for
    the statements that compile to no line event of their own."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if node is function or not isinstance(node, ast.stmt):
                continue
            if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal, ast.Pass)):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            yield node


def never_ran() -> list[tuple[Path, int, str]]:
    """(file, line, source) of each function-body statement that never ran."""
    ran = {(os.path.realpath(name), line) for name, line in _ran}
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in _function_statements(ast.parse(text)):
            header = _header(node)
            if not any((str(path), line) in ran for line in header):
                missed.add((path, header.start, lines[header.start - 1].strip()))
    return sorted(missed)


def pytest_sessionstart(session):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _missed[:] = never_ran()
    if _missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    root = PACKAGE.parents[1]
    terminalreporter.section(f"lines of {PACKAGE.relative_to(root)} never run: {len(_missed)}")
    for path, line, source in _missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {source}")
