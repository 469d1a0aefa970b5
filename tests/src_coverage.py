"""Statement-coverage gate for ``src/pedmap``, with the standard library only.

Runs the tier-1 suite (``tests/`` and ``bench/``) in this process under a
``sys.settrace`` line collector that traces only ``src/pedmap`` frames, then
parses each module with ``ast`` and lists every statement that never ran.
Exits non-zero when the suite fails, when a statement outside ``ALLOWED``
never ran, or when an ``ALLOWED`` entry is stale: no unrun statement in its
file reads as it does, so it would only hide a later one that did::

    PYTHONPATH=src python tests/src_coverage.py

Extra arguments go to pytest.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pedmap")

# Statements no test can run, as ``(file, source line)``: the body of the
# ``if __name__ == "__main__":`` guard, which runs only under ``python -m``.
ALLOWED = {("cli.py", "main()")}


def _statement_lines(stmt: ast.stmt) -> set[int]:
    """The lines a statement itself occupies (decorators and headers included),
    without the lines of the statements nested in it."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    lines = set(range(first, stmt.end_lineno + 1))
    for child in ast.iter_child_nodes(stmt):
        for node in ast.walk(child):
            if isinstance(node, ast.stmt):
                lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def statements(source: str) -> list[tuple[int, set[int]]]:
    """``(line, lines)`` per statement of a module that compiles to code: every
    ``ast.stmt`` except docstrings and other bare constants, which compile to none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            found.append((node.lineno, _statement_lines(node)))
    return sorted(found)


def missed(executed: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """``(file, line, source line)`` per ``src/pedmap`` statement none of whose lines ran."""
    result = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            source = f.read()
        ran = executed.get(name, set())
        source_lines = source.splitlines()
        for line, lines in statements(source):
            if not lines & ran:
                result.append((name, line, source_lines[line - 1].strip()))
    return result


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with a line collector on every ``src/pedmap`` frame; return its exit
    code and the lines run, per file name."""
    executed: dict[str, set[int]] = {}
    local_tracers = {}  # per code file name: the line tracer for its frames, or None

    def local_tracer_for(filename: str):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != os.path.realpath(SRC):
            return None
        lines = executed.setdefault(os.path.basename(path), set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_tracers[filename]
        except KeyError:
            tracer = local_tracers[filename] = local_tracer_for(filename)
            return tracer

    sys.settrace(trace_calls)  # before pytest imports pedmap, so its module-level statements count
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, executed = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    if code != 0:
        print(f"src_coverage: the suite failed (pytest exit code {code})", file=sys.stderr)
        return code
    unrun = missed(executed)
    unexpected = [(name, line, text) for name, line, text in unrun if (name, text) not in ALLOWED]
    for name, line, text in unexpected:
        print(f"src/pedmap/{name}:{line}: never run: {text}", file=sys.stderr)
    stale = sorted(ALLOWED - {(name, text) for name, _, text in unrun})
    for name, text in stale:
        print(f"src/pedmap/{name}: stale exemption, no unrun statement reads: {text}", file=sys.stderr)
    if unexpected or stale:
        print(f"src_coverage: {len(unexpected)} statement(s) no test runs, {len(stale)} stale exemption(s)", file=sys.stderr)
        return 1
    print(f"src_coverage: every src/pedmap statement ran, apart from {len(ALLOWED)} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
