"""Run the test suite in-process and fail on any statement under src/radclust that never ran.

Usage, from the repository root::

    PYTHONPATH=src python tests/statement_coverage.py [pytest arguments]

The arguments go to ``pytest.main`` unchanged. ``coverage`` is not a
dependency, so lines are recorded with ``sys.settrace``: the tracer follows
only frames whose code lives under ``src/radclust`` and returns None for the
rest, which keeps the traced run close to the untraced one. A statement is
every line that some compiled code object of a package file maps an
instruction to (``co_lines()``). Code run in a subprocess is not traced, so
only in-process tests count. Exits with pytest's code if the tests fail,
else 1 if any statement never ran (each one printed as ``path:line``), else 0.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radclust"


def statements(path):
    """Every line of ``path`` that one of its code objects maps an instruction to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    root = str(PACKAGE) + os.sep
    executed, inside = set(), {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        keep = inside.get(name)
        if keep is None:
            keep = inside[name] = os.path.realpath(name).startswith(root)
        if keep:
            # the code object's entry line (line 0 for a module), which no line event reports
            executed.add((name, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {}
    for name, line in executed:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    missing = [
        (path, line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in sorted(statements(path) - ran.get(str(path), set()))
    ]
    for path, line in missing:
        print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: never executed")
    if status != 0:
        return int(status)
    print(f"statement coverage: {len(missing)} never-executed statements under src/radclust")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
