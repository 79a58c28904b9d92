"""Run the test suite and fail on any statement under src/radclust that never ran.

Usage, from the repository root::

    PYTHONPATH=src python tests/statement_coverage.py [pytest arguments]

The arguments go to ``pytest.main`` unchanged. ``coverage`` is not a
dependency, so lines are recorded with ``sys.settrace``: the tracer follows
only frames whose code lives under ``src/radclust`` and returns None for the
rest, which keeps the traced run close to the untraced one. A statement is
every line that some compiled code object of a package file maps an
instruction to (``co_lines()``).

Child interpreters count too. Before the suite starts, the runner puts a
directory holding a generated ``sitecustomize.py`` first on ``PYTHONPATH``
and names an output directory in ``RADCLUST_COVERAGE_OUT``. A Python
process that a test starts with that environment loads this file at
start-up, installs the same tracer and writes the lines it ran to the
output directory when it exits; the runner merges those files with its own
lines. A ``multiprocessing`` worker forked from a traced process (the
sweep's fit workers) inherits its tracer; it starts with an empty set of
lines and writes them to the same directory when its target returns. Exits
with pytest's code if the tests fail, else 1 if any statement never ran
(each one printed as ``path:line``), else 0.
"""

import atexit
import multiprocessing.util
import os
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radclust"
OUT_VAR = "RADCLUST_COVERAGE_OUT"
SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_statement_coverage", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child()
"""


def statements(path):
    """Every line of ``path`` that one of its code objects maps an instruction to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def start_tracing():
    """Trace this thread and every thread started later; returns the set of (file, line) run."""
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
    multiprocessing.util.register_after_fork(start_tracing, lambda _: follow_worker(executed))
    return executed


def follow_worker(executed):
    """In a forked multiprocessing worker: record its own lines and write them when it ends.

    The worker leaves through ``os._exit``, so atexit never runs there;
    multiprocessing runs the finalizers of priority 0 and up once the
    worker's target has returned.
    """
    executed.clear()
    multiprocessing.util.Finalize(None, write_lines, args=(executed,), exitpriority=0)


def stop_tracing():
    sys.settrace(None)
    threading.settrace(None)


def write_lines(executed):
    """Stop tracing and write ``executed`` to a new file in ``OUT_VAR``'s directory."""
    stop_tracing()
    fd, _ = tempfile.mkstemp(suffix=".lines", dir=os.environ[OUT_VAR])
    with os.fdopen(fd, "w") as f:
        f.writelines(f"{line}\t{name}\n" for name, line in executed)


def trace_child():
    """Trace this interpreter; at exit, write its lines to a new file in ``OUT_VAR``'s directory."""
    if OUT_VAR in os.environ:
        atexit.register(write_lines, start_tracing())


def child_lines(out):
    """The (file, line) pairs that every child wrote to the directory ``out``."""
    for path in Path(out).glob("*.lines"):
        for record in path.read_text().splitlines():
            line, name = record.split("\t", 1)
            yield name, int(line)


def main(argv):
    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
        path = os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")]))
        os.environ["PYTHONPATH"] = path
        os.environ[OUT_VAR] = str(out)
        executed = start_tracing()
        try:
            status = pytest.main(argv)
        finally:
            stop_tracing()
        executed.update(child_lines(out))

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
