"""One set-up or one pass, in a process of its own.

    python3 perfbench/child.py setup <workload> <seed> <in_dir>
    python3 perfbench/child.py pass <workload> <in_dir> <out_dir> <trace 0|1>

``run.py`` starts this with ``src/`` on ``PYTHONPATH``. It prints one JSON
object as its last line of standard output. A pass runs the workload's CLI
steps in-process through ``radclust.cli.cli_main``; the process's peak
resident memory is therefore that pass's alone.
"""

import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS


def _digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(workload, seed, in_dir):
    start = time.perf_counter()
    import radclust  # import time is part of set-up

    workload.generate(seed, Path(in_dir))
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "digest": _digest(in_dir), "radclust": radclust.__file__}


def blas_facts():
    """Name, version and thread count of the BLAS numpy loaded."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_version": "unknown",
             "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def run_pass(workload, in_dir, out_dir, trace):
    from radclust.cli import cli_main

    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    exit_codes, stdout, step_s = [], [], []
    try:
        for argv in workload.steps(Path(in_dir), Path(out_dir)):
            buf = io.StringIO()
            span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
            start = time.perf_counter()
            with redirect_stdout(buf), span:
                try:
                    code = cli_main(argv)
                except Exception:  # a crash is a failed step, not a failed benchmark
                    traceback.print_exc()
                    code = -1
            step_s.append(time.perf_counter() - start)
            exit_codes.append(code)
            stdout.append(buf.getvalue())
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "run_s": sum(step_s),
        "step_s": step_s,
        "exit_codes": exit_codes,
        "stdout": stdout,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_metrics(tracer.spans) if tracer else None,
        "facts": blas_facts(),
    }


def main(argv):
    mode, name = argv[0], argv[1]
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, int(argv[2]), argv[3])
    else:
        result = run_pass(workload, argv[2], argv[3], argv[4] == "1")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
