"""radclust benchmark: one workload, end-to-end metrics or a traced breakdown.

    python3 perfbench/run.py --workload blobs-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; it works on the checkout that holds this directory and
writes only under ``<checkout>/.perfbench_work``, which it removes on exit.

Load is a closed loop: one client, one pass at a time. Each set-up and each
pass is a fresh process (``child.py``) with ``src/`` on ``PYTHONPATH`` and BLAS
threads capped at the CPUs this process may use. A run

1. sets the inputs up ``setup_reps`` times from ``--seed`` and reports the
   median as ``setup_s`` (import radclust, generate and write the inputs);
2. makes untraced passes until ``--seconds`` have passed, at least
   one, and reports the median ``run_s`` and ``peak_rss_mb``;
3. with ``--trace 1``, makes one more pass with every layer wrapped by
   ``tracer.py`` and reports the per-layer metrics instead;
4. checks every pass's outputs.

Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 0 only when every output check passed.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import median
from tracer import PER_LAYER_UNITS
from workloads import WORKLOADS, PassOutput, failed_cells, grid_mean_silhouette

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "mean_silhouette": "score"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _nproc():
    return len(os.sched_getaffinity(0))


def _child_env():
    threads = str(_nproc())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for child {args[:2]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} passed the {DEADLINE_S:.0f} s deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {args[:2]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mem_available_mb():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "radclust").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(seed, pass_facts):
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **pass_facts,
        "mem_available_mb": _mem_available_mb(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
    }


def _read_outputs(workload, out_dir, result):
    files = {}
    for name in workload.outputs:
        path = out_dir / name
        if path.is_file():
            files[name] = path.read_bytes()
    return PassOutput(exit_codes=result["exit_codes"], stdout=result["stdout"], files=files)


def _finite(value):
    return value if math.isfinite(value) else 0.0


def bench(workload, seed, seconds, trace, work):
    deadline = time.monotonic() + DEADLINE_S
    in_dir = work / "in"
    setups = []
    for _ in range(workload.setup_reps):
        shutil.rmtree(in_dir, ignore_errors=True)
        in_dir.mkdir(parents=True)
        setups.append(_run_child(["setup", workload.name, seed, in_dir], deadline))
    imported = Path(setups[0]["radclust"]).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"radclust was imported from {imported}, not from {SRC}")

    def one_pass(index, traced):
        out_dir = work / f"pass{index}"
        start = time.monotonic()
        result = _run_child(["pass", workload.name, in_dir, out_dir, int(traced)], deadline)
        output = _read_outputs(workload, out_dir, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result, output, time.monotonic() - start

    untraced, outputs = [], []
    measure_start = time.monotonic()
    while True:
        result, output, wall = one_pass(len(outputs), False)
        untraced.append(result)
        outputs.append(output)
        if time.monotonic() - measure_start >= seconds:
            break
        if deadline - time.monotonic() < 1.5 * wall * (2 if trace else 1):
            break
    traced = None
    if trace:
        traced, output, _ = one_pass(len(outputs), True)
        outputs.append(output)

    checks = workload.check(outputs)
    checks.append(("inputs_identical_across_setups",
                   len({s["digest"] for s in setups}) == 1))
    attempted = sum(len(o.exit_codes) + workload.cells for o in outputs) + len(checks)
    failed = (
        sum(code != 0 for o in outputs for code in o.exit_codes)
        + sum(failed_cells(workload, o) for o in outputs)
        + sum(not ok for _, ok in checks)
    )
    run_s = median([r["run_s"] for r in untraced])
    end_to_end = {
        "run_s": run_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "setup_s": median([s["setup_s"] for s in setups]),
        "mean_silhouette": _finite(median([workload.silhouette(o) for o in outputs])),
    }
    grid_mean = _finite(grid_mean_silhouette(outputs[0])) if workload.cells else None
    layers = None
    if traced is not None:
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["run_s"] - run_s})
    return {
        "workload": workload.name,
        "facts": machine_facts(seed, untraced[0]["facts"]),
        "attempted": attempted,
        "failed": failed,
        "checks": dict(checks),
        "end_to_end": end_to_end,
        "grid_mean_silhouette": grid_mean,
        "layers": layers,
        "samples": {
            "run_s": [r["run_s"] for r in untraced],
            "step_s": [r["step_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": [s["setup_s"] for s in setups],
            "traced_run_s": traced["run_s"] if traced else None,
        },
    }


def _print_summary(record):
    e = record["end_to_end"]
    s = record["samples"]
    print(f"perfbench {record['workload']} seed={record['facts']['seed']} "
          f"passes={len(s['run_s'])} traced={int(record['layers'] is not None)}")
    print("facts " + json.dumps(record["facts"]))
    print(f"  run_s            {e['run_s']:.4f} s    median of {len(s['run_s'])} passes")
    print(f"  peak_rss_mb      {e['peak_rss_mb']:.1f} MiB  median of {len(s['run_s'])} passes")
    print(f"  setup_s          {e['setup_s']:.4f} s    median of {len(s['setup_s'])} set-ups")
    print(f"  error_rate       {record['failed'] / record['attempted']:.4f} ratio  "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    print(f"  mean_silhouette  {e['mean_silhouette']:.4f} score")
    if record["grid_mean_silhouette"] is not None:
        print(f"  (grid mean of every silhouette: {record['grid_mean_silhouette']:.4f})")
    for name, value in (record["layers"] or {}).items():
        print(f"  {name:<50} {value:14.4f} {PER_LAYER_UNITS[name]}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print("record " + json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "radclust" / "__init__.py").is_file():
        print(f"perfbench: no radclust sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it, or it was never made
            pass

    _print_summary(record)
    if args.trace:
        metrics = {n: {"value": record["layers"][n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": record["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
