"""The sweep's fits on forked worker processes: same bytes, same errors, no leftovers."""

import hashlib
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

import radclust.pipeline as pl
from radclust import kmeans, numerics
from radclust.errors import ConfigError
from radclust.pipeline import SweepConfig, render_chart_svg, render_report_csv, synth_blobs

from test_sweep_pins import ARCHIVE_ALGOS, PIN_DATA, PINS


def replace_runner(monkeypatch, slug, runner):
    """Put ``runner`` in ``slug``'s place in the ALGORITHMS table for one test."""
    table = [(s, display, runner if s == slug else r) for s, display, r in pl.ALGORITHMS]
    monkeypatch.setattr(pl, "ALGORITHMS", table)


def kmeans_failing_at(bad_k, exc):
    def runner(rows, cfg):
        if cfg.k == bad_k:
            raise exc
        return kmeans(rows, cfg)
    return runner


def small_blobs():
    return synth_blobs(20, 2, 4, 8.0, 0.2, seed=2)[0]


@pytest.mark.parametrize("name", ["blobs", "archive"])
def test_report_and_chart_bytes_do_not_depend_on_the_worker_count(monkeypatch, name):
    algorithms = ARCHIVE_ALGOS if name == "archive" else pl.ALGORITHM_SLUGS
    fm = synth_blobs(*PIN_DATA[name])[0]
    outputs = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        report = pl.sweep(fm, SweepConfig(algorithms=algorithms, ks=range(2, 7)))
        outputs.add((render_report_csv(report), render_chart_svg(report)))
        assert multiprocessing.active_children() == []
    [(report_csv, _)] = outputs
    assert hashlib.sha256(report_csv).hexdigest() == PINS[f"report/{name}"]


def test_a_runner_config_error_is_the_same_row_error_inline_and_in_workers(monkeypatch):
    replace_runner(monkeypatch, "kmeans", kmeans_failing_at(4, ConfigError("no k=4 here")))
    cfg = SweepConfig(algorithms=["kmeans", "gmm-diag"], ks=[2, 3, 4, 5], seed=1)
    rows = {}
    for workers in (1, 2):
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        report = pl.sweep(small_blobs(), cfg)
        rows[workers] = [(r.slug, r.k, r.silhouette, r.converged, r.error) for r in report.rows]
        assert multiprocessing.active_children() == []
    assert rows[1] == rows[2]
    assert [row for row in rows[1] if row[4] is not None] == [
        ("kmeans", 4, None, False, "ConfigError: no k=4 here")
    ]
    assert sum(row[2] is not None for row in rows[1]) == 7


@pytest.mark.parametrize("workers", [1, 2])
def test_other_exceptions_propagate_out_of_the_sweep(monkeypatch, workers):
    replace_runner(monkeypatch, "kmeans", kmeans_failing_at(3, RuntimeError("runner bug")))
    monkeypatch.setattr(numerics, "_cpus", lambda: workers)
    with pytest.raises(RuntimeError, match="runner bug"):
        pl.sweep(small_blobs(), SweepConfig(algorithms=["kmeans", "birch"], ks=[2, 3, 4]))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_ends_the_sweep_in_an_error_not_a_hang(monkeypatch):
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    if not numerics._fork_is_quiet():
        pytest.skip("a fork would warn here (CPython 3.12+ with BLAS threads): the sweep runs inline")
    parent = os.getpid()

    def dies(rows, cfg):
        assert os.getpid() != parent, "the dying runner ran in the test process"
        os._exit(3)

    replace_runner(monkeypatch, "gmm-tied", dies)
    raised = []

    def run():
        try:
            pl.sweep(small_blobs(), SweepConfig(ks=[2, 3], seed=0))
        except BrokenProcessPool as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(raised) == 1
    assert multiprocessing.active_children() == []


def test_a_sweep_where_a_fork_would_warn_runs_inline_with_the_same_bytes(monkeypatch):
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    cfg = SweepConfig(algorithms=["kmeans", "spectral", "gmm-diag"], ks=[2, 3, 4])
    expected = render_report_csv(pl.sweep(small_blobs(), cfg))
    pids = []

    def recording(rows, cfg):
        pids.append(os.getpid())  # seen here only if the fit runs in this process
        return kmeans(rows, cfg)

    replace_runner(monkeypatch, "kmeans", recording)
    monkeypatch.setattr(numerics, "_FORK_WARNS", True)  # as on CPython 3.12 and later
    release = threading.Event()
    helper = threading.Thread(target=release.wait)  # a second OS thread
    helper.start()
    try:
        report = pl.sweep(small_blobs(), cfg)
    finally:
        release.set()
        helper.join()
    assert pids == [os.getpid()] * 3
    assert render_report_csv(report) == expected
    assert multiprocessing.active_children() == []
