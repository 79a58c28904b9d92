"""Byte pins for the sweep path: spectral and BIRCH cells, and the SVG chart.

Per cell "data/algorithm/k": the sha256 of the labels, the centroids and the
objective trace, the iteration count, the converged flag and every
diagnostics value (floats as float.hex); per chart, the sha256 of the SVG.
Recorded before spectral and BIRCH shared one k-means global phase and the
chart was drawn from element helpers. The spectral cells were re-recorded
when the pinned fits moved to OpenBLAS at one thread, as a sweep runs them,
so that they hold on one CPU as on two.

Per "report/data": the sha256 of the report CSV of a k=2..6 sweep (seed 0)
over the archive-sweep variants ("archive") or all nine algorithms. Recorded
before silhouette_batch shared one GEMM per distance block among labelings.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from radclust import ClusterConfig, birch, spectral
from radclust.clustering.birch import prepare as prepare_tree
from radclust.numerics import _one_blas_thread
from radclust.pipeline import (
    ALGORITHM_SLUGS, SweepConfig, SweepReport, SweepRow, render_chart_svg, render_report_csv,
    sweep, synth_blobs,
)
from test_pipeline import reference_report

PINS = json.loads((Path(__file__).parent / "data" / "sweep_pins.json").read_text())
PIN_DATA = {"blobs": (150, 2, 16, 10.0, 0.1, 1), "archive": (1000, 4, 16, 6.0, 1.0, 1),
            "paper": (210, 4, 16, 6.0, 1.0, 1)}
ARCHIVE_ALGOS = ["kmeans", "minibatch-kmeans", "birch", "gmm-tied", "gmm-diag", "gmm-full"]
CELLS = [f"blobs/{algo}/{k}" for algo in ("spectral", "birch") for k in range(2, 7)]
CELLS += [f"archive/birch/{k}" for k in range(2, 7)]


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def encode(value):
    """Diagnostics as JSON: floats by float.hex, containers element by element."""
    if isinstance(value, dict):
        return {key: encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    return value


@functools.cache
def rows_of(name):
    return synth_blobs(*PIN_DATA[name])[0].rows


@functools.cache
def archive_tree():
    return prepare_tree(rows_of("archive"), ClusterConfig(k=6))


def fit(cell):
    """Fit one pinned cell with OpenBLAS at one thread, as a sweep fits its cells."""
    name, algo, k = cell.split("/")
    cfg = ClusterConfig(k=int(k), seed=1)
    with _one_blas_thread():
        if name == "archive":
            return birch(None, cfg, prepared=archive_tree())
        return (spectral if algo == "spectral" else birch)(rows_of(name), cfg)


def describe(res):
    model = res.model
    return {
        "labels": sha256(res.labels.astype(np.int64)),
        "centroids": None if res.centroids is None else sha256(res.centroids),
        "trace": sha256(np.array(res.objective_trace, dtype=np.float64)),
        "iterations": res.iterations,
        "converged": res.converged,
        "diagnostics": encode(res.diagnostics),
        "model": None if model is None else encode(
            [model.node_count, model.leaf_entry_count, model.threshold]
        ),
    }


@pytest.mark.parametrize("cell", CELLS)
def test_pinned_cell(cell):
    assert describe(fit(cell)) == PINS[cell]


def edge_report():
    """Blank cells, an isolated point, values outside [0, 1], rows out of order."""
    cells = [
        ("Spectral clustering", 3, 0.42),
        ("K-Means", 2, 1.3),
        ("K-Means", 3, None),
        ("Spectral clustering", 2, -0.2),
        ("K-Means", 4, 0.55),
        ("K-Means", 5, None),
        ("K-Means", 6, 0.61),
        ("K-Means", 7, 0.7),
        ("Birch clustering", 4, None),
        ("Spectral clustering", 6, 0.9),
        ("Birch clustering", 5, 0.3),
    ]
    return SweepReport(rows=[SweepRow(name, "", k, v, 0.0, v is not None)
                             for name, k, v in cells])


CHART_REPORTS = {
    "reference": reference_report,
    "edges": edge_report,
    "empty": lambda: SweepReport(rows=[]),
}


@pytest.mark.parametrize("name", sorted(CHART_REPORTS))
def test_pinned_chart(name):
    svg = render_chart_svg(CHART_REPORTS[name]())
    assert hashlib.sha256(svg).hexdigest() == PINS[f"chart/{name}"]


@pytest.mark.parametrize("name", ["archive", "blobs", "paper"])
def test_pinned_report(name):
    algorithms = ARCHIVE_ALGOS if name == "archive" else ALGORITHM_SLUGS
    fm = synth_blobs(*PIN_DATA[name])[0]
    report = sweep(fm, SweepConfig(algorithms=algorithms, ks=range(2, 7)))
    assert hashlib.sha256(render_report_csv(report)).hexdigest() == PINS[f"report/{name}"]
