import json
import sys
from pathlib import Path

import numpy as np
import pytest

import radclust.cli
from radclust import pipeline
from radclust.errors import ParseError
from tracer import PER_LAYER_UNITS, Span, Tracer, layer_metrics

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def radclust_bindings():
    """Every module attribute of radclust, by identity, plus the ALGORITHMS table."""
    bindings = {
        (name, key): id(value)
        for name, module in list(sys.modules.items())
        if name == "radclust" or name.startswith("radclust.")
        for key, value in vars(module).items()
    }
    bindings["ALGORITHMS"] = [id(runner) for _, _, runner in pipeline.ALGORITHMS]
    return bindings


@pytest.fixture
def tiny_sweep_features(tmp_path):
    fm, _ = pipeline.synth_blobs(10, 2, 4, 10.0, 0.1, seed=3)
    path = tmp_path / "features.csv"
    path.write_bytes(pipeline.write_features(fm))
    return path


def run_traced(tmp_path, features):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.sweep"):
            code = radclust.cli.cli_main([
                "sweep", "--features", str(features), "--k", "2..3", "--algos", "all",
                "--out", str(tmp_path / "report.csv"), "--svg", str(tmp_path / "chart.svg"),
            ])
        weights = radclust.cli.init_weights(radclust.cli.CnnSpec(), 1)
        radclust.cli.forward(np.full((128, 128, 1), 0.5), weights)
    finally:
        tracer.restore()
    assert code == 0
    return layer_metrics(tracer.spans)


def test_every_wrapper_is_restored(tmp_path, tiny_sweep_features):
    before = radclust_bindings()
    run_traced(tmp_path, tiny_sweep_features)
    assert radclust_bindings() == before


def test_spans_close_and_wrappers_restore_when_a_call_raises():
    before = radclust_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ParseError):
            pipeline.read_features(b"not a feature file")
    finally:
        tracer.restore()
    assert radclust_bindings() == before
    assert [s.name for s in tracer.spans] == ["pipeline.read_features"]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_traced_sweep_attributes_every_layer(tmp_path, tiny_sweep_features):
    m = run_traced(tmp_path, tiny_sweep_features)
    cells = 9 * 2
    assert m["pipeline.cells"] == cells and m["pipeline.failed_cells"] == 0
    assert m["metrics.silhouette.calls"] == cells
    assert m["metrics.silhouette.computed_mb"] == pytest.approx(cells * 20 * 20 * 8 / 2**20)
    assert m["numerics.sym_eigen.calls"] == 2  # one spectral cell per k
    # spectral, each agglomerative cell, BIRCH's threshold, the silhouettes
    assert m["numerics.pairwise_distances.calls"] >= 2 + 4 + 2 + cells
    # the k-means that spectral, BIRCH and the three GMMs run inside themselves
    assert m["clustering.kmeans.inner_calls"] == 5 * 2
    for slug in ("kmeans", "spectral", "birch", "gmm-full", "agglomerative-ward"):
        assert m[f"clustering.{slug}.fit_ms"] > 0
        assert 0 <= m[f"clustering.{slug}.self_ms"] <= m[f"clustering.{slug}.fit_ms"]
        assert m[f"clustering.{slug}.converged_ratio"] == 1.0
    assert m["clustering.spectral.self_ms"] < m["clustering.spectral.fit_ms"]
    assert m["pipeline.sweep.self_ms"] < m["pipeline.sweep.ms"] <= m["cli.sweep.ms"]
    assert m["pipeline.render.ms"] > 0 and m["pipeline.read_features.ms"] > 0
    # one forward pass: four conv blocks with their computed counts, then dense
    assert m["cnn.forward.calls"] == 1
    flop = [2 * 128 * 128 * 64 * 9, 2 * 64 * 64 * 64 * 64 * 9,
            2 * 32 * 32 * 128 * 64 * 9, 2 * 16 * 16 * 128 * 128 * 9]
    im2col = [128 * 128 * 9 * 8, 64 * 64 * 64 * 9 * 8, 32 * 32 * 64 * 9 * 8, 16 * 16 * 128 * 9 * 8]
    for b in range(4):
        assert m[f"cnn.conv{b + 1}.gflop"] == pytest.approx(flop[b] / 1e9)
        assert m[f"cnn.conv{b + 1}.im2col_mb"] == pytest.approx(im2col[b] / 2**20)
        assert m[f"cnn.conv{b + 1}.ms"] > 0
    assert m["cnn.im2col_mb"] == pytest.approx(sum(im2col) / 2**20)
    assert m["cnn.dense.ms"] > 0
    blocks = sum(m[f"cnn.conv{b}.ms"] for b in range(1, 5)) + m["cnn.dense.ms"]
    assert blocks <= m["cnn.forward.ms"]


def test_untouched_layers_report_zero():
    m = layer_metrics([])
    assert set(m) == set(PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert all(value == 0 for value in m.values())


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.delattr(radclust.numerics, "sym_eigen")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert not hasattr(radclust.numerics, "sym_eigen")


def test_self_time_subtracts_direct_children():
    parent, child, grandchild = Span("clustering.spectral", 0.0, None), Span(
        "numerics.sym_eigen", 1.0, 0), Span("numerics.cholesky", 2.0, 1)
    parent.end, child.end, grandchild.end = 10.0, 8.0, 3.0
    m = layer_metrics([parent, child, grandchild])
    assert m["clustering.spectral.fit_ms"] == pytest.approx(10_000.0)
    assert m["clustering.spectral.self_ms"] == pytest.approx(3_000.0)
    assert m["numerics.sym_eigen.ms"] == pytest.approx(7_000.0)


def test_benchmark_json_lists_exactly_what_the_benchmark_reports():
    from run import END_TO_END_UNITS
    from workloads import WORKLOADS

    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
