"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion states its tolerance and runtime budget inline.
"""

import time

import numpy as np
import pytest

from radclust.clustering import ClusterConfig, agglomerative, birch, gmm, kmeans, spectral
from radclust.clustering.birch import _build_tree, _leaf_entries, default_threshold
from radclust.cli import cli_main
from radclust.cnn import (
    CnnSpec,
    conv2d,
    dense,
    forward,
    init_weights,
    load_weights,
    maxpool2d,
    save_weights,
)
from radclust.errors import ParseError
from radclust.features import FeatureMatrix
from radclust.imaging import load_pgm, save_pgm
from radclust.metrics import silhouette
from radclust.numerics import RngStream, cholesky, pairwise_distances, sym_eigen
from radclust.pipeline import (
    ManifestEntry,
    read_features,
    synth_blobs,
    synth_textured_images,
    write_features,
    write_manifest,
)

from oracles import (
    best_two_partition_sse,
    direct_average_linkage,
    naive_conv2d_same,
    naive_dense,
    naive_maxpool2x2,
    naive_silhouette,
)


def report_line(number, name, elapsed, budget):
    print(f"[PASS] criterion {number} ({name}): {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_silhouette_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.RandomState(1001)
    for _ in range(100):
        n = rng.randint(10, 61)
        d = rng.randint(2, 9)
        k = rng.randint(2, 7)
        rows = rng.randn(n, d)
        labels = rng.randint(0, k, size=n)
        labels[0], labels[1] = 0, 1  # guarantee two distinct labels
        ours = silhouette(rows, labels).mean
        _, naive_mean = naive_silhouette(rows, labels)
        assert abs(ours - naive_mean) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line(1, "silhouette oracle equivalence", elapsed, 5)


def test_criterion_2_kmeans_global_optimality():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.RandomState(2000 + seed)
        rows = rng.rand(8, 2)
        res = kmeans(rows, ClusterConfig(k=2, seed=seed, init="kmeans++", restarts=10))
        assert abs(res.objective_trace[-1] - best_two_partition_sse(rows)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line(2, "k-means global optimality", elapsed, 5)


def test_criterion_3_em_monotonicity():
    start = time.perf_counter()
    for seed in range(50):
        fm, _ = synth_blobs(50, 2, 2, 6.0, 1.0, seed=3000 + seed)
        for mode in ("tied", "diag", "full"):
            res = gmm(
                fm.rows,
                ClusterConfig(k=2, seed=seed, tol=1e-12, max_iters=60),
                mode=mode,
            )
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9), f"seed {seed} mode {mode}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(3, "EM monotonicity", elapsed, 30)


def test_criterion_4_structural_invariants():
    start = time.perf_counter()
    rng = np.random.RandomState(4000)

    # k-means SSE descent
    for _ in range(10):
        rows = rng.randn(40, 3)
        trace = np.array(kmeans(rows, ClusterConfig(k=4, seed=0)).objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))

    # dendrogram monotonicity; average linkage equals direct pairwise means
    rows = rng.randn(30, 3)
    for linkage in ("average", "ward"):
        res = agglomerative(rows, ClusterConfig(k=2, seed=0), linkage=linkage)
        heights = [m[2] for m in res.model.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))
    res = agglomerative(rows, ClusterConfig(k=2, seed=0), linkage="average")
    groups = {i: [i] for i in range(30)}
    for t, (a, b, height, size) in enumerate(res.model.merges):
        assert abs(height - direct_average_linkage(rows, groups[a], groups[b])) <= 1e-9
        groups[30 + t] = groups.pop(a) + groups.pop(b)

    # CF additivity and the leaf-radius bound
    rows = rng.randn(120, 4)
    threshold = default_threshold(rows, 7)
    entries = _leaf_entries(_build_tree(rows, threshold, 12))
    assert sum(e.count for e in entries) == 120
    assert np.abs(np.sum([e.linear_sum for e in entries], axis=0) - rows.sum(axis=0)).max() <= 1e-9
    assert all(e.radius <= threshold + 1e-9 for e in entries)
    merged = entries[0].merged_with(entries[1])
    assert merged.count == entries[0].count + entries[1].count
    assert np.array_equal(merged.linear_sum, entries[0].linear_sum + entries[1].linear_sum)
    assert merged.square_sum == entries[0].square_sum + entries[1].square_sum

    # Laplacian positive semidefiniteness via the spectral diagnostics
    rows = rng.randn(25, 3)
    diag = spectral(rows, ClusterConfig(k=3, seed=0)).diagnostics
    assert diag["laplacian_min_eigenvalue"] >= -1e-8

    # eigensolver residual and Cholesky round trip
    for n in (5, 20, 50):
        b = rng.randn(n, n)
        a = (b + b.T) / 2.0
        w, v = sym_eigen(a)
        bound = 1e-8 * max(1.0, float(np.abs(a).sum(axis=1).max()))
        assert np.abs(a @ v - v * w[None, :]).max() <= bound
        spd = b.T @ b + np.eye(n)
        L = cholesky(spd)
        assert np.abs(L @ L.T - spd).max() <= 1e-10 * max(1.0, np.abs(spd).max())

    elapsed = time.perf_counter() - start
    report_line(4, "structural invariants", elapsed, 30)


def test_criterion_5_trend_on_synthetic_blobs():
    start = time.perf_counter()
    from radclust.pipeline import SweepConfig, sweep

    fm, _ = synth_blobs(150, 2, 16, 10.0, 0.1, seed=7)
    report = sweep(fm, SweepConfig(seed=7))
    assert len(report.rows) == 45
    at_k2 = {row.slug: row.silhouette for row in report.rows if row.k == 2}
    assert len(at_k2) == 9
    for slug, score in at_k2.items():
        assert score is not None and score >= 0.90, f"{slug} at k=2 scored {score}"
    kmeans_scores = {row.k: row.silhouette for row in report.rows if row.slug == "kmeans"}
    for k in (3, 4, 5, 6):
        assert kmeans_scores[2] > kmeans_scores[k]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(5, "silhouette trend on synthetic blobs", elapsed, 60)


def _run_image_pipeline(base):
    """PGM images -> preprocess -> extract -> sweep; returns output bytes."""
    raw = base / "raw"
    raw.mkdir(parents=True)
    images, ids, _ = synth_textured_images(30, 128, seed=99)
    entries = []
    for img, img_id in zip(images, ids):
        name = f"{img_id}.pgm"
        (raw / name).write_bytes(save_pgm(img))
        entries.append(ManifestEntry(path=name))
    (raw / "manifest.csv").write_bytes(write_manifest(entries))

    proc = base / "proc"
    assert cli_main([
        "preprocess", "--manifest", str(raw / "manifest.csv"),
        "--out-dir", str(proc), "--size", "128",
    ]) == 0
    features = base / "features.csv"
    assert cli_main([
        "extract", "--manifest", str(proc / "manifest.csv"),
        "--seed", "11", "--out", str(features),
    ]) == 0
    report = base / "report.csv"
    chart = base / "chart.svg"
    assert cli_main([
        "sweep", "--features", str(features), "--k", "2..6", "--algos", "all",
        "--seed", "11", "--out", str(report), "--svg", str(chart),
    ]) == 0
    return report.read_bytes(), chart.read_bytes()


def test_criterion_6_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    report_a, chart_a = _run_image_pipeline(tmp_path / "run_a")
    report_b, chart_b = _run_image_pipeline(tmp_path / "run_b")
    assert report_a == report_b
    assert chart_a == chart_b
    lines = report_a.decode().strip().split("\n")
    assert len(lines) == 46  # header + 45 cells
    assert chart_a.decode().count("<polyline") == 9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_line(6, "end-to-end pipeline determinism", elapsed, 120)


def test_criterion_7_cnn_correctness():
    start = time.perf_counter()
    rng = np.random.RandomState(7000)
    for _ in range(5):
        x = rng.randn(6, 6, 2)
        k = rng.randn(3, 2, 3, 3)
        b = rng.randn(3)
        assert np.abs(conv2d(x, k, b) - naive_conv2d_same(x, k, b)).max() <= 1e-12
        p = rng.randn(8, 8, 3)
        assert np.array_equal(maxpool2d(p), naive_maxpool2x2(p))
        v, w, bias = rng.randn(8), rng.randn(4, 8), rng.randn(4)
        assert np.abs(dense(v, w, bias) - naive_dense(v, w, bias)).max() <= 1e-12

    spec = CnnSpec()
    assert spec.shape_chain() == [
        (64, 64, 64), (32, 32, 64), (16, 16, 128), (8, 8, 128), 8192, 64, 16,
    ]
    weights = init_weights(spec, 1)
    fv, acts = forward(
        RngStream(5).uniforms(128 * 128).reshape(128, 128, 1), weights,
        return_activations=True,
    )
    assert [a.shape for a in acts[:4]] == [(64, 64, 64), (32, 32, 64), (16, 16, 128), (8, 8, 128)]
    assert acts[4].shape == (8192,) and acts[5].shape == (64,) and fv.values.shape == (16,)
    assert np.array_equal(forward(np.zeros((128, 128, 1)), weights).values, np.zeros(16))
    elapsed = time.perf_counter() - start
    report_line(7, "CNN correctness", elapsed, 30)


def test_criterion_8_format_fidelity(tmp_path, capsys):
    start = time.perf_counter()

    # weight file round trip is bit-exact
    weights = init_weights(CnnSpec(), 42)
    data = save_weights(weights)
    back = load_weights(data)
    for (wa, ba), (wb, bb) in zip(weights.tensors(), back.tensors()):
        assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
    assert save_weights(back) == data

    # feature CSV round trip within 1e-15 relative (exact, via shortest repr)
    rng = np.random.RandomState(8000)
    fm = FeatureMatrix(rows=rng.randn(10, 16) * 100.0, ids=[f"i{j}" for j in range(10)])
    back_fm = read_features(write_features(fm))
    scale = np.maximum(np.abs(fm.rows), 1e-300)
    assert (np.abs(back_fm.rows - fm.rows) / scale).max() <= 1e-15

    # malformed inputs fail with positioned errors and CLI exit code 2
    with pytest.raises(ParseError) as exc:
        load_weights(b"XXXX" + data[4:])
    assert exc.value.offset == 0

    with pytest.raises(ParseError) as exc:
        read_features("id,f0,f1\na,1.0,2.0\nb,3.0\n")
    assert exc.value.line == 3

    truncated = b"P5 4 4 255 " + bytes(10)
    with pytest.raises(ParseError) as exc:
        load_pgm(truncated)
    assert exc.value.offset == len(truncated)

    bad_weights = tmp_path / "bad.bin"
    bad_weights.write_bytes(b"XXXX" + data[4:])
    raw = tmp_path / "imgs"
    raw.mkdir()
    img = synth_textured_images(1, 128, seed=0)[0][0]
    (raw / "a.pgm").write_bytes(save_pgm(img))
    (raw / "manifest.csv").write_bytes(write_manifest([ManifestEntry(path="a.pgm")]))
    assert cli_main([
        "extract", "--manifest", str(raw / "manifest.csv"),
        "--weights", str(bad_weights), "--out", str(tmp_path / "f.csv"),
    ]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("id,f0,f1\na,1.0,2.0\nb,3.0\n")
    assert cli_main([
        "sweep", "--features", str(ragged), "--out", str(tmp_path / "r.csv"),
    ]) == 2

    bad_pgm = tmp_path / "trunc"
    bad_pgm.mkdir()
    (bad_pgm / "x.pgm").write_bytes(truncated)
    (bad_pgm / "manifest.csv").write_bytes(write_manifest([ManifestEntry(path="x.pgm")]))
    assert cli_main([
        "preprocess", "--manifest", str(bad_pgm / "manifest.csv"),
        "--out-dir", str(tmp_path / "out"),
    ]) == 2

    capsys.readouterr()  # swallow the CLI error prints
    elapsed = time.perf_counter() - start
    report_line(8, "format fidelity", elapsed, 30)
