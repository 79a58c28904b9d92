import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radclust
import radclust.clustering.spectral as SPECTRAL_MODULE
from radclust import ClusterConfig, kmeans, spectral
from radclust.errors import ConfigError
from radclust.numerics import sym_eigen


def same_partition(a, b):
    mapping = {}
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def two_rings(gap=2.0, seed=0):
    # 60 points on concentric rings of radius 1 and 1+gap, denser outside
    rng = np.random.RandomState(seed)
    pts = []
    for radius, count in [(1.0, 20), (1.0 + gap, 40)]:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        jitter = rng.randn(count, 2) * 0.02
        pts.append(np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius + jitter)
    labels = np.array([0] * 20 + [1] * 40)
    return np.vstack(pts), labels


def purity(labels, truth):
    total = 0
    for c in set(labels.tolist()):
        members = truth[labels == c]
        total += np.bincount(members).max()
    return total / len(truth)


class TestSpectral:
    def test_block_structure_recovered_exactly(self):
        rng = np.random.RandomState(1)
        rows = np.vstack([rng.randn(15, 3) * 0.1, rng.randn(15, 3) * 0.1 + 50.0])
        truth = np.array([0] * 15 + [1] * 15)
        res = spectral(rows, ClusterConfig(k=2, seed=3))
        assert same_partition(res.labels, truth)
        # the cross-block similarities underflow to zero at this separation
        assert res.diagnostics["laplacian_min_eigenvalue"] >= -1e-8

    def test_laplacian_psd_on_random_data(self):
        rng = np.random.RandomState(2)
        rows = rng.randn(20, 4)
        res = spectral(rows, ClusterConfig(k=3, seed=4))
        assert res.diagnostics["laplacian_min_eigenvalue"] >= -1e-8

    def test_rings_beat_plain_kmeans(self):
        # a kernel width of a quarter of the ring gap keeps the cross-ring
        # similarity negligible at this point density; wider kernels merge
        # the rings' spectral modes
        rows, truth = two_rings()
        gap = 2.0
        cfg = ClusterConfig(k=2, seed=5, rbf_sigma=0.25 * gap)
        spec_res = spectral(rows, cfg)
        km_res = kmeans(rows, ClusterConfig(k=2, seed=5, init="kmeans++", restarts=10))
        assert purity(spec_res.labels, truth) == 1.0
        assert purity(km_res.labels, truth) < 1.0

    def test_deterministic_under_seed(self):
        rng = np.random.RandomState(6)
        rows = rng.randn(25, 3)
        a = spectral(rows, ClusterConfig(k=3, seed=7))
        b = spectral(rows, ClusterConfig(k=3, seed=7))
        assert np.array_equal(a.labels, b.labels)

    def test_embedding_eigenvectors_orthonormal(self):
        rng = np.random.RandomState(8)
        rows = rng.randn(18, 3)
        from radclust.numerics import squared_distances
        from radclust.clustering.spectral import median_offdiagonal

        sq = squared_distances(rows)
        sigma = median_offdiagonal(sq)
        w = np.exp(-sq / (2.0 * sigma * sigma))
        np.fill_diagonal(w, 0.0)
        inv = 1.0 / np.sqrt(w.sum(axis=1))
        lap = np.eye(18) - w * inv[:, None] * inv[None, :]
        _, vecs = sym_eigen(lap)
        u = vecs[:, :3]
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-6

    def test_spectral_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(SPECTRAL_MODULE, "_DENSE_CAP", 10)
        rng = np.random.RandomState(9)
        rows = rng.randn(30, 2)
        with pytest.raises(ConfigError, match="capped at n=10, got 30"):
            spectral(rows, ClusterConfig(k=2, seed=0))

    def test_cut_needs_enough_prepared_eigenvectors(self):
        rows = np.random.RandomState(9).randn(30, 2)
        state = SPECTRAL_MODULE.prepare(rows, ClusterConfig(k=2))
        assert state.basis.shape == (30, 2)
        with pytest.raises(ConfigError, match="k=3 exceeds the 2 prepared eigenvectors"):
            spectral(rows, ClusterConfig(k=3, seed=0), prepared=state)

    def test_labels_identical_across_blas_thread_counts(self):
        # OpenBLAS reads its thread count once, at import, so each setting
        # needs its own interpreter. The eigenvector bits may differ between
        # settings; the labels must not.
        script = (
            "import json\n"
            "from radclust import ClusterConfig, spectral\n"
            "from radclust.pipeline import synth_blobs\n"
            "fm, _ = synth_blobs(150, 2, 16, 10.0, 0.1, seed=7)\n"
            "print(json.dumps([spectral(fm, ClusterConfig(k=k, seed=7)).labels.tolist()\n"
            "                  for k in range(2, 7)]))\n"
        )
        src = str(Path(radclust.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            runs.append(json.loads(out.stdout))
        assert len(runs[0]) == 5
        assert runs[0] == runs[1]

    def test_translation_invariance(self):
        rng = np.random.RandomState(10)
        rows = np.vstack([rng.randn(12, 2) * 0.3, rng.randn(12, 2) * 0.3 + 9.0])
        a = spectral(rows, ClusterConfig(k=2, seed=11))
        b = spectral(rows + 123.0, ClusterConfig(k=2, seed=11))
        assert same_partition(a.labels, b.labels)

    def test_isolated_point_reported_in_diagnostics(self):
        # with sigma pinned to 1, the outlier's similarities underflow to 0
        rng = np.random.RandomState(12)
        rows = np.vstack([rng.randn(10, 2), [[2000.0, 0.0]]])
        res = spectral(rows, ClusterConfig(k=2, seed=0, rbf_sigma=1.0))
        assert res.diagnostics["isolated_points"] == [10]
        assert np.all(np.isfinite(res.labels))
