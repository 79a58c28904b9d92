import numpy as np
import pytest

from radclust.clustering import ClusterConfig, kmeans, minibatch_kmeans
from radclust.errors import ConfigError, ShapeError
from radclust.pipeline import synth_blobs

from oracles import best_two_partition_sse, naive_sse

# Four corners of a 10x1 rectangle, ordered so the first-2 init starts one
# centroid on each natural cluster.
SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0], [10.0, 1.0]])


def same_partition(a, b):
    mapping = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestKmeans:
    def test_square_pairs_first_k_init(self):
        res = kmeans(SQUARE, ClusterConfig(k=2, seed=0))
        assert np.allclose(sorted(res.centroids.tolist()), [[0.0, 0.5], [10.0, 0.5]])
        assert res.objective_trace[-1] == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_k_equals_n_zero_sse(self):
        res = kmeans(SQUARE, ClusterConfig(k=4, seed=0))
        assert res.objective_trace[-1] == 0.0
        assert sorted(res.labels.tolist()) == [0, 1, 2, 3]

    def test_restarts_find_global_optimum_on_small_instances(self):
        for seed in range(20):
            rng = np.random.RandomState(seed)
            rows = rng.rand(8, 2)
            cfg = ClusterConfig(k=2, seed=seed, init="kmeans++", restarts=10)
            res = kmeans(rows, cfg)
            assert res.objective_trace[-1] == pytest.approx(
                best_two_partition_sse(rows), abs=1e-9
            )

    def test_sse_trace_non_increasing(self):
        rng = np.random.RandomState(3)
        rows = rng.randn(60, 4)
        res = kmeans(rows, ClusterConfig(k=5, seed=1))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))

    def test_termination_invariants(self):
        rng = np.random.RandomState(4)
        rows = rng.randn(50, 3)
        res = kmeans(rows, ClusterConfig(k=4, seed=2, tol=1e-12))
        d2 = ((rows[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(res.labels, np.argmin(d2, axis=1))
        for c in range(4):
            members = rows[res.labels == c]
            assert members.size
            assert np.abs(members.mean(axis=0) - res.centroids[c]).max() <= 1e-9

    def test_deterministic_under_seed(self):
        rng = np.random.RandomState(5)
        rows = rng.randn(40, 3)
        cfg = ClusterConfig(k=3, seed=9, init="kmeans++", restarts=3)
        a = kmeans(rows, cfg)
        b = kmeans(rows, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective_trace == b.objective_trace

    def test_translation_invariance(self):
        rng = np.random.RandomState(6)
        rows = rng.randn(30, 4)
        shift = rows + np.array([100.0, -50.0, 3.0, 7.0])
        a = kmeans(rows, ClusterConfig(k=3, seed=7))
        b = kmeans(shift, ClusterConfig(k=3, seed=7))
        assert same_partition(a.labels, b.labels)

    def test_k_above_n_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(SQUARE, ClusterConfig(k=5, seed=0))

    def test_empty_cluster_repair_never_surfaces(self):
        # duplicate leading rows make the first-k init degenerate on purpose
        rows = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0], [5.1, 5.0], [9.0, 0.0]])
        res = kmeans(rows, ClusterConfig(k=3, seed=0))
        assert set(res.labels.tolist()) == {0, 1, 2}

    def test_final_sse_matches_naive(self):
        rng = np.random.RandomState(8)
        rows = rng.randn(25, 3)
        res = kmeans(rows, ClusterConfig(k=4, seed=3))
        assert res.objective_trace[-1] == pytest.approx(
            naive_sse(rows, res.labels, res.centroids), abs=1e-9
        )


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_with_position(self, bad):
        rows = np.arange(12.0).reshape(6, 2)
        rows[4, 1] = bad
        with pytest.raises(ShapeError, match=r"non-finite value .* at \(4, 1\)"):
            kmeans(rows, ClusterConfig(k=2, seed=0))


class TestMinibatchKmeans:
    def test_full_batch_matches_lloyd_on_square(self):
        cfg = ClusterConfig(k=2, seed=0, batch_size=4)
        res = minibatch_kmeans(SQUARE, cfg)
        full = kmeans(SQUARE, ClusterConfig(k=2, seed=0))
        assert np.allclose(sorted(res.centroids.tolist()), sorted(full.centroids.tolist()))
        final_sse = naive_sse(SQUARE, res.labels, res.centroids)
        assert final_sse == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_k_equals_n_zero_sse(self):
        res = minibatch_kmeans(SQUARE, ClusterConfig(k=4, seed=1, batch_size=4))
        assert naive_sse(SQUARE, res.labels, res.centroids) == pytest.approx(0.0, abs=1e-18)

    def test_same_seed_identical_labels(self):
        rng = np.random.RandomState(10)
        rows = rng.randn(50, 3)
        cfg = ClusterConfig(k=4, seed=11, batch_size=16)
        assert np.array_equal(
            minibatch_kmeans(rows, cfg).labels, minibatch_kmeans(rows, cfg).labels
        )

    def test_separated_blobs_recovered(self):
        rng = np.random.RandomState(12)
        rows = np.vstack([rng.randn(40, 2) * 0.2, rng.randn(40, 2) * 0.2 + [8.0, 0.0]])
        res = minibatch_kmeans(rows, ClusterConfig(k=2, seed=13, batch_size=20))
        truth = np.array([0] * 40 + [1] * 40)
        assert same_partition(res.labels, truth)

    def test_translation_invariance(self):
        rng = np.random.RandomState(14)
        rows = rng.randn(30, 2)
        a = minibatch_kmeans(rows, ClusterConfig(k=3, seed=15, batch_size=10))
        b = minibatch_kmeans(rows + 42.0, ClusterConfig(k=3, seed=15, batch_size=10))
        assert same_partition(a.labels, b.labels)

    @pytest.mark.parametrize("max_iters, tol, iterations, converged, centroids", [
        (40, 1e-4, 40, False, [
            "0x1.836e819d5c8a8p+2", "0x1.bb206e4b07becp-4", "0x1.ca06182e32fecp-3",
            "0x1.7f83a22344871p+2", "-0x1.778b45e0c8d2ep-3", "0x1.c21d7a12edde0p-5",
        ]),
        (200, 0.02, 13, True, [
            "0x1.8615264b2132fp+2", "0x1.2984c4daf2b29p-3", "0x1.b71c53569b42ep-3",
            "0x1.818e752b4bf79p+2", "-0x1.e9b11d18ea058p-4", "0x1.49c52d8623645p-5",
        ]),
    ], ids=["max-iters", "tol"])
    def test_batch_inertia_trace_and_pinned_fit(self, max_iters, tol, iterations, converged,
                                                centroids):
        # Labels, centroid bits, iterations and converged were recorded when
        # the trace still came from a full assignment each iteration; the
        # trace is bookkeeping and must not move the fit.
        rng = np.random.RandomState(16)
        rows = np.vstack([rng.randn(20, 2) * 0.5 + c for c in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])])
        cfg = ClusterConfig(k=3, seed=17, batch_size=12, max_iters=max_iters, tol=tol,
                            init="kmeans++")
        res = minibatch_kmeans(rows, cfg)
        assert res.labels.tolist() == [2] * 20 + [0] * 20 + [1] * 20
        assert [float(v).hex() for v in res.centroids.ravel()] == centroids
        assert res.iterations == iterations
        assert res.converged is converged
        trace = np.array(res.objective_trace)
        assert len(trace) == res.iterations
        assert np.all(np.isfinite(trace)) and np.all(trace >= 0.0)

    def test_pinned_fit_with_batches_below_n(self):
        # Every iteration shuffles all 600 rows to draw its batch of 50.
        # Recorded before the shuffle drew in bulk; it must not move a bit.
        fm, _ = synth_blobs(200, 3, 4, 5.0, 1.0, 21)
        res = minibatch_kmeans(fm.rows, ClusterConfig(k=3, seed=1, batch_size=50, max_iters=30))
        assert res.labels.tolist() == [0] * 200 + [2] * 200 + [1] * 200
        assert [float(v).hex() for v in res.centroids.ravel()] == [
            "0x1.3b38fe68fe508p+2", "-0x1.b9156fc7da85fp-3", "0x1.51d16892449f9p-4",
            "0x1.297c6f362dccdp-4", "-0x1.0496e056cd7c8p-5", "0x1.ac4710103a0cep-3",
            "0x1.2c25bf2bbd0c3p+2", "-0x1.65bdb6679a129p-5", "0x1.e7947a7fe4674p-5",
            "0x1.41128dc7ca734p+2", "-0x1.e31df493d53edp-8", "0x1.acb13160a25fep-6",
        ]
        assert res.iterations == 30
