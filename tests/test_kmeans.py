import numpy as np
import pytest

import radclust.clustering.kmeans as KMEANS
from radclust import ClusterConfig, kmeans, minibatch_kmeans, pipeline
from radclust.errors import ConfigError, ShapeError
from radclust.numerics import RngStream, mix_seed
from radclust.pipeline import SweepConfig, synth_blobs

from call_log import CallLog
from oracles import (
    add_at_means,
    best_two_partition_sse,
    naive_sse,
    sequential_minibatch_kmeans,
    sequential_polish,
)


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
            res = kmeans(rows, ClusterConfig(k=2, seed=seed), restarts=10)
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
        cfg = ClusterConfig(k=3, seed=9)
        a = kmeans(rows, cfg, restarts=3)
        b = kmeans(rows, cfg, restarts=3)
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

    @pytest.mark.parametrize("k", [2, 4])
    def test_kmeans_pp_draws_plainly_once_the_potential_is_zero(self, k):
        # every row equals the first centre: no distance-weighted trials run,
        # and each later centre takes one plain next_below(n) draw
        rows = np.tile([[1.5, -2.0, 0.25]], (5, 1))
        stream, reference = RngStream(31), RngStream(31)
        centers = KMEANS._kmeans_pp(rows, k, stream)
        assert np.array_equal(centers, rows[:k])
        for _ in range(k):
            reference.next_below(5)
        assert stream._state == reference._state

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

    @pytest.mark.parametrize("restarts", [0, 2.0, "2", True, False])
    def test_bad_restarts_rejected(self, restarts):
        message = f"restarts must be an integer >= 1, got {restarts!r}"
        with pytest.raises(ConfigError, match=message):
            kmeans(SQUARE, ClusterConfig(k=2), restarts=restarts)

    @pytest.mark.parametrize("bad, message", [
        ([["1", "2"], ["3", "4"]], "got dtype <U1"),
        (np.array([[" 1.5", "+2"], ["1_0", "4"]]), "got dtype <U4"),
        ([[1.0, 2.0], [3.0]], "got a ragged nested sequence"),
        ([[1 + 0j, 2.0], [3.0, 4.0]], "got dtype complex128"),
        (np.array([[1 + 0j, 2.0], [3.0, 4.0]]), "got dtype complex128"),
    ], ids=["text-list", "text-array", "ragged", "complex-list", "complex-array"])
    def test_only_real_numbers_are_samples(self, bad, message):
        # numpy would read the text with float() and drop a zero imaginary part
        with pytest.raises(ShapeError, match=message):
            kmeans(bad, ClusterConfig(k=2))

    def test_bool_int_and_float_arrays_are_samples(self):
        want = kmeans(SQUARE, ClusterConfig(k=2)).labels
        for dtype in (np.float32, np.int64, np.uint8):
            assert np.array_equal(kmeans(SQUARE.astype(dtype), ClusterConfig(k=2)).labels, want)
        assert kmeans(SQUARE > 0, ClusterConfig(k=2)).labels.shape == (4,)


def test_means_match_add_at_oracle_bit_for_bit():
    # scales 1e-8..1e8, rows offset far from the origin, and empty clusters
    for seed in range(300):
        rng = np.random.RandomState(seed)
        n, d, k = rng.randint(1, 600), rng.randint(1, 17), rng.randint(1, 9)
        scale = 10.0 ** rng.uniform(-8, 8)
        rows = (rng.randn(n, d) + rng.randn(d) * 10.0 ** rng.randint(0, 4)) * scale
        labels = rng.randint(0, k, size=n)
        labels[labels == seed % k] = 0
        assert KMEANS._means(rows, labels, k).tobytes() == add_at_means(rows, labels, k).tobytes()


class TestMinibatchKmeans:
    def test_unknown_init_rejected(self):
        message = r"init must be one of \('first_k', 'kmeans\+\+'\), got 'random'"
        with pytest.raises(ConfigError, match=message):
            minibatch_kmeans(SQUARE, ClusterConfig(k=2), init="random")

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
            "0x1.82e9886916e33p+2", "0x1.c42ce4d4f3994p-5", "0x1.ded16731b8a1ep-3",
            "0x1.80485e1732fcdp+2", "-0x1.06f995fa488fap-3", "0x1.11c12c1254be8p-10",
        ]),
        (200, 0.02, 20, True, [
            "0x1.862fa6513cf7ap+2", "0x1.89c8cfdc810c2p-5", "0x1.bb29799f4a54cp-3",
            "0x1.7d6a8f41e8fa5p+2", "-0x1.ee4c1e10306a2p-4", "-0x1.0474dd8d4025ap-6",
        ]),
    ], ids=["max-iters", "tol"])
    def test_batch_inertia_trace_and_pinned_fit(self, max_iters, tol, iterations, converged,
                                                centroids):
        # Labels, centroid bits, iterations and converged were recorded with
        # batches drawn by partial Fisher-Yates; the labels go back to when
        # the trace still came from a full assignment each iteration, so the
        # trace is bookkeeping and must not move the fit.
        rng = np.random.RandomState(16)
        rows = np.vstack([rng.randn(20, 2) * 0.5 + c for c in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])])
        cfg = ClusterConfig(k=3, seed=17, batch_size=12, max_iters=max_iters, tol=tol)
        res = minibatch_kmeans(rows, cfg, init="kmeans++")
        assert res.labels.tolist() == [2] * 20 + [0] * 20 + [1] * 20
        assert [float(v).hex() for v in res.centroids.ravel()] == centroids
        assert res.iterations == iterations
        assert res.converged is converged
        trace = np.array(res.objective_trace)
        assert len(trace) == res.iterations
        assert np.all(np.isfinite(trace)) and np.all(trace >= 0.0)

    def test_pinned_fit_with_batches_below_n(self):
        # Every iteration draws 50 of the 600 rows by partial Fisher-Yates.
        # Recorded with the closed-form center means; it must not move a bit.
        fm, _ = synth_blobs(200, 3, 4, 5.0, 1.0, 21)
        res = minibatch_kmeans(fm.rows, ClusterConfig(k=3, seed=1, batch_size=50, max_iters=30))
        assert res.labels.tolist() == [0] * 200 + [2] * 200 + [1] * 200
        assert [float(v).hex() for v in res.centroids.ravel()] == [
            "0x1.43ac9ebd75938p+2", "-0x1.65ca731d26be0p-4", "0x1.49500847928eap-4",
            "0x1.97ada85f8f9f2p-5", "0x1.b3751c195c580p-4", "0x1.20bc3a376ad15p-2",
            "0x1.20cc41f056a0fp+2", "-0x1.9be6b43b3507cp-6", "0x1.2c45af3b2b246p-11",
            "0x1.4077425f0e97ap+2", "0x1.fd041099e5669p-5", "0x1.966f13fe14697p-5",
        ]
        assert res.iterations == 30

    @pytest.mark.parametrize("per_blob, blobs, separation, noise, seed, tol", [
        (150, 2, 10.0, 0.1, 1, 1e-4),
        (1000, 4, 6.0, 1.0, 2, 1e-4),
        (1000, 4, 6.0, 1.0, 3, 0.05),
    ], ids=["blobs-300", "archive-4000", "archive-4000-tol"])
    @pytest.mark.parametrize("init", ["first_k", "kmeans++"])
    def test_closed_form_means_match_sequential_updates(self, per_blob, blobs, separation,
                                                        noise, seed, tol, init):
        fm, _ = synth_blobs(per_blob, blobs, 16, separation, noise, seed)
        for k in range(2, 7):
            cfg = ClusterConfig(k=k, seed=seed * 10 + k, tol=tol)
            res = minibatch_kmeans(fm.rows, cfg, init=init)
            ref = sequential_minibatch_kmeans(fm.rows, cfg, init)
            assert np.array_equal(res.labels, ref.labels)
            assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
            gap = np.linalg.norm(res.centroids - ref.centroids, axis=1)
            assert np.all(gap <= 1e-12 * np.linalg.norm(ref.centroids, axis=1))


class TestPolish:
    def test_every_call_of_a_blobs_sweep_matches_sequential_sweep(self, monkeypatch, tmp_path):
        log = CallLog(tmp_path)  # the calls happen in the sweep's worker processes
        polish = KMEANS._polish

        def recording(rows, labels, k):
            out = polish(rows, labels, k)
            log.append((rows.copy(), labels.copy(), k, out))
            return out

        monkeypatch.setattr(KMEANS, "_polish", recording)
        fm, _ = synth_blobs(150, 2, 16, 10.0, 0.1, seed=1)
        report = pipeline.sweep(fm, SweepConfig(ks=[2, 3, 4, 5, 6], seed=0))
        calls = log.records()
        assert all(row.error is None for row in report.rows)
        # five restarts per spectral and BIRCH cell
        assert len(calls) == 2 * 5 * 5
        for rows, labels, k, (got_labels, got_centers, _) in calls:
            want_labels, want_centers = sequential_polish(rows, labels, k)
            assert np.array_equal(got_labels, want_labels)
            assert got_centers.tobytes() == want_centers.tobytes()
        assert sum(stats["moves"] for *_, (_, _, stats) in calls) > 0

    @pytest.mark.parametrize("slug", ["spectral", "birch"])
    def test_sweep_cell_reports_polish_of_winning_restart(self, slug):
        fm, _ = synth_blobs(150, 2, 16, 10.0, 0.1, seed=0)
        index = pipeline.ALGORITHM_SLUGS.index(slug)
        runner = pipeline.ALGORITHMS[index][2]
        res = runner(fm.rows, ClusterConfig(k=4, seed=mix_seed(0, index, 4)))
        polish = res.diagnostics["polish"]
        assert set(polish) == {"passes", "moves", "capped"}
        assert polish["moves"] >= 1 and polish["passes"] >= 2
        assert polish["capped"] is False

    def test_pass_limit_is_reported(self, monkeypatch):
        rng = np.random.RandomState(2)
        rows = rng.randn(80, 2) + 5.0 * rng.randint(0, 3, size=(80, 1))
        labels = rng.randint(0, 3, size=80)
        free = KMEANS._polish(rows, labels, 3)[2]
        assert free["passes"] > 2 and not free["capped"]
        monkeypatch.setattr(KMEANS, "_MAX_POLISH_PASSES", 1)
        capped = KMEANS._polish(rows, labels, 3)[2]
        assert capped["passes"] == 1 and capped["capped"]
        assert capped["moves"] < free["moves"]

    def test_single_restart_records_no_polish(self):
        rows = np.random.RandomState(5).randn(30, 2)
        assert "polish" not in kmeans(rows, ClusterConfig(k=3, seed=1)).diagnostics
        polished = kmeans(rows, ClusterConfig(k=3, seed=1), restarts=2)
        assert polished.diagnostics["polish"]["passes"] >= 1
