import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import radclust.clustering.gmm as GMM
from radclust import ClusterConfig, gmm
from radclust.errors import ConfigError, DegenerateComponentError
from radclust.pipeline import synth_blobs

# Per cell "data/mode/k[/max_iters=m]": labels, iterations, converged and the
# float.hex of every trace entry, and for full and tied the sha256 of the
# model's means, weights and covariances. Recorded before the three covariance
# modes shared one E-step loop and one M-step loop.
PINS = json.loads((Path(__file__).parent / "data" / "gmm_pins.json").read_text())
PIN_DATA = {"blobs": (150, 2, 16, 10.0, 0.1, 1), "archive": (100, 4, 16, 6.0, 1.0, 1)}
REG = 1e-6


def same_partition(a, b):
    mapping = {}
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def two_blobs(n_per=50, separation=20.0, sigma=1.0, seed=0):
    rng = np.random.RandomState(seed)
    rows = np.vstack([
        rng.randn(n_per, 2) * sigma,
        rng.randn(n_per, 2) * sigma + [separation * sigma, 0.0],
    ])
    truth = np.array([0] * n_per + [1] * n_per)
    return rows, truth


class TestClosedForms:
    def test_k1_full_mode_closed_form(self):
        rows = np.array([[0.0, 0.0], [2.0, 0.0]])
        res = gmm(rows, ClusterConfig(k=1, seed=0), mode="full")
        model = res.model
        assert np.allclose(model.means[0], [1.0, 0.0], atol=1e-12)
        expected = np.array([[1.0 + 1e-6, 0.0], [0.0, 1e-6]])
        assert np.allclose(model.covariances[0], expected, atol=1e-12)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_tied_mode_single_shared_matrix(self):
        rows, _ = two_blobs(seed=1)
        res = gmm(rows, ClusterConfig(k=2, seed=1), mode="tied")
        assert res.model.covariances.shape == (2, 2)
        L = np.linalg.cholesky(res.model.covariances)
        assert np.all(np.diag(L) > 0.0)

    def test_diag_mode_positive_variances(self):
        rows, _ = two_blobs(seed=2)
        res = gmm(rows, ClusterConfig(k=2, seed=2), mode="diag")
        assert res.model.covariances.shape == (2, 2)
        assert np.all(res.model.covariances > 0.0)


class TestCovariancePooling:
    def test_k1_every_mode_is_the_biased_sample_covariance(self):
        rng = np.random.RandomState(12)
        mix = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, -0.7], [0.0, 0.0, 0.3]])
        rows = rng.randn(80, 3) @ mix + 40.0
        expected = np.cov(rows.T, bias=True) + REG * np.eye(3)
        full, diag, tied = (
            gmm(rows, ClusterConfig(k=1, seed=0), mode=mode).model.covariances
            for mode in ("full", "diag", "tied")
        )
        assert (full.shape, diag.shape, tied.shape) == ((1, 3, 3), (1, 3), (3, 3))
        assert np.allclose(full[0], expected, rtol=1e-10, atol=1e-12)
        assert np.allclose(diag[0], np.diag(expected), rtol=1e-10, atol=1e-12)
        assert np.allclose(tied, expected, rtol=1e-10, atol=1e-12)

    def test_separated_blobs_get_their_own_full_covariances(self):
        rng = np.random.RandomState(13)
        blobs = [
            rng.randn(60, 2) @ np.array([[1.0, 0.0], [0.8, 0.4]]),
            rng.randn(70, 2) @ np.array([[0.3, -0.5], [0.0, 1.5]]) + [40.0, 0.0],
        ]
        model = gmm(np.vstack(blobs), ClusterConfig(k=2, seed=13), mode="full").model
        for blob in blobs:
            c = int(np.argmin(np.linalg.norm(model.means - blob.mean(axis=0), axis=1)))
            expected = np.cov(blob.T, bias=True) + REG * np.eye(2)
            assert np.allclose(model.covariances[c], expected, rtol=0.0, atol=1e-9)

    def test_initial_covariances_are_the_global_covariance_per_mode(self):
        rng = np.random.RandomState(14)
        rows = rng.randn(30, 2) * [3.0, 0.5]
        centred = rows - rows.mean(axis=0)
        scatter = (centred.T @ centred)[None]
        expected = centred.T @ centred / 30 + REG * np.eye(2)
        full, diag, tied = (
            GMM._covariances(scatter, np.full(3, 30.0), 30, mode, REG)
            for mode in ("full", "diag", "tied")
        )
        assert np.array_equal(full, np.repeat(expected[None], 3, axis=0))
        assert np.array_equal(diag, np.repeat(np.diag(expected)[None], 3, axis=0))
        assert np.array_equal(tied, expected)


class TestWhitening:
    def test_diag_variances_take_the_closed_form(self):
        var = np.array([4.0, 0.25, 9.0])
        logdet, linv_t = GMM._whitening(var, REG, 0)
        assert logdet == pytest.approx(np.log(9.0))
        assert np.array_equal(linv_t, np.diag([0.5, 2.0, 1.0 / 3.0]))

    def test_singular_psd_matrix_escalates_to_a_finite_factor(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        logdet, linv_t = GMM._whitening(cov, REG, 0)
        assert np.isfinite(logdet) and np.all(np.isfinite(linv_t))
        # the factor whitens cov + reg*I, the first shift that factors
        whitened = linv_t.T @ (cov + REG * np.eye(2)) @ linv_t
        assert np.allclose(whitened, np.eye(2), atol=1e-6)

    def test_negative_definite_matrix_names_its_component(self):
        with pytest.raises(DegenerateComponentError) as info:
            GMM._whitening(-np.eye(3), 1e-6, 4)
        assert info.value.component == 4


class TestFinalEStep:
    @pytest.mark.parametrize("mode", ["tied", "diag", "full"])
    def test_closing_e_step_runs_only_after_max_iters(self, monkeypatch, mode):
        calls = []
        e_step = GMM._e_step
        monkeypatch.setattr(GMM, "_e_step", lambda *a: calls.append(1) or e_step(*a))
        rows, _ = two_blobs(seed=15)
        converged = gmm(rows, ClusterConfig(k=2, seed=15), mode=mode)
        assert converged.converged and len(calls) == converged.iterations
        calls.clear()
        capped = gmm(rows, ClusterConfig(k=2, seed=15, tol=1e-300, max_iters=2), mode=mode)
        assert not capped.converged and len(calls) == capped.iterations + 1 == 3


class TestEmBehavior:
    @pytest.mark.parametrize("mode", ["tied", "diag", "full"])
    def test_separated_blobs_recovered(self, mode):
        rows, truth = two_blobs(seed=3)
        res = gmm(rows, ClusterConfig(k=2, seed=3), mode=mode)
        assert same_partition(res.labels, truth)

    @pytest.mark.parametrize("mode", ["tied", "diag", "full"])
    def test_log_likelihood_non_decreasing(self, mode):
        for seed in range(10):
            rows, _ = two_blobs(seed=seed)
            res = gmm(rows, ClusterConfig(k=2, seed=seed, tol=1e-12, max_iters=60), mode=mode)
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    @pytest.mark.parametrize("mode", ["tied", "diag", "full"])
    def test_converged_ll_close_to_long_run(self, mode):
        rows, _ = two_blobs(seed=11)
        short = gmm(rows, ClusterConfig(k=2, seed=11, tol=1e-7), mode=mode)
        long = gmm(rows, ClusterConfig(k=2, seed=11, tol=1e-300, max_iters=200), mode=mode)
        assert short.objective_trace[-1] == pytest.approx(
            long.objective_trace[-1], abs=1e-6
        )

    def test_weights_on_simplex_and_responsibilities(self):
        rows, _ = two_blobs(seed=4)
        res = gmm(rows, ClusterConfig(k=3, seed=4), mode="full")
        assert res.model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.model.weights >= 0.0)

    def test_deterministic_under_seed(self):
        rows, _ = two_blobs(seed=5)
        cfg = ClusterConfig(k=2, seed=6)
        a = gmm(rows, cfg, mode="full")
        b = gmm(rows, cfg, mode="full")
        assert np.array_equal(a.labels, b.labels)
        assert a.objective_trace == b.objective_trace

    def test_translation_invariance(self):
        rows, _ = two_blobs(seed=7)
        a = gmm(rows, ClusterConfig(k=2, seed=8), mode="diag")
        b = gmm(rows + 1000.0, ClusterConfig(k=2, seed=8), mode="diag")
        assert same_partition(a.labels, b.labels)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            gmm(np.zeros((4, 2)), ClusterConfig(k=2, seed=0), mode="spherical")

    def test_near_duplicate_points_survive_regularization(self):
        # nearly rank-deficient data exercises the regularization path
        rows = np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9], [5.0, 5.0], [5.0, 5.0 + 1e-9]])
        res = gmm(rows, ClusterConfig(k=2, seed=9), mode="full")
        assert np.all(np.isfinite(res.objective_trace))
        assert set(res.labels.tolist()) <= {0, 1}


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("cell", sorted(PINS))
def test_pinned_cell(cell):
    name, mode, k, *cap = cell.split("/")
    rows = synth_blobs(*PIN_DATA[name])[0].rows
    knobs = {"max_iters": int(cap[0].split("=")[1])} if cap else {}
    res = gmm(rows, ClusterConfig(k=int(k), seed=1, **knobs), mode=mode)
    pin = PINS[cell]
    assert sha256(res.labels.astype(np.int64)) == pin["labels"]
    assert (res.iterations, res.converged) == (pin["iterations"], pin["converged"])
    trace = [float.fromhex(h) for h in pin["trace"]]
    if mode == "diag":
        # the diag E-step may round differently in the last bits
        assert len(res.objective_trace) == len(trace)
        for got, want in zip(res.objective_trace, trace):
            assert math.isclose(got, want, rel_tol=1e-12)
        return
    assert [float(v).hex() for v in res.objective_trace] == pin["trace"]
    model = res.model
    assert [sha256(model.means), sha256(model.weights), sha256(model.covariances)] == [
        pin["means"], pin["weights"], pin["covariances"]
    ]
