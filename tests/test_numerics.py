import math
import tracemalloc

import numpy as np
import pytest

from radclust.errors import NonConvergenceError, NotPositiveDefiniteError, ShapeError
from radclust.numerics import (
    RngStream,
    cholesky,
    mix_seed,
    pairwise_distances,
    sym_eigen,
)

from oracles import (
    charpoly_eigs_by_bisection,
    fisher_yates_shuffle,
    jacobi_eigen,
    naive_pairwise,
    splitmix64_reference,
)

# Published reference sequence for the counter-based generator (seed 1234567).
REFERENCE_U64_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def assert_sign_convention(v):
    """Each column's first largest-magnitude entry is positive."""
    cols = np.arange(v.shape[1])
    assert np.all(v[np.argmax(np.abs(v), axis=0), cols] > 0.0)


class TestRngStream:
    def test_matches_published_reference_sequence(self):
        rng = RngStream(1234567)
        assert [rng.next_u64() for _ in range(5)] == REFERENCE_U64_1234567

    @pytest.mark.parametrize("seed", [0, 1, 42, 1234567, 2**64 - 1])
    def test_matches_independent_transcription(self, seed):
        rng = RngStream(seed)
        assert [rng.next_u64() for _ in range(64)] == splitmix64_reference(seed, 64)

    def test_equal_seeds_equal_sequences(self):
        a, b = RngStream(42), RngStream(42)
        assert [a.next_uniform() for _ in range(1000)] == [b.next_uniform() for _ in range(1000)]

    def test_bulk_draws_match_scalar_draws(self):
        a, b = RngStream(7), RngStream(7)
        assert np.array_equal(a.u64s(257), np.array([b.next_u64() for _ in range(257)], dtype=np.uint64))
        a, b = RngStream(9), RngStream(9)
        assert np.array_equal(a.uniforms(100), np.array([b.next_uniform() for _ in range(100)]))
        a, b = RngStream(11), RngStream(11)
        assert np.array_equal(a.gaussians(50), np.array([b.next_gaussian() for _ in range(50)]))

    def test_uniform_range_and_mean(self):
        u = RngStream(3).uniforms(100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert 0.495 <= u.mean() <= 0.505

    def test_gaussian_moments_and_finiteness(self):
        g = RngStream(5).gaussians(100_000)
        assert np.all(np.isfinite(g))
        assert abs(g.mean()) < 0.02
        assert 0.98 <= g.var() <= 1.02

    def test_long_sequence_reproducibility(self):
        a, b = RngStream(123), RngStream(123)
        assert np.array_equal(a.u64s(1_000_000), b.u64s(1_000_000))

    def test_shuffle_is_a_seeded_permutation(self):
        items = list(range(100))
        out = RngStream(8).shuffle(list(items))
        assert sorted(out) == items
        assert out != items  # astronomically unlikely to be identity
        assert RngStream(8).shuffle(list(items)) == out

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 4000])
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
    def test_shuffle_matches_scalar_oracle(self, n, container):
        for seed in range(20):
            bulk, scalar = RngStream(seed), RngStream(seed)
            out = bulk.shuffle(container(range(n)))
            expected = fisher_yates_shuffle(scalar, container(range(n)))
            assert np.array_equal(out, expected)
            assert bulk._state == scalar._state

    def test_shuffle_rejection_replays_scalar_draws(self, monkeypatch):
        n, seed = 10, 3
        bulk_draws = RngStream.u64s
        scalar_draw = RngStream.next_below
        scalar_calls = []

        def planted(self, count):
            u = bulk_draws(self, count)
            # the draw for bound 7 (not a power of two, 2**64 mod 7 == 2): rejected
            u[n - 7] = np.uint64(2**64 - 1)
            return u

        def counted(self, bound):
            scalar_calls.append(bound)
            return scalar_draw(self, bound)

        monkeypatch.setattr(RngStream, "u64s", planted)
        monkeypatch.setattr(RngStream, "next_below", counted)
        stream = RngStream(seed)
        out = stream.shuffle(list(range(n)))
        assert scalar_calls == list(range(n, 1, -1))
        monkeypatch.undo()
        oracle = RngStream(seed)
        assert out == fisher_yates_shuffle(oracle, list(range(n)))
        assert stream._state == oracle._state

    def test_next_below_bounds(self):
        rng = RngStream(13)
        draws = [rng.next_below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_spawn_gives_distinct_deterministic_children(self):
        child1 = RngStream(21).spawn()
        child2 = RngStream(21).spawn()
        assert child1.seed == child2.seed
        assert child1.next_u64() == child2.next_u64()
        assert RngStream(21).next_u64() != RngStream(22).next_u64()

    def test_mix_seed_pure_and_sensitive(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(0) != mix_seed(1)


class TestSymEigen:
    def test_known_2x2_spectrum(self):
        w, v = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        w, v = sym_eigen(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-14)

    def test_random_4x4_matches_charpoly_bisection(self):
        rng = np.random.RandomState(0)
        b = rng.randn(4, 4)
        a = (b + b.T) / 2.0
        w, _ = sym_eigen(a)
        roots = charpoly_eigs_by_bisection(a)
        assert len(roots) == 4
        assert np.allclose(w, roots, atol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 50])
    def test_residual_orthonormality_trace(self, n):
        rng = np.random.RandomState(n)
        b = rng.randn(n, n)
        a = (b + b.T) / 2.0
        w, v = sym_eigen(a)
        bound = 1e-8 * max(1.0, float(np.abs(a).sum(axis=1).max()))
        resid = np.abs(a @ v - v * w[None, :]).max()
        assert resid <= bound
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-8
        assert abs(w.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
        assert np.all(np.diff(w) >= 0.0)

    def test_iteration_cap_raises_with_residual(self):
        # The sweep cap belongs to the Jacobi reference in oracles.py.
        a = [[2.0, 1.0], [1.0, 2.0]]
        with pytest.raises(NonConvergenceError) as exc:
            jacobi_eigen(a, max_sweeps=0)
        assert exc.value.residual is not None
        assert exc.value.residual > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_with_position(self, bad):
        a = np.eye(4)
        a[2, 1] = a[1, 2] = bad
        with pytest.raises(NonConvergenceError, match=r"non-finite entry .* at \(1, 2\)"):
            sym_eigen(a)

    def test_lapack_failure_maps_to_non_convergence(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            sym_eigen([[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ShapeError):
            sym_eigen(np.zeros(shape))

    def test_reads_lower_triangle_without_modifying_input(self):
        rng = np.random.RandomState(3)
        b = rng.randn(6, 6)
        lower = np.tril(b) + np.tril(b, -1).T
        before = b.copy()
        w, v = sym_eigen(b)
        assert np.array_equal(b, before)
        w_ref, v_ref = sym_eigen(lower)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_sign_convention_tie_goes_to_lowest_index(self, monkeypatch):
        s = math.sqrt(0.5)
        lapack_v = np.array([[-s, -s], [s, -s]])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 3.0]), lapack_v.copy()))
        _, v = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(v, [[s, s], [-s, s]])

    def test_sign_convention(self):
        rng = np.random.RandomState(4)
        b = rng.randn(30, 30)
        _, v = sym_eigen(b + b.T)
        assert_sign_convention(v)
        _, v_neg = sym_eigen(-(b + b.T))
        assert_sign_convention(v_neg)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_jacobi_and_charpoly_oracles(self, n):
        rng = np.random.RandomState(200 + n)
        b = rng.randn(n, n)
        a = (b + b.T) / 2.0
        w, v = sym_eigen(a)
        w_jac, v_jac = jacobi_eigen(a)
        assert np.allclose(w, w_jac, atol=1e-10)
        assert np.allclose(w, charpoly_eigs_by_bisection(a), atol=1e-6)
        assert_sign_convention(v)
        # Distinct eigenvalues: each vector is the oracle's up to sign.
        cols = np.arange(n)
        peaks = np.argmax(np.abs(v), axis=0)
        v_jac = v_jac * np.sign(v_jac[peaks, cols])
        assert np.abs(v - v_jac).max() <= 1e-8

    def test_repeated_eigenvalue_matches_oracle_eigenspaces(self):
        rng = np.random.RandomState(7)
        q, _ = np.linalg.qr(rng.randn(6, 6))
        spectrum = np.array([-1.0, 2.0, 2.0, 2.0, 3.5, 5.0])
        a = (q * spectrum) @ q.T
        a = (a + a.T) / 2.0
        w, v = sym_eigen(a)
        w_jac, v_jac = jacobi_eigen(a)
        assert np.allclose(w, spectrum, atol=1e-10)
        assert np.allclose(w_jac, spectrum, atol=1e-10)
        assert_sign_convention(v)
        # Vectors inside the 3-D eigenspace are arbitrary; its projector is not.
        for group in ([0], [1, 2, 3], [4], [5]):
            proj = v[:, group] @ v[:, group].T
            proj_jac = v_jac[:, group] @ v_jac[:, group].T
            assert np.abs(proj - proj_jac).max() <= 1e-8


class TestCholesky:
    def test_hand_checkable_2x2(self):
        L = cholesky([[4.0, 2.0], [2.0, 3.0]])
        assert np.allclose(L, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-15)

    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(5)), np.eye(5))

    def test_indefinite_reports_failing_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.pivot == 1

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 17, 33, 50])
    def test_round_trip_on_random_spd(self, n):
        rng = np.random.RandomState(100 + n)
        b = rng.randn(n, n)
        a = b.T @ b + np.eye(n)
        L = cholesky(a)
        assert np.abs(L @ L.T - a).max() <= 1e-10 * max(1.0, np.abs(a).max())
        assert np.all(np.diag(L) > 0.0)


    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            cholesky(np.zeros((2, 3)))

    def test_asymmetric_input_factored_as_symmetric_part(self):
        a = np.array([[4.0, 1.0], [3.0, 3.0]])
        before = a.copy()
        L = cholesky(a)
        assert np.array_equal(L, cholesky([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-15)
        assert np.array_equal(a, before)


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert type(d) is np.ndarray and d.shape == (2, 2)
        assert d[0, 1] == 5.0

    def test_duplicate_rows_give_exact_zero(self):
        x = np.array([[1.3, -2.7, 0.4], [0.0, 1.0, 2.0], [1.3, -2.7, 0.4]])
        d = pairwise_distances(x)
        assert d[0, 2] == 0.0 and d[2, 0] == 0.0

    def test_matches_naive_loops(self):
        rng = np.random.RandomState(11)
        x = rng.randn(20, 5)
        d = pairwise_distances(x)
        assert np.abs(d - naive_pairwise(x)).max() <= 1e-12

    def test_metric_properties(self):
        rng = np.random.RandomState(12)
        x = rng.randn(15, 3)
        d = pairwise_distances(x)
        assert np.array_equal(np.diag(d), np.zeros(15))
        assert np.array_equal(d, d.T)
        for i in range(15):
            for j in range(15):
                for k in range(15):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_cross_form_matches_naive_loops(self):
        rng = np.random.RandomState(15)
        x, y = rng.randn(7, 5), rng.randn(11, 5) * 2.0 + 1.0
        d = pairwise_distances(x, y)
        assert type(d) is np.ndarray and d.shape == (7, 11)
        assert np.abs(d - naive_pairwise(np.vstack([x, y]))[:7, 7:]).max() <= 1e-12

    def test_cross_form_agrees_with_self_form_off_the_diagonal(self):
        x = np.random.RandomState(16).randn(200, 16) * 3.0 + 1.0
        full, cross = pairwise_distances(x), pairwise_distances(x, x)
        off = ~np.eye(200, dtype=bool)
        assert np.abs(full - cross)[off].max() <= 1e-12

    def test_cross_form_rejects_mismatched_widths(self):
        with pytest.raises(ShapeError, match="width 3 with rows of width 2"):
            pairwise_distances(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_same_bits_for_any_memory_layout(self):
        x = np.random.RandomState(14).randn(300, 16) * 3.0 + 1.0
        d = pairwise_distances(x)
        strided = np.repeat(x, 2, axis=1)[:, ::2]
        for view in (np.asfortranarray(x), strided):
            assert np.array_equal(pairwise_distances(view), d)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_with_position(self, bad):
        x = np.zeros((5, 3))
        x[3, 2] = bad
        with pytest.raises(ShapeError, match=r"non-finite value .* at \(3, 2\)"):
            pairwise_distances(x)

    def test_peak_memory_is_gram_plus_output(self):
        n = 1000
        x = np.random.RandomState(13).randn(n, 16)
        tracemalloc.start()
        try:
            pairwise_distances(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8
