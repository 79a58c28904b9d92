import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from radclust import numerics
from radclust.errors import NonConvergenceError, ShapeError
from radclust.numerics import (
    RngStream,
    mix_seed,
    pairwise_distances,
    squared_distances,
    sym_eigen,
)

from call_log import CallLog
from oracles import (
    ONE_SHOT_DRAWS,
    charpoly_eigs_by_bisection,
    fisher_yates_shuffle,
    jacobi_eigen,
    naive_pairwise,
    partial_fisher_yates,
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
        a, b = RngStream(11), RngStream(11)
        assert np.array_equal(a.gaussians(50), np.concatenate([b.gaussians(1) for _ in range(50)]))
        assert a._state == b._state

    @pytest.mark.parametrize("kind", sorted(ONE_SHOT_DRAWS))
    def test_negative_count_rejected_before_any_draw(self, kind):
        stream = RngStream(5)
        with pytest.raises(ValueError, match="count must be >= 0, got -3"):
            getattr(stream, kind)(-3)
        assert stream._state == RngStream(5)._state
        empty = getattr(stream, kind)(0)
        assert empty.shape == (0,) and empty.dtype == getattr(RngStream(5), kind)(1).dtype
        assert stream._state == RngStream(5)._state

    @pytest.mark.parametrize("kind", sorted(ONE_SHOT_DRAWS))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, kind, workers):
        oracle_draws, per = ONE_SHOT_DRAWS[kind]
        block = numerics._BLOCK // per
        name = {"u64s": "_u64_block", "gaussians": "_gaussian_block"}[kind]
        kernel = getattr(numerics, name)
        threads = []

        def recording_kernel(*args):
            threads.append(threading.current_thread())
            kernel(*args)

        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        monkeypatch.setattr(numerics, name, recording_kernel)
        count = 3 * block + 7  # four blocks, the last one short
        stream, oracle = RngStream(2**64 - 2), RngStream(2**64 - 2)
        got = getattr(stream, kind)(count)
        assert got.tobytes() == oracle_draws(oracle, count).tobytes()
        assert stream._state == oracle._state
        assert threads == [threading.current_thread()] * 4

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_span_exception_reaches_the_caller(self, monkeypatch, failing):
        # With two CPUs, a two-block draw once split into a span the caller
        # filled (the first block) and one a worker filled (the second). Both
        # blocks now run here, one after another; a failure in either reaches
        # the caller, stops the draw, and leaves the state where it was.
        block = numerics._BLOCK // 2
        kernel = numerics._gaussian_block
        fails_on = {"caller": 1, "worker": 2}[failing]
        calls = []

        def fail_on_one_block(*args):
            calls.append(threading.current_thread())
            if len(calls) == fails_on:
                raise RuntimeError(f"{failing} span failed")
            kernel(*args)

        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        monkeypatch.setattr(numerics, "_gaussian_block", fail_on_one_block)
        stream = RngStream(31)
        with pytest.raises(RuntimeError, match=f"{failing} span failed"):
            stream.gaussians(2 * block)
        assert calls == [threading.current_thread()] * fails_on
        assert stream._state == RngStream(31)._state

    @pytest.mark.parametrize("kind", sorted(ONE_SHOT_DRAWS))
    @pytest.mark.parametrize("skip", [0, 1, 5, numerics._BLOCK + 3])
    def test_ahead_starts_where_one_shot_draws_reach(self, kind, skip):
        oracle_draws, per = ONE_SHOT_DRAWS[kind]
        parent = RngStream(2**64 - 2)
        child = parent.ahead(per * skip)
        assert parent._state == RngStream(2**64 - 2)._state  # the parent did not move
        oracle = RngStream(2**64 - 2)
        expected = oracle_draws(oracle, skip + 9)[skip:]
        assert getattr(child, kind)(9).tobytes() == expected.tobytes()
        assert child._state == oracle._state

    def test_uniform_range_and_mean(self):
        stream = RngStream(3)
        u = np.array([stream.next_uniform() for _ in range(100_000)])
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

    # At n = 2**63 + 1 the first draw is rejected about half the time, so
    # seeds 0-2 replay the scalar draws and 3-4 keep the bulk ones; 2**64 - 1
    # puts i + next_below(n - i) at the top of the 64-bit range
    @pytest.mark.parametrize("n", [1, 2, 7, 600, 4000, 2**63 + 1, 2**64 - 1])
    def test_sample_matches_partial_fisher_yates_oracle(self, n):
        for m in sorted({0, 1, min(n // 2, 4000), min(n, 4000)}):
            for seed in range(5):
                stream, scalar = RngStream(seed), RngStream(seed)
                assert stream.sample(n, m) == partial_fisher_yates(scalar, n, m)
                assert stream._state == scalar._state

    def test_next_below_bounds(self):
        rng = RngStream(13)
        draws = [rng.next_below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_next_below_accepts_bounds_up_to_two_to_the_64(self):
        rng, raw = RngStream(17), RngStream(17)
        # at 2**64 no draw is rejected and no modulo applies
        assert [rng.next_below(2**64) for _ in range(5)] == [raw.next_u64() for _ in range(5)]
        assert RngStream(17).next_below(1) == 0

    @pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**65])
    def test_next_below_rejects_bounds_one_draw_cannot_cover(self, bound):
        rng = RngStream(19)
        with pytest.raises(ValueError, match="bound must be in"):
            rng.next_below(bound)
        assert rng._state == RngStream(19)._state

    def test_sample_rejects_populations_above_two_to_the_64(self):
        with pytest.raises(ValueError, match="bound must be in"):
            RngStream(23).sample(2**64 + 1, 1)
        assert RngStream(23).sample(2**64 + 1, 0) == []
        stream, scalar = RngStream(23), RngStream(23)
        assert stream.sample(2**64, 3) == partial_fisher_yates(scalar, 2**64, 3)

    @pytest.mark.parametrize("n, m", [(3, 5), (0, 1), (2**64 + 1, 2**64 + 2)])
    def test_sample_rejects_more_indices_than_the_population(self, n, m):
        stream = RngStream(29)
        with pytest.raises(ValueError, match=rf"m={m} distinct indices from range\(n={n}\)"):
            stream.sample(n, m)
        assert stream._state == RngStream(29)._state

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


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_input_order(self, monkeypatch, workers):
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        threads = set()

        def slow_square(x):
            threads.add(threading.current_thread())
            time.sleep(0.001 * (x % 3))  # later items often finish first
            return x * x

        assert list(numerics.ordered_map(slow_square, range(12))) == [x * x for x in range(12)]
        if workers == 1 or numerics._openblas() is None:
            assert threads == {threading.main_thread()}
        else:
            assert len(threads) == workers and threading.main_thread() not in threads

    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_are_released_as_they_are_yielded(self, monkeypatch, workers):
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        release, refs = threading.Event(), []

        def fn(x):
            if x == 7:  # still pending while the results before it are checked
                assert release.wait(10)
            return np.full(4, x)

        results = numerics.ordered_map(fn, range(8))
        for x in range(7):
            value = next(results)
            assert value[0] == x
            refs.append(weakref.ref(value))
            del value
            # the map keeps no result it has handed over
            assert all(ref() is None for ref in refs)
        release.set()
        assert next(results)[0] == 7

    @pytest.mark.parametrize("end", ["success", "failure", "closed early"])
    def test_blas_runs_on_one_thread_during_the_map_and_is_restored(self, monkeypatch, end):
        if numerics._openblas() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be set")
        get, put = numerics._openblas()
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        counts, original = [], get()

        def fn(x):
            counts.append(get())
            if end == "failure" and x == 3:
                raise RuntimeError("item 3 failed")
            return x

        put(3)
        try:
            results = numerics.ordered_map(fn, range(8))
            if end == "closed early":
                assert next(results) == 0
                results.close()
            else:
                try:
                    assert list(results) == list(range(8))
                except RuntimeError:
                    assert end == "failure"
            after = get()
        finally:
            put(original)
        assert counts and set(counts) == {1}
        assert after == 3

    def test_runs_inline_without_an_openblas(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 3)
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        threads = []

        def fn(x):
            threads.append(threading.current_thread())
            return -x

        assert list(numerics.ordered_map(fn, range(5))) == [0, -1, -2, -3, -4]
        assert threads == [threading.main_thread()] * 5

    def test_openblas_lookup_finds_none_in_a_directory_without_one(self, monkeypatch, tmp_path):
        import _ctypes

        libs = tmp_path / "numpy.libs"
        libs.mkdir()
        (libs / "libbroken_blas.so").write_bytes(b"not a shared object")
        (libs / "libnot_openblas.so").symlink_to(_ctypes.__file__)  # loads; has no such symbols
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert numerics._openblas.__wrapped__() is None

    def test_many_workers_under_a_short_switch_interval(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 8)
        calls = []

        def fn(x):
            calls.append(x)
            return x * 3

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(numerics.ordered_map(fn, range(400)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [x * 3 for x in range(400)]
        assert sorted(calls) == list(range(400))  # every item ran exactly once

    def test_many_failures_under_a_short_switch_interval(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 8)

        def fn(x):
            if x % 7 == 6:  # items 6, 13, 20, ... fail, often before earlier items start
                raise ValueError(f"item {x} failed")
            return x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                seen = []
                with pytest.raises(ValueError, match="item 6 failed"):
                    for value in numerics.ordered_map(fn, range(400)):
                        seen.append(value)
                # no item before the first failure was skipped for a later one
                assert seen == list(range(6))
        finally:
            sys.setswitchinterval(interval)


class TestProcessMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_input_order(self, monkeypatch, workers):
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)

        def slow_square(x):  # a closure: the workers inherit it through the fork, unpickled
            time.sleep(0.001 * (x % 3))  # later items often finish first
            return x * x, os.getpid()

        forks = workers > 1 and numerics._fork_is_quiet()  # not on CPython 3.12+ with BLAS threads
        results = numerics.process_map(slow_square, range(12))
        assert [value for value, _ in results] == [x * x for x in range(12)]
        pids = {pid for _, pid in results}
        if forks:
            assert os.getpid() not in pids and len(pids) <= workers
        else:
            assert pids == {os.getpid()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_runs_on_one_thread_in_every_call_and_is_restored(self, monkeypatch, workers):
        if numerics._openblas() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be set")
        get, put = numerics._openblas()
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        original = get()
        put(3)
        try:
            counts = numerics.process_map(lambda x: get(), range(4))
            after = get()
        finally:
            put(original)
        assert counts == [1] * 4
        assert after == 3

    def test_runs_without_an_openblas(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        assert numerics.process_map(lambda x: -x, range(5)) == [0, -1, -2, -3, -4]

    def test_runs_inline_where_a_fork_would_warn(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        monkeypatch.setattr(numerics, "_FORK_WARNS", True)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert numerics._os_threads() >= 2
            pids = numerics.process_map(lambda x: os.getpid(), range(4))
        finally:
            release.set()
            helper.join()
        assert pids == [os.getpid()] * 4

    def test_runs_inline_without_fork(self, monkeypatch):
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert numerics.process_map(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4


class TestBothMaps:
    """The map contract of the numerics module docstring, on the thread and the process map."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("mapper", ["ordered_map", "process_map"])
    def test_first_failure_in_input_order_is_raised(self, monkeypatch, tmp_path, mapper, workers):
        log = CallLog(tmp_path)  # the process map's calls start in forked workers

        def fn(x):
            log.append(x)
            if x == 5:
                time.sleep(0.05)
                raise ValueError("item 5 failed")
            if x == 6:  # fails first in time, after item 5 in input order
                raise KeyError("item 6 failed")
            time.sleep(0.01)
            return x

        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        threads, children, seen = threading.active_count(), multiprocessing.active_children(), []
        with pytest.raises(ValueError, match="item 5 failed"):
            for value in getattr(numerics, mapper)(fn, range(200)):
                seen.append(value)
        # the generator yields the results before the failure; the list holds none
        assert seen == (list(range(5)) if mapper == "ordered_map" else [])
        # raised after the workers stopped
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == children
        started = sorted(log.records())
        # items start in input order, and the ones not yet started were cancelled
        assert started == list(range(len(started)))
        assert 6 <= len(started) < 100
        if workers == 1:
            assert started == list(range(6))


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
        residual = float(re.search(r"off-diagonal norm (\S+)\)", str(exc.value)).group(1))
        assert residual > 0.0

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


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert type(d) is np.ndarray and d.shape == (2, 2)
        assert d[0, 1] == 5.0

    def test_duplicate_rows_give_exact_zero(self):
        x = np.array([[1.3, -2.7, 0.4], [0.0, 1.0, 2.0], [1.3, -2.7, 0.4]])
        d = pairwise_distances(x)
        assert d[0, 2] == 0.0 and d[2, 0] == 0.0
        # 25 offset rows and their copies, shuffled: the BLAS cross term of two
        # copies can be summed in another order than either squared norm.
        for seed in range(6):
            rng = np.random.RandomState(seed)
            base = rng.randn(25, 16) + 5.0 * rng.randn(16)
            perm = rng.permutation(50)
            x = np.vstack([base, base])[perm]
            pos = np.argsort(perm)
            first, copy = pos[:25], pos[25:]
            full = pairwise_distances(x)
            assert np.array_equal(full, full.T), seed
            for d in (full, pairwise_distances(x, x)):
                assert not d[first, copy].any() and not d[copy, first].any(), seed
                assert not np.diag(d).any(), seed

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

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), (2, 2, 2)])
    def test_non_matrix_input_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"expected a 2-D \(n>=1, d>=1\) sample matrix"):
            pairwise_distances(np.zeros(shape))

    def test_peak_memory_is_gram_plus_output(self):
        # one n x n buffer, plus a norm-sum block of 2^19 entries: 0.13 of a matrix at n=2000
        n = 2000
        # all-equal rows put every pair through the exact-zero recheck
        for x in (np.random.RandomState(13).randn(n, 16), np.ones((n, 16))):
            tracemalloc.start()
            try:
                d = pairwise_distances(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.3 * n * n * 8
        assert not d.any()

    @pytest.mark.parametrize("elements", [1, 7 * 300, 299 * 300])
    def test_norm_sum_blocks_give_the_bits_of_one_block(self, monkeypatch, elements):
        rng = np.random.RandomState(17)
        x = rng.randn(300, 5) * 1e3 + 1e3
        x[::7] = x[3]  # duplicated rows go through the recheck
        whole = squared_distances(x)
        monkeypatch.setattr(numerics, "_NORM_ELEMENTS", elements)
        blocked = squared_distances(x)
        assert blocked.tobytes() == whole.tobytes()
        assert np.array_equal(blocked, blocked.T)
