"""Deterministic random streams and dense symmetric linear algebra.

Everything downstream (k-means seeding, mini-batch sampling, mixture
initialization, spectral embeddings, distances) rests on the primitives
here: a counter-based 64-bit random stream that produces the same sequence
on every platform, a dense symmetric eigensolver (LAPACK through numpy)
whose eigenvector signs are fixed by a deterministic rule, and one
squared-distance kernel. :func:`ordered_map` runs independent items, such
as the images of the CLI's preprocess and extract, or the synthetic images
of :func:`radclust.pipeline.synth_textured_images`, on one thread per CPU
and yields their results; :func:`process_map` does the same on one forked
worker process per CPU, for work that holds the GIL, such as the fits of a
sweep, and returns a list. Each submits its items to a
:mod:`concurrent.futures` executor, :func:`ordered_map` through the
executor's ``map``, or runs a plain loop where it runs inline, and both
share one contract:

- items start in input order, and results come back in input order and
  are released as they are yielded;
- the first failure in input order is raised after the workers have
  stopped;
- items not yet started are cancelled, and closing the generator early
  does the same.

These two maps are the only places the module starts threads or
processes. A bulk draw of :class:`RngStream` runs on the caller's thread; a
caller that wants many draws made in parallel, such as the synthetic images
of :func:`radclust.pipeline.synth_textured_images`, positions one stream per
output with :meth:`RngStream.ahead` and maps over them. Matrices go in and
come out as plain float64 numpy arrays; there is no wrapper type.
All floating arithmetic is 64-bit.
Nothing here factors a covariance: :mod:`radclust.clustering.gmm` calls
numpy's LAPACK Cholesky directly.
"""

import contextlib
import ctypes
import functools
import math
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .errors import NonConvergenceError, ShapeError
from .features import as_rows

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53
_EPS = 2.0 ** -52  # float64 machine epsilon
# Entries screened at once for the near-zero recheck (256 KiB of flags), and
# the flagged pairs whose coordinate differences are built at once.
_RECHECK_ELEMENTS = 1 << 18
_RECHECK_PAIRS = 1 << 13
# Entries of the self form's norm sums built at once (4 MiB), so that its one
# n x n buffer is the only matrix-sized allocation.
_NORM_ELEMENTS = 1 << 19
# Raw draws made per block (256 KiB of uint64): a block's passes reuse its
# buffers in cache.
_BLOCK = 1 << 15
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_S31 = np.uint64(31)
_S11 = np.uint64(11)
# CPython 3.12 and later warn when a process with more than one OS thread forks.
_FORK_WARNS = sys.version_info >= (3, 12)
# (fn, items) of the process map a forked worker serves; set only in workers.
_job = None


def _mix64(z):
    """Bijective finalizing scramble of a 64-bit counter value."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts):
    """Fold integer components into one well-mixed 64-bit seed.

    Pure function of its arguments; used to hand independent child seeds to
    the cells of a sweep so parallel and serial execution agree.
    """
    acc = 0x8A5CD789635D2DFF
    for p in parts:
        acc = _mix64((acc + (int(p) & _MASK64) + _GAMMA) & _MASK64)
    return acc


def _cpus():
    """CPUs this process may run on: the most workers a map uses."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    The library is the one numpy's wheel ships in ``numpy.libs``; its symbols
    carry the scipy-openblas prefix, the 64-bit-integer suffix, or neither.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, restoring the count read before it.

    Without an OpenBLAS whose thread count can be set, the block runs as is.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each of ``items``, under the module's map contract.

    The calls run on a thread pool of up to one worker per CPU this process
    may run on, while OpenBLAS runs each GEMM on one thread, so the workers
    do not contend for the CPUs; the thread count read before the map is
    restored when it ends. The first failure in input order is raised where
    its result would have been yielded, so the caller has seen exactly the
    results a serial loop would have given it before that failure. With one
    CPU, one item, or no OpenBLAS whose threads can be set, the calls run
    here, one after another. Its callers map over images: the CLI's
    preprocess and extract, and :func:`radclust.pipeline.synth_textured_images`,
    whose numpy passes release the GIL.
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers < 2 or _openblas() is None:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported here, as in process_map

    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        yield from pool.map(fn, items)


def _os_threads():
    """OS threads of this process: Linux lists them under /proc; elsewhere, the Python threads."""
    task = Path("/proc/self/task")
    return len(os.listdir(task)) if task.is_dir() else threading.active_count()


def _fork_is_quiet():
    """Whether this process can fork without a warning.

    ``os.fork`` must exist and, on CPython 3.12 or later, the process must
    have one OS thread; OpenBLAS's pool threads count.
    """
    return hasattr(os, "fork") and (not _FORK_WARNS or _os_threads() == 1)


def _adopt(fn, items):
    """Worker start-up: keep the map's ``fn`` and ``items``, inherited through the fork.

    SIGTERM gets its default action back: a handler inherited from the parent
    (the CLI's raises an exception, which the pool's worker loop catches)
    would keep the SIGTERM that the executor sends its workers when the pool
    breaks from ending them. An interrupted map sends SIGKILL instead, which
    also ends a worker that has not got this far.
    """
    global _job
    _job = fn, items
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _call(i):
    """In a worker: ``fn`` of item ``i`` of the map it serves."""
    fn, items = _job
    return fn(items[i])


def process_map(fn, items):
    """``[fn(item) for item in items]``, computed on one forked worker process per CPU.

    Up to one worker per CPU this process may run on is forked when the map
    starts, so ``fn`` and ``items`` are inherited and need not pickle: only an
    item's index goes to a worker, and only ``fn``'s result, which must
    pickle, comes back. The map keeps the module's map contract. The calls
    run with OpenBLAS at one thread, in the workers and inline alike, so a
    result's bits never depend on the worker count; the thread count read
    before the map is restored when it ends. A worker that dies raises
    :class:`concurrent.futures.process.BrokenProcessPool`. An interrupt
    (``KeyboardInterrupt``, as from SIGINT, or from SIGTERM under the CLI's
    entry point) kills the workers, so it is raised without waiting for the
    calls they run, and neither a worker nor the executor's thread prints a
    traceback; any other failure lets the running calls finish. The calls run here, one after another, with one CPU or
    one item, without ``os.fork``, or where a fork would warn (see
    :func:`_fork_is_quiet`).
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    with _one_blas_thread():
        if workers < 2 or not _fork_is_quiet():
            return list(map(fn, items))
        # imported here: the pair adds about a fifth to importing radclust, and only a fork needs it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_adopt, initargs=(fn, items)) as pool:
            try:
                futures = [pool.submit(_call, i) for i in range(len(items))]
                return [future.result() for future in futures]
            except KeyboardInterrupt:  # the block's exit would wait for the running calls
                # Nothing is cancelled first: once its workers are gone the executor fails
                # every pending future, and failing a cancelled one raises in its own thread.
                for worker in pool._processes.values():  # kill_workers() from Python 3.14
                    worker.kill()
                raise
            except BaseException:
                pool.shutdown(cancel_futures=True)  # as Executor.map does: drop the calls not started
                raise


@functools.cache
def _steps():
    """(i + 1) * gamma for i < _BLOCK: the counter offset of a block's draw i.

    Made on the first bulk draw, so a process that makes none never holds it.
    """
    steps = np.arange(1, _BLOCK + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    steps.flags.writeable = False  # one array, shared by every stream and thread
    return steps


def _draws(counter, steps, out, a, b):
    """Mix ``counter + steps`` (mod 2**64) into ``out``.

    ``a`` and ``b`` are uint64 scratch the size of ``out``. No pass writes
    over its own input: numpy takes a slower path for that on one element.
    """
    np.add(steps, np.uint64(counter), out=a)
    for shift, mult in _ROUNDS:
        np.right_shift(a, shift, out=b)
        np.bitwise_xor(a, b, out=out)
        np.multiply(out, mult, out=a)
    np.right_shift(a, _S31, out=b)
    np.bitwise_xor(a, b, out=out)


def _u64_block(out, counter, scratch):
    """Draws 1..n after ``counter``, as they come."""
    n = len(out)
    _draws(counter, _steps()[:n], out, scratch[:n], scratch[n : 2 * n])


def _gaussian_block(out, counter, scratch):
    """Box-Muller values from draw pairs (1, 2), (3, 4), ... after ``counter``.

    The first draw of a pair gives u1 in (0, 1], the second u2 in [0, 1);
    the value is sqrt(-2 log u1) cos(2 pi u2). Each float step rounds the
    same operands as that formula evaluated over the whole range at once,
    so the bits do not depend on where a block starts.
    """
    n = len(out)
    z, a, b = scratch[: 2 * n], scratch[2 * n : 4 * n], scratch[4 * n : 6 * n]
    _draws(counter, _steps()[: 2 * n], z, a, b)
    np.right_shift(z, _S11, out=a)
    f, g, h = z.view(np.float64)[:n], z.view(np.float64)[n:], b.view(np.float64)[:n]
    # u1 = (top 53 bits + 1) * 2**-53: at most 2**53 before scaling, so exact
    np.add(a[0::2], np.uint64(1), out=b[:n])
    np.multiply(b[:n], _U53, out=f)
    np.log(f, out=g)
    np.multiply(g, -2.0, out=f)
    np.sqrt(f, out=g)
    np.multiply(a[1::2], _U53, out=f)
    np.multiply(f, 2.0 * math.pi, out=h)
    np.cos(h, out=f)
    np.multiply(g, f, out=out)


class RngStream:
    """Deterministic 64-bit random stream (single-owner, mutable).

    The state is a plain counter advanced by a fixed odd increment, and each
    output is a finalizing mix of the counter, so the k-th draw depends only
    on (seed, k). Bulk generation (:meth:`u64s`, :meth:`gaussians`) is
    therefore bit-identical to repeated scalar draws of the same kind, down
    to the final state. It runs in blocks of 2**15 raw draws on the
    caller's thread. To fill independent outputs in parallel, give each its
    own stream from :meth:`ahead`, at the counter where a serial run would
    have reached it, and map over them with :func:`ordered_map`: the bits
    are those of the serial run.

    Uniform draws lie in [0, 1). Gaussian draws use the Box-Muller transform
    (cosine branch, two uniforms per value) and are always finite. A stream
    must never be shared across threads; derive independent child streams
    with :meth:`spawn`.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def next_u64(self):
        """Next raw 64-bit draw as a Python int."""
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def u64s(self, count):
        """Next ``count`` raw draws as a uint64 array (vectorized)."""
        return self._fill(count, np.uint64, 1, _u64_block)

    def next_uniform(self):
        """Uniform double in [0, 1) built from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) * _U53

    def gaussians(self, count):
        """Array of ``count`` standard normal draws.

        Consumes exactly two raw draws per value; the first uniform is mapped
        into (0, 1] so the logarithm stays finite.
        """
        return self._fill(count, np.float64, 2, _gaussian_block)

    def _fill(self, count, dtype, per, kernel):
        """``count`` values of ``per`` draws each, made by ``kernel`` block by block.

        ``kernel(out, counter, scratch)`` fills ``out`` from the draws after
        ``counter``, with three uint64 words of ``scratch`` per draw. Every
        block runs here, on the caller's thread, in one scratch buffer. The
        state moves only once the last block is filled, so a kernel's
        exception leaves it where it was and no partly filled array escapes.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count, dtype)
        block = _BLOCK // per
        scratch = np.empty(3 * per * min(block, count), np.uint64)
        for start in range(0, count, block):
            kernel(out[start:start + block], (self._state + per * start * _GAMMA) & _MASK64, scratch)
        self._state = (self._state + per * count * _GAMMA) & _MASK64
        return out

    def next_below(self, bound):
        """Uniform integer in [0, bound), rejection-sampled (no modulo bias).

        ``bound`` must lie in [1, 2**64]: one 64-bit draw cannot cover more.
        """
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle of a list or 1-D array; returns it.

        Swap ``i`` (from n-1 down to 1) takes ``next_below(i + 1)``. Kept for
        BIRCH's default threshold (once per sweep), whose thresholds depend on
        this permutation; to draw m of n indices, use :meth:`sample`.
        """
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, n, m):
        """List of ``m`` <= n distinct indices drawn uniformly from range(n).

        Partial forward Fisher-Yates: step ``i`` swaps slots ``i`` and
        ``i + next_below(n - i)`` of range(n) and keeps slot ``i``. Only
        displaced slots are stored: m draws and O(m) memory whatever n is.
        The m draws come from one :meth:`u64s` call, with the rejection test
        of :meth:`next_below` applied to each. If any draw would be rejected,
        or n is 2**64, the stream rewinds and takes the scalar draws, so the
        list and the final state never depend on which path ran. For m > n
        a ValueError names both before any draw; for n above 2**64 and
        m > 0, :meth:`next_below` raises ValueError.
        """
        if m > n:
            raise ValueError(f"cannot sample m={m} distinct indices from range(n={n})")
        start = self._state
        js = None
        if 0 < m and n <= _MASK64:
            bounds = np.uint64(n) - np.arange(m, dtype=np.uint64)
            u = self.u64s(m)
            # next_below rejects u >= 2**64 - (2**64 mod b); 2**64 - b has the same residue
            rem = (np.uint64(_MASK64) - bounds + np.uint64(1)) % bounds
            if not np.any(u > np.uint64(_MASK64) - rem):
                js = (np.arange(m, dtype=np.uint64) + u % bounds).tolist()
        if js is None:
            self._state = start
            js = [i + self.next_below(n - i) for i in range(m)]
        displaced = {}
        out = []
        for i, j in enumerate(js):
            out.append(displaced.get(j, j))
            displaced[j] = displaced.get(i, i)
        return out

    def ahead(self, draws):
        """A new stream at the state this one reaches after ``draws`` raw draws.

        This stream does not move. A Gaussian takes two raw draws, and a
        :meth:`u64s` value one.
        """
        return RngStream((self._state + draws * _GAMMA) & _MASK64)

    def spawn(self):
        """Independent child stream seeded from the next draw of this one."""
        return RngStream(self.next_u64())


def sym_eigen(m):
    """Full eigendecomposition of a symmetric matrix by LAPACK (``eigh``).

    Parameters
    ----------
    m : (n, n) array_like
        Matrix to decompose, passed to LAPACK as is: it is not copied or
        symmetrized here, and only its lower triangle is read.

    Returns
    -------
    w : (n,) ndarray
        Eigenvalues in ascending order.
    v : (n, n) ndarray
        Orthonormal eigenvectors, one per column, aligned with ``w``. Each
        column's largest-magnitude entry is positive (the lowest row index
        wins a tie), so a column's sign does not depend on the one LAPACK
        happened to return.

    Raises
    ------
    ShapeError
        If ``m`` is not a non-empty square matrix.
    NonConvergenceError
        If ``m`` has a non-finite entry (the message names its position) or
        LAPACK fails to converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeError(f"symmetric matrix must be square with dimension >= 1, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonConvergenceError(
            f"eigensolver input has non-finite entry {a[i, j]} at ({i}, {j})"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    cols = np.arange(v.shape[1])
    peaks = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[peaks, cols] < 0.0, -1.0, 1.0)
    return w, v


def pairwise_distances(x, y=None):
    """Euclidean distances between the rows of ``x``, or from them to ``y``'s.

    Each operand is a plain (n, d) array or anything with a ``rows``
    attribute, checked by :func:`radclust.features.as_rows`. Returns the
    square root of :func:`squared_distances`: the fresh (n, n) matrix of
    ``x`` alone, exactly symmetric, or with ``y`` (an (m, d) matrix) the
    (n, m) cross-distance matrix. Identical rows are exactly 0 apart. Raises
    :class:`~radclust.errors.ShapeError` when the column counts differ.
    """
    rows = as_rows(x)
    other = None if y is None else as_rows(y)
    if other is not None and other.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"cannot pair rows of width {rows.shape[1]} with rows of width {other.shape[1]}"
        )
    d = squared_distances(rows, other)
    np.sqrt(d, out=d)
    return d


def squared_distances(rows, other=None):
    """Squared Euclidean distances in the Gram form: the one such kernel.

    Takes float64 (n, d) and (m, d) rows already checked by
    :func:`~radclust.features.as_rows`, with ``einsum`` norms on both sides.
    The self form (``other`` omitted) adds the norms first, then subtracts
    2 G, so it is exactly symmetric. Both forms work in place in the one
    ``rows @ other.T`` buffer; the self form builds its norm sums a row block
    of at most ``_NORM_ELEMENTS`` entries at a time. Entries are clamped at
    0, and any within the rounding bound (d + 2) * eps * (|x_i|**2 +
    max_j |y_j|**2) of 0 is recomputed from coordinate differences:
    identical rows are exactly 0 apart.

    ``_CfTree._nearest`` keeps the difference form: one point against a few
    dozen centroids per call, where this kernel's overhead made an n=4000
    BIRCH cell 10-25% slower. ``kmeans._polish`` keeps it too, as a cached
    (n, k) table whose sums replay its row-by-row Hartigan sweep bit for bit.
    """
    symmetric = other is None
    if symmetric:
        other = rows
    norms = np.einsum("ij,ij->i", rows, rows)
    other_norms = norms if symmetric else np.einsum("ij,ij->i", other, other)
    d2 = rows @ other.T
    d2 *= -2.0
    if symmetric:  # adding the norms first keeps the result exactly symmetric
        step = max(1, _NORM_ELEMENTS // len(norms))
        for lo in range(0, len(norms), step):
            d2[lo:lo + step] += norms[lo:lo + step, None] + norms
    else:
        d2 += norms[:, None]
        d2 += other_norms
    np.maximum(d2, 0.0, out=d2)
    _recheck_near_zero(d2, rows, other, norms, other_norms, symmetric)
    return d2


def _recheck_near_zero(d2, rows, other, norms, other_norms, symmetric):
    """Recompute by the difference form each entry within its rounding bound of 0.

    The bound of ``d2[i, j]`` is (d + 2) * eps * (norms[i] + max(other_norms)).
    Rows go in blocks of at most ``_RECHECK_ELEMENTS`` entries, screened
    against the largest bound, and the hits in groups of ``_RECHECK_PAIRS``,
    so the extra memory stays bounded even when every pair is flagged. With
    ``symmetric`` each recomputed value is mirrored to ``d2[j, i]``.
    """
    scale = (rows.shape[1] + 2) * _EPS
    top_other = float(other_norms.max())
    top = scale * (float(norms.max()) + top_other)
    m = d2.shape[1]
    step = max(1, _RECHECK_ELEMENTS // m)
    for lo in range(0, d2.shape[0], step):
        hits = np.flatnonzero(d2[lo:lo + step] <= top)
        for start in range(0, hits.size, _RECHECK_PAIRS):
            i, j = np.divmod(hits[start:start + _RECHECK_PAIRS], m)
            i += lo
            near = d2[i, j] <= scale * (norms[i] + top_other)
            i, j = i[near], j[near]
            diff = rows[i]
            diff -= other[j]
            v = np.einsum("ij,ij->i", diff, diff)
            d2[i, j] = v
            if symmetric:
                d2[j, i] = v
