"""Deterministic random streams and dense symmetric linear algebra.

Everything downstream (k-means seeding, mini-batch sampling, mixture
initialization, spectral embeddings) rests on the two primitives here: a
counter-based 64-bit random stream that produces the same sequence on every
platform, and a dense symmetric eigensolver (LAPACK through numpy) whose
eigenvector signs are fixed by a deterministic rule. Matrices go in and come
out as plain float64 numpy arrays; there is no wrapper type. All floating
arithmetic is 64-bit.
"""

import math

import numpy as np

from .errors import NonConvergenceError, NotPositiveDefiniteError, ShapeError
from .features import as_rows

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53


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


class RngStream:
    """Deterministic 64-bit random stream (single-owner, mutable).

    The state is a plain counter advanced by a fixed odd increment, and each
    output is a finalizing mix of the counter, so the k-th draw depends only
    on (seed, k). Bulk generation (:meth:`uniforms`, :meth:`gaussians`,
    :meth:`shuffle`) is therefore bit-identical to repeated scalar draws of
    the same kind, down to the final state.

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
        state = np.uint64(self._state)
        z = state + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def next_uniform(self):
        """Uniform double in [0, 1) built from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) * _U53

    def uniforms(self, count):
        """Array of ``count`` uniforms in [0, 1)."""
        return np.asarray(self.u64s(count) >> np.uint64(11), dtype=np.float64) * _U53

    def next_gaussian(self):
        """Standard normal draw (mean 0, variance 1)."""
        return float(self.gaussians(1)[0])

    def gaussians(self, count):
        """Array of ``count`` standard normal draws.

        Consumes exactly two raw draws per value; the first uniform is mapped
        into (0, 1] so the logarithm stays finite.
        """
        u = self.u64s(2 * count)
        u1 = (np.asarray(u[0::2] >> np.uint64(11), dtype=np.float64) + 1.0) * _U53
        u2 = np.asarray(u[1::2] >> np.uint64(11), dtype=np.float64) * _U53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)

    def next_below(self, bound):
        """Uniform integer in [0, bound), rejection-sampled (no modulo bias)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle of a list or 1-D array; returns it.

        Swap ``i`` (from n-1 down to 1) takes ``next_below(i + 1)``. All n-1
        draws come from one :meth:`u64s` call, with the rejection test of
        :meth:`next_below` applied to each. If any draw would be rejected
        (odds about n / 2**64), the stream rewinds and replays the scalar
        draws, so the permutation and the final state never depend on which
        path ran.
        """
        n = len(items)
        if n < 2:
            return items
        start = self._state
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        u = self.u64s(n - 1)
        # next_below rejects u >= 2**64 - (2**64 mod b); 2**64 - b has the same residue
        rem = (np.uint64(_MASK64) - bounds + np.uint64(1)) % bounds
        if np.any(u > np.uint64(_MASK64) - rem):
            self._state = start
            js = [self.next_below(b) for b in range(n, 1, -1)]
        else:
            js = (u % bounds).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]
        return items

    def spawn(self):
        """Independent child stream seeded from the next draw of this one."""
        return RngStream(self.next_u64())


def _square(m):
    """``m`` as a float64 array, checked to be a non-empty square matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeError(f"symmetric matrix must be square with dimension >= 1, got shape {a.shape}")
    return a


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
    a = _square(m)
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


def cholesky(m):
    """Lower-triangular Cholesky factor L with L @ L.T == (m + m.T) / 2.

    ``m`` is an (n, n) array_like. Its symmetric part is what gets factored,
    because covariance products built from floating-point sums are not
    always bitwise symmetric; ``m`` itself is not modified.

    Raises
    ------
    ShapeError
        If ``m`` is not a non-empty square matrix.
    NotPositiveDefiniteError
        When a pivot is not strictly positive; carries the pivot index so
        callers can regularize and retry.
    """
    a = _square(m)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        row = L[j, :j]
        d = a[j, j] - row @ row
        if not (d > 0.0) or not math.isfinite(d):
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite at pivot {j}", pivot=j
            )
        ljj = math.sqrt(d)
        L[j, j] = ljj
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ row) / ljj
    return L


def pairwise_distances(x, y=None):
    """Euclidean distances between the rows of ``x``, or from them to ``y``'s.

    Each operand is a plain (n, d) array or anything with a ``rows``
    attribute, checked by :func:`radclust.features.as_rows`.

    With ``y`` omitted, returns a fresh (n, n) float64 array, exactly
    symmetric with an exactly zero diagonal, built in the Gram matrix plus
    one output buffer; the squared norms come from the Gram diagonal.

    With ``y`` given (an (m, d) matrix), returns the (n, m) cross-distance
    matrix, built in place in the one ``x @ y.T`` buffer: doubled and
    negated, plus both operands' squared row norms, clamped at 0, square
    rooted. No entry is special-cased, so a row paired with an identical
    row may come out a rounding error above 0. Raises
    :class:`~radclust.errors.ShapeError` when the column counts differ.
    """
    rows = as_rows(x)
    if y is not None:
        other = as_rows(y)
        if other.shape[1] != rows.shape[1]:
            raise ShapeError(
                f"cannot pair rows of width {rows.shape[1]} with rows of width {other.shape[1]}"
            )
        d = rows @ other.T
        d *= -2.0
        d += np.einsum("ij,ij->i", rows, rows)[:, None]
        d += np.einsum("ij,ij->i", other, other)
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        return d
    g = rows @ rows.T
    sq = np.diag(g).copy()
    d = np.add.outer(sq, sq)
    g *= 2.0
    d -= g
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d
