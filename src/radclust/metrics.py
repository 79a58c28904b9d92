"""Cluster-quality scoring: silhouette plus the SSE diagnostic.

The silhouette of point i is (b - a) / max(a, b), where a is the mean
distance to the rest of its own cluster and b the smallest mean distance to
another cluster. Members of singleton clusters score 0, as do points where
both a and b vanish, so degenerate clusterings still produce a number.

Scoring goes over the rows in blocks of about 2**20 / n rows. Each block's
distances to all n rows are built once and shared by every labeling scored
in the same call, so a sweep builds its distances once, not once per cell.
Each labeling turns a block into per-cluster distance sums with one GEMM
against its 0/1 cluster-membership matrix. Memory stays O(n * block): no
n x n distance matrix is built, and a labeling with more clusters than a
block has rows takes them a block's width at a time, each chunk's GEMM
over the distance columns of its own members only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import as_labels, as_rows
from .numerics import pairwise_distances

# Distance entries per silhouette row block (8 MiB of float64), and the most
# one-hot entries built at once.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(eq=False)
class SilhouetteReport:
    """Per-point silhouettes in [-1, 1], their mean, and per-cluster means."""

    per_point: np.ndarray
    mean: float
    per_cluster_mean: np.ndarray


def silhouette(x, labels) -> SilhouetteReport:
    """Score a labeling of ``x`` by the mean silhouette over all points.

    Requires at least two distinct labels; distances are Euclidean. Labels
    are cluster ids in [0, n); ids need not be contiguous, and
    ``per_cluster_mean`` is NaN at an unused id below the largest. A bad label
    raises :class:`ShapeError` (see :func:`~radclust.features.as_labels`)
    before any work that scales with the ids.

    This is :func:`silhouette_batch` with one labeling, so a labeling scores
    the same bits alone as inside a batch.
    """
    (result,) = silhouette_batch(x, [labels])
    if isinstance(result, Exception):
        raise result
    return result


def silhouette_batch(x, labelings) -> list:
    """Score several labelings of the same rows in one pass over distance blocks.

    Returns one entry per labeling, in order: its :class:`SilhouetteReport`,
    or the :class:`ShapeError` or :class:`ConfigError` that
    :func:`silhouette` would raise for it. A labeling that cannot be scored
    costs the others nothing. Bad rows in ``x`` raise.

    Each block ``pairwise_distances(rows[lo:hi], rows)`` is built once, in
    the original row order, with its self entries zeroed by index. Every
    labeling then takes the block's per-cluster distance sums as one GEMM,
    ``dist @ onehot``, from which its a and b for those rows follow.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    results = []
    for labels in labelings:
        try:
            results.append(_Scorer(labels, n))
        except (ShapeError, ConfigError) as exc:
            results.append(exc)
    scorers = [r for r in results if isinstance(r, _Scorer)]
    if not scorers:
        return results

    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        dist = pairwise_distances(rows[lo:hi], rows)
        dist[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        for scorer in scorers:
            scorer.add_block(dist, lo, hi)
        del dist  # so the next block's buffer never coexists with this one
    return [r.report() if isinstance(r, _Scorer) else r for r in results]


class _Scorer:
    """One labeling's cluster ranks and counts, and its silhouettes as blocks arrive."""

    def __init__(self, labels, n):
        labels = as_labels(labels, n, n, "rows")
        # cluster[i]: the rank of point i's label among the labels in use
        self.used, self.cluster, self.counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        k = self.counts.size
        if k < 2:
            raise ConfigError("silhouette undefined for one cluster")
        self.values = np.zeros(n)
        # Clusters in chunks of at most _BLOCK_ELEMENTS // n, each with the
        # rows (in row order) that belong to it: a chunk's GEMM runs over its
        # members' distance columns only, so with many clusters the work per
        # block stays n * width, not n * k. One chunk takes every column.
        width = max(1, _BLOCK_ELEMENTS // n)
        if k <= width:
            self.chunks = [(0, k, slice(None))]
        else:
            self.chunks = [
                (c0, min(c0 + width, k),
                 np.flatnonzero((self.cluster >= c0) & (self.cluster < c0 + width)))
                for c0 in range(0, k, width)
            ]

    def add_block(self, dist, lo, hi):
        """Score rows lo..hi from their distances to all n rows."""
        block = np.arange(hi - lo)
        own = self.cluster[lo:hi]
        a = np.empty(hi - lo)
        b = np.full(hi - lo, np.inf)
        for c0, c1, members in self.chunks:
            onehot = (self.cluster[members, None] == np.arange(c0, c1)).astype(np.float64)
            sums = dist[:, members] @ onehot
            del onehot  # so the next chunk's never coexists with this one
            mine = (own >= c0) & (own < c1)
            at = (block[mine], own[mine] - c0)
            a[mine] = sums[at] / np.maximum(self.counts[own[mine]] - 1, 1)
            sums /= self.counts[c0:c1]
            sums[at] = np.inf
            np.minimum(b, sums.min(axis=1), out=b)

        denom = np.maximum(a, b)
        valid = (self.counts[own] > 1) & (denom > 0.0)
        self.values[lo:hi][valid] = (b[valid] - a[valid]) / denom[valid]

    def report(self):
        per_cluster = np.full(int(self.used[-1]) + 1, np.nan)
        per_cluster[self.used] = np.bincount(self.cluster, weights=self.values) / self.counts
        return SilhouetteReport(
            per_point=self.values,
            mean=float(self.values.mean()),
            per_cluster_mean=per_cluster,
        )


def sse(x, labels, centroids) -> float:
    """Sum of squared Euclidean distances from points to assigned centroids.

    Raises ShapeError on mismatched shapes, or on a bad label (one that is
    not a whole number in [0, number of centroids)), naming its row.
    """
    rows = as_rows(x)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"centroid matrix shape {centroids.shape} does not match d={rows.shape[1]}"
        )
    labels = as_labels(labels, rows.shape[0], centroids.shape[0], "centroids")
    diff = rows - centroids[labels]
    return float((diff * diff).sum())
