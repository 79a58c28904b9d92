"""Cluster-quality scoring: silhouette plus the SSE diagnostic.

The silhouette of point i is (b - a) / max(a, b), where a is the mean
distance to the rest of its own cluster and b the smallest mean distance to
another cluster. Members of singleton clusters score 0, as do points where
both a and b vanish, so degenerate clusterings still produce a number.

Silhouette goes over the rows in blocks and keeps only per-cluster distance
sums for the block at hand, so its memory is O(n * block) with block about
2**20 / n rows: no n x n distance matrix and no n x k array is ever built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import as_labels, as_rows
from .numerics import pairwise_distances

# Distance entries per silhouette row block: 8 MiB of float64.
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

    The rows are sorted by label once; each block of rows then gets its
    distances to all sorted rows (one O(block * n) buffer), and
    ``np.add.reduceat`` over the label runs turns them into the block's
    per-cluster sums, from which its a and b follow.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    labels = as_labels(labels, n, n, "rows")

    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    if starts.size < 2:
        raise ConfigError("silhouette undefined for one cluster")
    counts = np.diff(starts, append=n)
    # cluster[i]: the rank of point i's label among the labels in use
    cluster = np.empty(n, dtype=np.intp)
    cluster[order] = np.repeat(np.arange(starts.size), counts)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    sorted_rows = rows[order]

    a = np.empty(n)
    b = np.empty(n)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = np.arange(hi - lo)
        own = cluster[lo:hi]
        dist = pairwise_distances(rows[lo:hi], sorted_rows)
        dist[block, position[lo:hi]] = 0.0
        sums = np.add.reduceat(dist, starts, axis=1)
        del dist  # so the next block's buffer never coexists with this one
        a[lo:hi] = sums[block, own] / np.maximum(counts[own] - 1, 1)
        sums /= counts
        sums[block, own] = np.inf
        b[lo:hi] = sums.min(axis=1)

    denom = np.maximum(a, b)
    values = np.zeros(n)
    valid = (counts[cluster] > 1) & (denom > 0.0)
    values[valid] = (b[valid] - a[valid]) / denom[valid]

    per_cluster = np.full(int(sorted_labels[-1]) + 1, np.nan)
    per_cluster[sorted_labels[starts]] = np.add.reduceat(values[order], starts) / counts

    return SilhouetteReport(
        per_point=values,
        mean=float(values.mean()),
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
