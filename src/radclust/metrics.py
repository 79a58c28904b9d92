"""Cluster-quality scoring: silhouette plus the SSE diagnostic.

The silhouette of point i is (b - a) / max(a, b), where a is the mean
distance to the rest of its own cluster and b the smallest mean distance to
another cluster. Members of singleton clusters score 0, as do points where
both a and b vanish, so degenerate clusterings still produce a number.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import as_rows
from .numerics import pairwise_distances


@dataclass(eq=False)
class SilhouetteReport:
    """Per-point silhouettes in [-1, 1], their mean, and per-cluster means."""

    per_point: np.ndarray
    mean: float
    per_cluster_mean: np.ndarray


def silhouette(x, labels) -> SilhouetteReport:
    """Score a labeling of ``x`` by the mean silhouette over all points.

    Requires at least two distinct labels; distances are Euclidean.
    """
    rows = as_rows(x)
    labels = np.asarray(labels, dtype=np.intp)
    n = rows.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0:
        raise ShapeError(f"labels must be non-negative, got {int(labels.min())}")
    if np.unique(labels).size < 2:
        raise ConfigError("silhouette undefined for one cluster")

    k = int(labels.max()) + 1
    dist = pairwise_distances(rows)
    sums = np.zeros((n, k))
    counts = np.bincount(labels, minlength=k)
    for c in range(k):
        members = labels == c
        if members.any():
            sums[:, c] = dist[:, members].sum(axis=1)

    idx = np.arange(n)
    own_count = counts[labels]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(own_count > 1, sums[idx, labels] / np.maximum(own_count - 1, 1), 0.0)
        ratios = sums / np.where(counts > 0, counts, 1)[None, :]
    ratios[:, counts == 0] = np.inf
    ratios[idx, labels] = np.inf
    b = ratios.min(axis=1)

    denom = np.maximum(a, b)
    values = np.zeros(n)
    valid = (own_count > 1) & (denom > 0.0)
    values[valid] = (b[valid] - a[valid]) / denom[valid]

    per_cluster = np.full(k, np.nan)
    for c in range(k):
        members = labels == c
        if members.any():
            per_cluster[c] = float(values[members].mean())

    return SilhouetteReport(
        per_point=values,
        mean=float(values.mean()),
        per_cluster_mean=per_cluster,
    )


def sse(x, labels, centroids) -> float:
    """Sum of squared Euclidean distances from points to assigned centroids.

    Raises ShapeError on mismatched shapes, or on a label outside
    [0, number of centroids), naming the first such label and its row.
    """
    rows = as_rows(x)
    labels = np.asarray(labels, dtype=np.intp)
    centroids = np.asarray(centroids, dtype=np.float64)
    if labels.shape != (rows.shape[0],):
        raise ShapeError(f"expected {rows.shape[0]} labels, got shape {labels.shape}")
    if centroids.ndim != 2 or centroids.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"centroid matrix shape {centroids.shape} does not match d={rows.shape[1]}"
        )
    bad = np.flatnonzero((labels < 0) | (labels >= centroids.shape[0]))
    if bad.size:
        row = int(bad[0])
        raise ShapeError(
            f"label {int(labels[row])} at row {row} out of range for "
            f"{centroids.shape[0]} centroids"
        )
    diff = rows - centroids[labels]
    return float((diff * diff).sum())
