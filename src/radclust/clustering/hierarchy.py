"""Agglomerative clustering with average and Ward linkage.

Straightforward O(n^3) Lance-Williams on a full distance matrix, fine at
desk scale. Average linkage tracks plain Euclidean distances; Ward tracks
the variance-increase merge cost (na*nb/(na+nb)) * ||ca - cb||^2, whose
singleton seed value is half the squared distance. :func:`prepare`
merges all the way to one cluster, which does not depend on k; labels come
from cutting that dendrogram at k clusters, so a sweep builds it once and
cuts it for every k.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonConvergenceError
from ..features import as_rows
from ..numerics import pairwise_distances, squared_distances
from .base import ClusterConfig, ClusterResult
from .kmeans import _means

LINKAGES = ("average", "ward")


@dataclass(eq=False)
class Dendrogram:
    """Ordered merge list of (cluster_a, cluster_b, height, merged_size).

    Original points are clusters 0..n-1; merge t creates cluster n+t.
    Heights are non-decreasing for both supported linkages.
    """

    merges: list
    n_points: int


@dataclass(eq=False)
class PreparedDendrogram:
    """The k-independent part of an agglomerative fit: the rows and their dendrogram."""

    rows: np.ndarray
    dendrogram: Dendrogram


def prepare(x, cfg: ClusterConfig, linkage="average") -> PreparedDendrogram:
    """Merge closest clusters under the chosen linkage until one remains.

    Ties on the closest pair break toward the lexicographically smallest
    (i, j). ``cfg``'s k is only checked against n; no seed is read.
    """
    if linkage not in LINKAGES:
        raise ConfigError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)

    if linkage == "ward":
        dist = squared_distances(rows)
        dist *= 0.5
    else:
        dist = pairwise_distances(rows)
    np.fill_diagonal(dist, np.inf)

    sizes = np.ones(n, dtype=np.int64)
    cluster_ids = np.arange(n)
    merges = []

    for t in range(n - 1):
        flat = int(np.argmin(dist))
        i, j = divmod(flat, n)
        height = float(dist[i, j])
        if not np.isfinite(height):  # every pair left is inf or NaN apart
            raise NonConvergenceError(f"merge {t + 1}: closest pair is {height} apart (overflow)")
        a, b = cluster_ids[i], cluster_ids[j]
        merged_size = int(sizes[i] + sizes[j])
        merges.append((int(min(a, b)), int(max(a, b)), height, merged_size))

        # Lance-Williams on the whole of row and column i: the diagonal and
        # merged-away clusters hold inf, and the update keeps them inf
        if linkage == "average":
            updated = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        else:
            updated = (
                (sizes[i] + sizes) * dist[i] + (sizes[j] + sizes) * dist[j] - sizes * height
            ) / (sizes[i] + sizes[j] + sizes)
        dist[i, :] = updated
        dist[:, i] = updated
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        cluster_ids[i] = n + t

    return PreparedDendrogram(rows=rows, dendrogram=Dendrogram(merges=merges, n_points=n))


def _cut_labels(dendrogram, k):
    """Labels after the first n - k merges, numbered by each cluster's smallest member row."""
    n = dendrogram.n_points
    # root[c]: the cluster that c belongs to after the cut. Walking the kept
    # merges newest first settles every cluster before its two parts.
    root = np.arange(2 * n - 1)
    for t in range(n - k - 1, -1, -1):
        a, b = dendrogram.merges[t][:2]
        root[a] = root[b] = root[n + t]
    _, first, inverse = np.unique(root[:n], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def agglomerative(x, cfg: ClusterConfig, linkage="average", prepared=None) -> ClusterResult:
    """Build the dendrogram and cut it at ``cfg.k`` clusters.

    ``prepared`` is a :func:`prepare` result for the same rows and
    linkage; when given, ``x`` and ``linkage`` are not read. Clusters are
    numbered by their smallest member row; the full Dendrogram rides along
    as the model.
    """
    if prepared is None:
        prepared = prepare(x, cfg, linkage)
    rows, dendrogram = prepared.rows, prepared.dendrogram
    n = dendrogram.n_points
    cfg.validate_for(n)
    labels = _cut_labels(dendrogram, cfg.k)

    return ClusterResult(
        labels=labels,
        centroids=_means(rows, labels, cfg.k),
        objective_trace=[m[2] for m in dendrogram.merges],
        iterations=n - cfg.k,
        converged=True,
        model=dendrogram,
    )
