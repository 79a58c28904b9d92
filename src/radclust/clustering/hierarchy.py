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

from ..errors import ConfigError
from ..features import as_rows
from ..numerics import pairwise_distances, squared_distances
from .base import ClusterConfig, ClusterResult

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
    (i, j). ``cfg`` is only validated; no k or seed is read.
    """
    if linkage not in LINKAGES:
        raise ConfigError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)

    dist = 0.5 * squared_distances(rows) if linkage == "ward" else pairwise_distances(rows)
    np.fill_diagonal(dist, np.inf)

    sizes = np.ones(n, dtype=np.int64)
    cluster_ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges = []

    for t in range(n - 1):
        flat = int(np.argmin(dist))
        i, j = divmod(flat, n)
        if i > j:
            i, j = j, i
        height = float(dist[i, j])
        a, b = cluster_ids[i], cluster_ids[j]
        merged_size = int(sizes[i] + sizes[j])
        merges.append((int(min(a, b)), int(max(a, b)), height, merged_size))

        others = active.copy()
        others[i] = others[j] = False
        idx = np.flatnonzero(others)
        if idx.size:
            if linkage == "average":
                updated = (sizes[i] * dist[i, idx] + sizes[j] * dist[j, idx]) / (
                    sizes[i] + sizes[j]
                )
            else:
                total = sizes[i] + sizes[j] + sizes[idx]
                updated = (
                    (sizes[i] + sizes[idx]) * dist[i, idx]
                    + (sizes[j] + sizes[idx]) * dist[j, idx]
                    - sizes[idx] * height
                ) / total
            dist[i, idx] = updated
            dist[idx, i] = updated

        dist[j, :] = np.inf
        dist[:, j] = np.inf
        dist[i, i] = np.inf
        active[j] = False
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

    centroids = np.zeros((cfg.k, rows.shape[1]))
    for c in range(cfg.k):
        centroids[c] = rows[labels == c].mean(axis=0)

    return ClusterResult(
        labels=labels,
        centroids=centroids,
        objective_trace=[m[2] for m in dendrogram.merges],
        iterations=n - cfg.k,
        converged=True,
        model=dendrogram,
    )
