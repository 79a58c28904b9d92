"""Agglomerative clustering with average and Ward linkage.

Straightforward O(n^3) Lance-Williams on a full distance matrix, fine at
desk scale. Average linkage tracks plain Euclidean distances; Ward tracks
the variance-increase merge cost (na*nb/(na+nb)) * ||ca - cb||^2, whose
singleton seed value is half the squared distance. The full dendrogram is
always built; labels come from cutting it at k clusters.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..features import as_rows
from ..numerics import pairwise_distances
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


def agglomerative(x, cfg: ClusterConfig, linkage="average") -> ClusterResult:
    """Merge closest clusters under the chosen linkage until one remains.

    Ties on the closest pair break toward the lexicographically smallest
    (i, j). The result's labels partition the data into ``cfg.k`` clusters,
    numbered by their smallest member row; the full Dendrogram rides along
    as the model.
    """
    if linkage not in LINKAGES:
        raise ConfigError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)

    dist = pairwise_distances(rows)
    if linkage == "ward":
        dist *= dist
        dist *= 0.5
    np.fill_diagonal(dist, np.inf)

    sizes = np.ones(n, dtype=np.int64)
    cluster_ids = np.arange(n)
    # slot[p]: the row that holds point p's cluster, always its smallest member
    slot = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges = []
    labels = np.arange(n)  # the cut for k == n; a smaller k replaces it below

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
        slot[slot == j] = i
        cluster_ids[i] = n + t

        if n - (t + 1) == cfg.k:
            labels = np.searchsorted(np.flatnonzero(active), slot)

    centroids = np.zeros((cfg.k, rows.shape[1]))
    for c in range(cfg.k):
        centroids[c] = rows[labels == c].mean(axis=0)

    return ClusterResult(
        labels=labels,
        centroids=centroids,
        objective_trace=[m[2] for m in merges],
        iterations=n - cfg.k,
        converged=True,
        model=Dendrogram(merges=merges, n_points=n),
    )
