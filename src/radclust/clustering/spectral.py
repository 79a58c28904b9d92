"""Spectral clustering on the symmetric normalized Laplacian.

Similarity is a Gaussian RBF kernel with zero diagonal; the embedding is
the k eigenvectors of the smallest Laplacian eigenvalues (equivalently the
k largest of the normalized affinity), row-normalized, then clustered with
seeded k-means.
"""

from dataclasses import replace

import numpy as np

from ..errors import ConfigError
from ..features import as_rows
from ..numerics import mix_seed, pairwise_distances, sym_eigen
from .base import ClusterConfig, ClusterResult
from .kmeans import kmeans

_EMBED_SALT = 0x53504543
_DENSE_CAP = 2000


def median_offdiagonal(dist):
    """Median of the strict upper-triangle entries of a distance matrix."""
    n = dist.shape[0]
    if n < 2:
        return 0.0
    return float(np.median(dist[np.triu_indices(n, k=1)]))


def spectral(x, cfg: ClusterConfig) -> ClusterResult:
    """Cluster via the spectral embedding of the RBF similarity graph.

    ``cfg.rbf_sigma`` defaults to the median pairwise distance. Points whose
    degree underflows to zero are embedded at the origin and listed in
    ``diagnostics["isolated_points"]``. The eigensolve is dense (LAPACK,
    O(n^3) time and n x n memory), so n above 2000 raises ConfigError.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    if n > _DENSE_CAP:
        raise ConfigError(
            f"spectral clustering is dense-only and capped at n={_DENSE_CAP}, got {n}"
        )
    dist = pairwise_distances(rows)
    sigma = cfg.rbf_sigma if cfg.rbf_sigma is not None else median_offdiagonal(dist)
    if sigma <= 0.0:
        sigma = 1.0
    # The affinity, then the Laplacian, overwrite the distance buffer, so the
    # n x n working set is that one matrix plus the eigensolver's own.
    affinity = dist
    np.multiply(dist, dist, out=affinity)
    affinity /= -(2.0 * sigma * sigma)
    np.exp(affinity, out=affinity)
    np.fill_diagonal(affinity, 0.0)
    degrees = affinity.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0.0)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    laplacian = affinity
    laplacian *= inv_sqrt[:, None]
    laplacian *= inv_sqrt[None, :]
    np.negative(laplacian, out=laplacian)
    laplacian.flat[::n + 1] += 1.0
    eigenvalues, eigenvectors = sym_eigen(laplacian)
    embedding = eigenvectors[:, :cfg.k].copy()
    norms = np.sqrt((embedding * embedding).sum(axis=1))
    embedding /= np.where(norms > 0.0, norms, 1.0)[:, None]
    inner = kmeans(
        embedding,
        replace(cfg, seed=mix_seed(cfg.seed, _EMBED_SALT), init="kmeans++", restarts=5),
    )
    return ClusterResult(
        labels=inner.labels,
        centroids=None,
        objective_trace=inner.objective_trace,
        iterations=inner.iterations,
        converged=inner.converged,
        diagnostics={
            "sigma": sigma,
            "isolated_points": isolated.tolist(),
            "laplacian_min_eigenvalue": float(eigenvalues[0]),
        },
    )
