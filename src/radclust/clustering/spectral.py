"""Spectral clustering on the symmetric normalized Laplacian.

Similarity is a Gaussian RBF kernel on the squared distances, with zero
diagonal; the embedding is the k eigenvectors of the smallest Laplacian
eigenvalues (equivalently the k largest of the normalized affinity),
row-normalized, then clustered with seeded k-means.

The affinity, ``sigma`` and the eigenpairs do not depend on k, so
:func:`prepare` computes them once and keeps the leading eigenvectors; a
sweep cuts k columns from them for every k. :func:`spectral` is
:func:`prepare` followed by that cut.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..features import as_rows
from ..numerics import squared_distances, sym_eigen
from .base import ClusterConfig, ClusterResult
from .kmeans import refine

_EMBED_SALT = 0x53504543
_DENSE_CAP = 2000


def median_offdiagonal(sq):
    """Median of the square roots of a squared-distance matrix's strict upper triangle.

    A boolean mask copies the triangle out in row-major order, the order of
    ``np.triu_indices(n, k=1)``; the roots and the median's partition then
    work in place on that one copy.
    """
    n = sq.shape[0]
    if n < 2:
        return 0.0
    upper = sq[~np.tri(n, dtype=bool)]
    return float(np.median(np.sqrt(upper, out=upper), overwrite_input=True))


@dataclass(eq=False)
class PreparedEmbedding:
    """The k-independent part of a spectral fit.

    ``basis`` holds the eigenvectors of the smallest Laplacian eigenvalues
    as its columns, as many as the largest k to be cut; no n x n matrix is
    kept.
    """

    basis: np.ndarray
    sigma: float
    isolated_points: list
    laplacian_min_eigenvalue: float


def prepare(x, cfg: ClusterConfig) -> PreparedEmbedding:
    """Build the Laplacian and keep the leading ``cfg.k`` eigenvectors.

    ``cfg.rbf_sigma`` defaults to the median pairwise distance. The
    eigensolve is dense (LAPACK, O(n^3) time and n x n memory), so n above
    2000 raises ConfigError.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    if n > _DENSE_CAP:
        raise ConfigError(
            f"spectral clustering is dense-only and capped at n={_DENSE_CAP}, got {n}"
        )
    sq = squared_distances(rows)
    sigma = cfg.rbf_sigma if cfg.rbf_sigma is not None else median_offdiagonal(sq)
    if sigma <= 0.0:
        sigma = 1.0
    # The affinity, then the Laplacian, overwrite the squared-distance buffer,
    # so the n x n working set is that one matrix plus the eigensolver's own.
    affinity = sq
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
    return PreparedEmbedding(
        basis=eigenvectors[:, :cfg.k].copy(),
        sigma=sigma,
        isolated_points=isolated.tolist(),
        laplacian_min_eigenvalue=float(eigenvalues[0]),
    )


def spectral(x, cfg: ClusterConfig, prepared=None) -> ClusterResult:
    """Cluster via the spectral embedding of the RBF similarity graph.

    ``prepared`` is a :func:`prepare` result for the same rows with at least
    ``cfg.k`` columns; when given, ``x`` is not read. Points whose degree
    underflows to zero are embedded at the origin and listed in
    ``diagnostics["isolated_points"]``. The embedding is clustered by
    :func:`~radclust.clustering.kmeans.refine`; ``diagnostics["polish"]`` is
    its polish record (see :func:`~radclust.clustering.kmeans.kmeans`).
    See :func:`prepare` for ``sigma`` and the size limit.
    """
    if prepared is None:
        prepared = prepare(x, cfg)
    n, columns = prepared.basis.shape
    cfg.validate_for(n)
    if cfg.k > columns:
        raise ConfigError(f"k={cfg.k} exceeds the {columns} prepared eigenvectors")
    embedding = prepared.basis[:, :cfg.k].copy()
    norms = np.sqrt((embedding * embedding).sum(axis=1))
    embedding /= np.where(norms > 0.0, norms, 1.0)[:, None]
    inner = refine(embedding, cfg, cfg.k, _EMBED_SALT)
    return replace(inner, centroids=None, diagnostics={
        "sigma": prepared.sigma,
        "isolated_points": list(prepared.isolated_points),
        "laplacian_min_eigenvalue": prepared.laplacian_min_eigenvalue,
        "polish": inner.diagnostics["polish"],
    })
