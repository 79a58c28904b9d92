"""Nine clustering variants over a shared config/result contract.

Functions: :func:`kmeans`, :func:`minibatch_kmeans`, :func:`spectral`,
:func:`agglomerative` (average or Ward linkage), :func:`birch`, and
:func:`gmm` (tied, diag, or full covariance). All take an (n, d) feature
matrix and a :class:`ClusterConfig` and return a :class:`ClusterResult`;
all are deterministic under a fixed seed. Spectral, agglomerative and BIRCH
also take ``prepared=``, the result of their module's ``prepare(x, cfg)``:
the work that does not depend on k, done once and cut for each k.
"""

from .base import ClusterConfig, ClusterResult
from .birch import CfEntry, CfTreeStats, birch
from .gmm import GmmModel, gmm
from .hierarchy import Dendrogram, agglomerative
from .kmeans import kmeans, minibatch_kmeans
from .spectral import spectral

__all__ = [
    "CfEntry",
    "CfTreeStats",
    "ClusterConfig",
    "ClusterResult",
    "Dendrogram",
    "GmmModel",
    "agglomerative",
    "birch",
    "gmm",
    "kmeans",
    "minibatch_kmeans",
    "spectral",
]
