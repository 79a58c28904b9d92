"""Clustering toolkit for grayscale radiograph-style images.

Pipeline stages, each usable on its own:

- :mod:`radclust.imaging` loads binary PGM images and crops, resizes, and
  normalizes them into unit-range tensors.
- :mod:`radclust.cnn` runs a forward-only convolutional network that maps a
  128x128 grayscale tensor to a 16-dimensional feature vector.
- :mod:`radclust.clustering` groups feature rows with nine algorithm
  variants (k-means, mini-batch k-means, spectral, agglomerative average and
  Ward, BIRCH, and Gaussian mixtures with tied/diag/full covariances).
- :mod:`radclust.metrics` scores clusterings with the silhouette metric.
- :mod:`radclust.pipeline` wires manifests, feature CSVs, synthetic data,
  and the algorithm-by-k sweep that renders CSV reports and SVG charts.

Every stochastic step runs off a seeded, platform-independent random stream
(:class:`radclust.numerics.RngStream`), so identical seeds give identical
results.
"""

from .clustering import ClusterConfig, ClusterResult
from .clustering.birch import birch
from .clustering.gmm import gmm
from .clustering.hierarchy import agglomerative
from .clustering.kmeans import kmeans, minibatch_kmeans
from .clustering.spectral import spectral
from .features import FeatureMatrix
from .metrics import SilhouetteReport, silhouette, sse
from .numerics import RngStream, mix_seed, pairwise_distances, sym_eigen

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "FeatureMatrix",
    "RngStream",
    "SilhouetteReport",
    "agglomerative",
    "birch",
    "gmm",
    "kmeans",
    "minibatch_kmeans",
    "mix_seed",
    "pairwise_distances",
    "silhouette",
    "spectral",
    "sse",
    "sym_eigen",
]

__version__ = "0.1.0"
