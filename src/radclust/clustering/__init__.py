"""Nine clustering variants over a shared config/result contract.

The package exports only the two shared records, :class:`ClusterConfig` and
:class:`ClusterResult`; each family is its own module, so
``radclust.clustering.<name>`` is the module and its constants and
``prepare`` are addressable by dotted name:

- :mod:`.kmeans`: ``kmeans`` (Lloyd; ``restarts=`` above 1 runs that many
  seeded kmeans++ starts, each with Hartigan polish), ``minibatch_kmeans``
  (``init=`` picks first-k or kmeans++ starts), and ``refine``, the seeded
  5-restart k-means global phase that spectral and BIRCH run on their
  derived points;
- :mod:`.spectral`: ``spectral``, on the normalized Laplacian's embedding;
- :mod:`.hierarchy`: ``agglomerative``, average or Ward linkage;
- :mod:`.birch`: ``birch``, a CF tree followed by the global phase;
- :mod:`.gmm`: ``gmm``, with tied, diag or full covariances.

Every fit function takes an (n, d) feature matrix and a ClusterConfig and
returns a ClusterResult, deterministically under a fixed seed; the package
:mod:`radclust` re-exports them. A ClusterConfig is frozen and checks its
fields when it is built. The options of one family (``restarts``,
``init``, ``linkage``, ``mode``) are keyword arguments of its fit
function. Spectral, agglomerative and BIRCH also take ``prepared=``, the
result of their module's ``prepare(x, cfg)``: the work that does not
depend on k, done once and cut for each k.
"""

from .base import ClusterConfig, ClusterResult

__all__ = ["ClusterConfig", "ClusterResult"]
