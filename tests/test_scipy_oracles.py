"""Cross-checks against scipy, which serves as a test-only oracle.

radclust itself needs only numpy; these tests skip where scipy is missing.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.cluster.hierarchy import linkage  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402
from scipy.stats import multivariate_normal  # noqa: E402

from radclust import ClusterConfig, agglomerative  # noqa: E402
from radclust.clustering.gmm import _log_density  # noqa: E402
from radclust.numerics import squared_distances  # noqa: E402


@pytest.mark.parametrize("seed", range(4))
def test_squared_distances_match_cdist(seed):
    rng = np.random.RandomState(seed)
    x = rng.randn(40, 16) * 3.0 + rng.randn(16)
    y = rng.randn(25, 16) * 2.0
    for got, want in ((squared_distances(x), cdist(x, x, "sqeuclidean")),
                      (squared_distances(x, y), cdist(x, y, "sqeuclidean"))):
        assert got.shape == want.shape
        # the Gram form loses about eps * |x|**2 absolute
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(x).max() ** 2)


@pytest.mark.parametrize("seed", range(4))
def test_ward_heights_match_scipy(seed):
    # scipy's Ward height is sqrt(2 na nb / (na + nb)) |ca - cb|, so its
    # square is twice the merge cost recorded here
    x = np.random.RandomState(seed).randn(30, 5)
    ours = agglomerative(x, ClusterConfig(k=2, seed=0), linkage="ward")
    z = linkage(x, method="ward")
    merges = ours.model.merges
    assert [[a, b, size] for a, b, _, size in merges] == z[:, [0, 1, 3]].astype(int).tolist()
    heights = np.array([m[2] for m in merges])
    np.testing.assert_allclose(2.0 * heights, z[:, 2] ** 2, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mode", ["tied", "diag", "full"])
@pytest.mark.parametrize("seed", range(3))
def test_gmm_log_density_matches_scipy(mode, seed):
    rng = np.random.RandomState(seed)
    n, d, k = 60, 5, 3
    rows = rng.randn(n, d) * 2.0 + 1.0
    means = rng.randn(k, d)
    factors = rng.randn(k, d, d)
    full = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(d)
    if mode == "tied":
        covariances, per_component = full[0], [full[0]] * k
    elif mode == "diag":
        covariances = np.diagonal(full, axis1=1, axis2=2).copy()
        per_component = [np.diag(v) for v in covariances]
    else:
        covariances, per_component = full, list(full)
    got = _log_density(rows, means, covariances, mode, 1e-6)
    for c in range(k):
        want = multivariate_normal(means[c], per_component[c]).logpdf(rows)
        np.testing.assert_allclose(got[:, c], want, rtol=1e-10)
