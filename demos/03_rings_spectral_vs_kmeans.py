"""Where spectral clustering earns its keep: concentric rings.

K-means partitions by distance to centroids, so it cannot pull apart two
nested rings; the spectral embedding of the similarity graph can. This
script builds the rings, runs both algorithms, and prints their label
purity against the generating rings.
"""

import numpy as np

from radclust import ClusterConfig, RngStream, kmeans, spectral


def make_rings(gap=2.0, seed=0):
    stream = RngStream(seed)
    points, labels = [], []
    for label, (radius, count) in enumerate([(1.0, 20), (1.0 + gap, 40)]):
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        jitter = stream.gaussians(2 * count).reshape(count, 2) * 0.02
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius + jitter
        points.append(ring)
        labels.extend([label] * count)
    return np.vstack(points), np.array(labels)


def purity(labels, truth):
    total = 0
    for cluster in set(labels.tolist()):
        members = truth[labels == cluster]
        total += np.bincount(members).max()
    return total / len(truth)


gap = 2.0
rows, truth = make_rings(gap=gap)

# The kernel width matters: a quarter of the ring gap keeps cross-ring
# similarity negligible while the rings stay connected along their arcs.
spec = spectral(rows, ClusterConfig(k=2, seed=5, rbf_sigma=0.25 * gap))
km = kmeans(rows, ClusterConfig(k=2, seed=5), restarts=10)

print(f"spectral purity: {100 * purity(spec.labels, truth):.1f}%")
print(f"k-means purity:  {100 * purity(km.labels, truth):.1f}%")
print(f"smallest Laplacian eigenvalue: "
      f"{spec.diagnostics['laplacian_min_eigenvalue']:.2e} (PSD within roundoff)")
