import numpy as np
import pytest

from radclust.clustering import ClusterConfig, agglomerative
from radclust.errors import ConfigError

from oracles import direct_average_linkage, greedy_ward_merges


def members_after(merges, n, steps):
    parent = list(range(n + steps))
    groups = {i: [i] for i in range(n)}
    for t in range(steps):
        a, b, _, _ = merges[t]
        groups[n + t] = groups.pop(a) + groups.pop(b)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


class TestAverageLinkage:
    def test_hand_computed_heights(self):
        rows = np.array([[0.0], [1.0], [5.0]])
        res = agglomerative(rows, ClusterConfig(k=1, seed=0), linkage="average")
        merges = res.model.merges
        assert merges[0][:3] == (0, 1, 1.0)
        assert merges[1][2] == pytest.approx(4.5)

    def test_matches_direct_pairwise_average(self):
        rng = np.random.RandomState(0)
        rows = rng.randn(18, 3)
        res = agglomerative(rows, ClusterConfig(k=1, seed=0), linkage="average")
        n = rows.shape[0]
        # replay the merge list and recompute every height directly
        groups = {i: [i] for i in range(n)}
        for t, (a, b, height, size) in enumerate(res.model.merges):
            direct = direct_average_linkage(rows, groups[a], groups[b])
            assert height == pytest.approx(direct, abs=1e-9)
            groups[n + t] = groups.pop(a) + groups.pop(b)
            assert size == len(groups[n + t])

    def test_heights_non_decreasing(self):
        rng = np.random.RandomState(1)
        rows = rng.randn(25, 4)
        res = agglomerative(rows, ClusterConfig(k=2, seed=0), linkage="average")
        heights = [m[2] for m in res.model.merges]
        assert all(h2 >= h1 - 1e-12 for h1, h2 in zip(heights, heights[1:]))


class TestWardLinkage:
    def test_hand_computed_costs(self):
        rows = np.array([[0.0], [1.0], [10.0]])
        res = agglomerative(rows, ClusterConfig(k=1, seed=0), linkage="ward")
        merges = res.model.merges
        assert merges[0][2] == pytest.approx(0.5)
        assert merges[1][2] == pytest.approx(2.0 / 3.0 * 9.5 ** 2)

    def test_matches_bruteforce_greedy_ward(self):
        rng = np.random.RandomState(2)
        rows = rng.randn(12, 2)
        res = agglomerative(rows, ClusterConfig(k=1, seed=0), linkage="ward")
        ours = [m[2] for m in res.model.merges]
        brute = greedy_ward_merges(rows)
        assert np.allclose(ours, brute, atol=1e-9)

    def test_heights_non_decreasing(self):
        rng = np.random.RandomState(3)
        rows = rng.randn(25, 3)
        res = agglomerative(rows, ClusterConfig(k=3, seed=0), linkage="ward")
        heights = [m[2] for m in res.model.merges]
        assert all(h2 >= h1 - 1e-12 for h1, h2 in zip(heights, heights[1:]))


class TestDendrogramAndLabels:
    def test_exactly_n_minus_1_merges(self):
        rng = np.random.RandomState(4)
        rows = rng.randn(17, 2)
        res = agglomerative(rows, ClusterConfig(k=4, seed=0), linkage="average")
        assert len(res.model.merges) == 16

    def test_k_equals_n_all_singletons(self):
        rows = np.array([[0.0], [3.0], [9.0]])
        res = agglomerative(rows, ClusterConfig(k=3, seed=0), linkage="average")
        assert res.labels.tolist() == [0, 1, 2]
        assert res.iterations == 0

    def test_labels_match_dendrogram_cut(self):
        rng = np.random.RandomState(5)
        for n in (14, 60):
            rows = rng.randn(n, 3)
            for linkage in ("average", "ward"):
                for k in (2, 3, 4, 5, 6):
                    res = agglomerative(rows, ClusterConfig(k=k, seed=0), linkage=linkage)
                    groups = members_after(res.model.merges, n, n - k)
                    labels = np.empty(n, dtype=np.intp)
                    for label, g in enumerate(groups):
                        labels[g] = label
                    assert np.array_equal(res.labels, labels), (n, linkage, k)

    def test_separated_blobs(self):
        rng = np.random.RandomState(6)
        rows = np.vstack([rng.randn(20, 2) * 0.3, rng.randn(20, 2) * 0.3 + 15.0])
        for linkage in ("average", "ward"):
            res = agglomerative(rows, ClusterConfig(k=2, seed=0), linkage=linkage)
            assert len(set(res.labels[:20].tolist())) == 1
            assert len(set(res.labels[20:].tolist())) == 1

    def test_unknown_linkage(self):
        with pytest.raises(ConfigError):
            agglomerative(np.zeros((3, 1)), ClusterConfig(k=1, seed=0), linkage="single")

    def test_translation_invariance(self):
        rng = np.random.RandomState(7)
        rows = rng.randn(20, 2)
        a = agglomerative(rows, ClusterConfig(k=4, seed=0), linkage="average")
        b = agglomerative(rows - 77.0, ClusterConfig(k=4, seed=0), linkage="average")
        assert np.array_equal(a.labels, b.labels)
