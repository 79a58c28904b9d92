import importlib

import numpy as np
import pytest

from radclust.clustering import CfEntry, ClusterConfig, birch
from radclust.clustering.birch import _build_tree, _leaf_entries, default_threshold
from radclust.pipeline import synth_blobs

# The package re-exports the function under the module's name.
BIRCH_MODULE = importlib.import_module("radclust.clustering.birch")


def recomputed_summary(node):
    """(count, linear sum) of a subtree, re-summed from its CF entries in item order."""
    if node.leaf:
        parts = [(e.count, e.linear_sum) for e in node.items]
    else:
        parts = [recomputed_summary(child) for child in node.items]
    linear_sum = np.zeros_like(parts[0][1])
    for _, part in parts:
        linear_sum = linear_sum + part
    return sum(count for count, _ in parts), linear_sum


def assert_cached_summaries(node):
    count, linear_sum = recomputed_summary(node)
    assert node.count == count
    assert np.array_equal(node.linear_sum, linear_sum)
    assert np.array_equal(node.centroid, linear_sum / count)
    for item in node.items:
        if node.leaf:
            assert np.array_equal(item.centroid, item.linear_sum / item.count)
        else:
            assert_cached_summaries(item)


def same_partition(a, b):
    mapping = {}
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestCfEntry:
    def test_absorbed_pair_summary(self):
        entry = CfEntry.from_point(np.array([1.0]), 0)
        entry.absorb(np.array([3.0]), 1)
        assert entry.count == 2
        assert entry.linear_sum.tolist() == [4.0]
        assert entry.square_sum == 10.0
        assert entry.centroid.tolist() == [2.0]
        assert entry.radius == pytest.approx(1.0)

    def test_merge_additivity(self):
        a = CfEntry(count=1, linear_sum=np.array([1.0]), square_sum=1.0, point_ids=[0])
        b = CfEntry(count=1, linear_sum=np.array([3.0]), square_sum=9.0, point_ids=[1])
        merged = a.merged_with(b)
        assert merged.count == 2
        assert merged.linear_sum.tolist() == [4.0]
        assert merged.square_sum == 10.0
        assert merged.point_ids == [0, 1]

    def test_radius_argument_clamped_at_zero(self):
        # many identical points: cancellation can leave a tiny negative argument
        entry = CfEntry.from_point(np.array([0.1, 0.3]), 0)
        for i in range(1, 50):
            entry.absorb(np.array([0.1, 0.3]), i)
        assert entry.radius == pytest.approx(0.0, abs=1e-7)


class TestBirch:
    def test_absorbing_threshold_single_entry(self):
        rows = np.array([[0.0], [0.5], [1.0], [0.25]])
        res = birch(rows, ClusterConfig(k=1, seed=0, birch_threshold=100.0))
        assert res.model.leaf_entry_count == 1
        assert np.all(res.labels == 0)

    def test_cf_sums_cover_dataset(self, monkeypatch):
        monkeypatch.setattr(BIRCH_MODULE, "_BRANCHING", 8)
        rng = np.random.RandomState(0)
        rows = rng.randn(80, 3)
        cfg = ClusterConfig(k=3, seed=1)
        res = birch(rows, cfg)
        # rebuild the tree through the builder birch() uses to inspect entries
        threshold = res.model.threshold
        entries = _leaf_entries(_build_tree(rows, threshold, 8))
        assert sum(e.count for e in entries) == 80
        total_ls = np.sum([e.linear_sum for e in entries], axis=0)
        assert np.abs(total_ls - rows.sum(axis=0)).max() <= 1e-9
        ids = sorted(i for e in entries for i in e.point_ids)
        assert ids == list(range(80))
        for e in entries:
            assert e.radius <= threshold + 1e-9

    @pytest.mark.parametrize("branching", [4, 8])
    @pytest.mark.parametrize("d", [1, 3])
    def test_cached_summaries_match_recomputation_after_every_insert(self, branching, d):
        # d=1 included: numpy sums a single column pairwise, so a reordered
        # node sum shows up there as changed bits
        rng = np.random.RandomState(12)
        rows = rng.randn(90, d) * 4.0
        nodes = 0
        for m in range(1, len(rows) + 1):
            # inserts run in row order, so the first m rows give the tree after m inserts
            root = _build_tree(rows[:m], 0.1, branching)
            assert_cached_summaries(root)
            nodes = max(nodes, BIRCH_MODULE._count_nodes(root))
        assert nodes > 5  # inner nodes and splits were exercised

    def test_pinned_cell_with_subsampled_threshold(self):
        # n=600 > 256, so the default threshold comes from a shuffled subsample.
        # Recorded before the shuffle drew in bulk and nodes cached their
        # summaries; both are bookkeeping and must not move a bit.
        fm, _ = synth_blobs(200, 3, 4, 5.0, 1.0, 21)
        res = birch(fm.rows, ClusterConfig(k=3, seed=5))
        assert res.labels.tolist() == [2] * 200 + [1] * 200 + [0] * 200
        assert [float(v).hex() for v in res.centroids.ravel()] == [
            "-0x1.2dafe6667f0c1p-3", "0x1.5d3b62da5c63dp-4", "0x1.37d443f695172p+2",
            "0x1.a93fd768c9e87p-5", "0x1.7aca5313a1c8cp-4", "0x1.491b7f92c1e0ep+2",
            "-0x1.18bfb1cbf7a84p-4", "0x1.17879ccbca456p-4", "0x1.39d757317616bp+2",
            "0x1.0c0ab7901d1dep-8", "0x1.356eae6f42029p-4", "0x1.4ce1ce88f2e7ep-3",
        ]
        assert res.iterations == 3
        assert res.diagnostics["threshold"].hex() == "0x1.9372548d301dep-1"
        assert res.diagnostics["leaf_entries"] == 168

    def test_branching_forces_tree_growth(self, monkeypatch):
        monkeypatch.setattr(BIRCH_MODULE, "_BRANCHING", 4)
        rng = np.random.RandomState(2)
        rows = rng.randn(60, 2) * 10.0
        res = birch(rows, ClusterConfig(k=3, seed=3, birch_threshold=0.1))
        assert res.model.leaf_entry_count >= 50
        assert res.model.node_count > 10

    def test_separated_blobs_recovered(self):
        rng = np.random.RandomState(4)
        rows = np.vstack([rng.randn(50, 2) * 0.2, rng.randn(50, 2) * 0.2 + 12.0])
        truth = np.array([0] * 50 + [1] * 50)
        res = birch(rows, ClusterConfig(k=2, seed=5))
        assert same_partition(res.labels, truth)

    def test_deterministic_under_seed(self):
        rng = np.random.RandomState(6)
        rows = rng.randn(70, 3)
        cfg = ClusterConfig(k=4, seed=7)
        assert np.array_equal(birch(rows, cfg).labels, birch(rows, cfg).labels)

    def test_default_threshold_positive_and_translation_invariant(self):
        rng = np.random.RandomState(8)
        rows = rng.randn(40, 2)
        t1 = default_threshold(rows, 9)
        t2 = default_threshold(rows + 55.0, 9)
        assert t1 > 0.0
        assert t1 == pytest.approx(t2, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.RandomState(10)
        rows = np.vstack([rng.randn(25, 2) * 0.3, rng.randn(25, 2) * 0.3 + 10.0])
        a = birch(rows, ClusterConfig(k=2, seed=11))
        b = birch(rows + 200.0, ClusterConfig(k=2, seed=11))
        assert same_partition(a.labels, b.labels)
