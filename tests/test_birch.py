import hashlib

import numpy as np
import pytest

import radclust.clustering.birch as BIRCH_MODULE
from radclust import ClusterConfig, birch
from radclust.clustering.birch import _CfTree, default_threshold
from radclust.pipeline import synth_blobs


def radius(tree, e):
    centroid = tree.ls[e] / tree.count[e]
    return np.sqrt(max(tree.ss[e] / tree.count[e] - centroid @ centroid, 0.0))


def assert_cached_summaries(tree, rows):
    """Every summary equals a recomputation: entries from their rows in row
    order, nodes from their items in item order."""
    for e in set(tree.entry_of.tolist()):
        own = rows[tree.entry_of == e]
        assert tree.count[e] == len(own)
        assert np.array_equal(tree.ls[e], np.add.accumulate(own)[-1])
        assert tree.ss[e] == np.add.accumulate([x @ x for x in own])[-1]
        assert np.array_equal(tree.centroid[e], tree.ls[e] / tree.count[e])
    for node, ids in tree.items.items():
        linear_sum = np.zeros(rows.shape[1])
        for item in ids:
            linear_sum = linear_sum + tree.ls[item]
        assert tree.count[node] == sum(tree.count[item] for item in ids)
        assert np.array_equal(tree.ls[node], linear_sum)
        assert np.array_equal(tree.centroid[node], linear_sum / tree.count[node])


def same_partition(a, b):
    mapping = {}
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def pin_rows(name):
    rng = np.random.RandomState(31)
    if name == "d1":
        return rng.randn(300, 1) * 3.0, None
    if name == "d3":
        return rng.randn(297, 3), None
    return np.tile(rng.randn(30, 4), (10, 1)), 1e-12  # 30 rows, each 10 times


# (branching, rows): node count, leaf entries, threshold, and the sha256 of
# entry_of as int64 and of the centroid bytes, recorded from the object tree
# that the array tree replaced
PINNED_TREES = {
    (3, "d1"): (140, 185, "0x1.f1408b3004b62p-7",
                "886073bda83d0c3ab21dd7dc2d58ed7eb30c3cd0e54a450f50aa33d046316d0b",
                "dadf8e6219d742da9ea28fe2886c1358959b9e363c9a86b6d74da99c9f4d7de7"),
    (3, "d3"): (113, 140, "0x1.82f56e2e6b2b7p-2",
                "65efbf0eab6826c2b019de9d36be38eb1f8a9e27b8f7c19274b06c1bfe3cbaa3",
                "25f6c56f29d433ec12a5a0cf038ef119f5190c7ba7730e24cfeb87c7db08481e"),
    (3, "repeated"): (138, 115, "0x1.19799812dea11p-40",
                      "464511fb3ffc29d116c21faa528604f7484332891dfe9bb385174d91922d1839",
                      "d7bd52a11fcf742481931e243ea9e3a12115b458380ede826f4491a2e0c8bfa1"),
    (8, "d1"): (40, 174, "0x1.f1408b3004b62p-7",
                "2a0128173e1d5ab939b4774d31a5ddf9b26093a16c272adae571f953fc6b62f2",
                "9abb1a1c095edb76d1fb39a447949ac4e145e8b846d91084336a302beec5a3b3"),
    (8, "d3"): (27, 131, "0x1.82f56e2e6b2b7p-2",
                "6dd7ba08be0cb538940b95be92cfd460a339ae0d42081e5086006b56318ab9a8",
                "856c1aefe5581956fb884275cb01255884a19d213d253c7435965c8a9f48dcee"),
    (8, "repeated"): (40, 132, "0x1.19799812dea11p-40",
                      "4396497df58188f9f534b1c7c42253a98814ce246fbbffa7335996aa54071516",
                      "a2aa06a74dbbadc99ee6ca3fced929e358a5a2cdb3b89f28a83c091414c992ac"),
}


# rows made of exact duplicates, so the median nearest-neighbour distance is 0,
# and the number of distinct rows; the first `distinct` rows are the distinct ones
DUPLICATED = {
    "constant-1d": (np.full((50, 1), 0.1), 1),
    "constant-2d": (np.tile([0.1, 0.3], (50, 1)), 1),
    "30-rows-10-times": (np.tile(np.random.RandomState(31).randn(30, 4), (10, 1)), 30),
    "near-1e6": (np.tile([[1e6], [1e6 + 1.0], [1e6 + 2.5]], (40, 1)), 3),
}


@pytest.mark.parametrize("branching, name", sorted(PINNED_TREES))
def test_prepared_tree_pinned(monkeypatch, branching, name):
    monkeypatch.setattr(BIRCH_MODULE, "_BRANCHING", branching)
    rows, threshold = pin_rows(name)
    tree = BIRCH_MODULE.prepare(rows, ClusterConfig(k=2, seed=0, birch_threshold=threshold))
    assert (
        tree.stats.node_count,
        tree.stats.leaf_entry_count,
        tree.stats.threshold.hex(),
        hashlib.sha256(tree.entry_of.astype(np.int64).tobytes()).hexdigest(),
        hashlib.sha256(tree.centroids.tobytes()).hexdigest(),
    ) == PINNED_TREES[branching, name]


class TestCfEntry:
    def test_absorbed_pair_summary(self):
        tree = _CfTree(np.array([[1.0], [3.0]]), 100.0, 50)
        e = tree.entry_of[0]
        assert tree.leaf_entries() == [e]
        assert tree.entry_of.tolist() == [e, e]
        assert tree.count[e] == 2
        assert tree.ls[e].tolist() == [4.0]
        assert tree.ss[e] == 10.0
        assert tree.centroid[e].tolist() == [2.0]
        assert radius(tree, e) == pytest.approx(1.0)

    def test_radius_argument_clamped_at_zero(self):
        # for this row, 44 of the 49 absorbs leave a tiny negative argument
        # from float cancellation: unclamped, those radii would be NaN and
        # those copies would open entries of their own
        rows = np.tile([0.144, 1.454], (50, 1))
        tree = _CfTree(rows, 1e-12, 50)
        assert tree.leaf_entries() == [tree.entry_of[0]]
        assert np.all(tree.entry_of == tree.entry_of[0])
        assert tree.count[tree.entry_of[0]] == 50


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
        # rebuild the tree at the threshold birch() used to inspect entries
        threshold = res.model.threshold
        tree = _CfTree(rows, threshold, 8)
        entries = tree.leaf_entries()
        assert len(entries) == res.model.leaf_entry_count
        assert sorted(entries) == sorted(set(tree.entry_of.tolist()))
        assert np.array_equal(np.bincount(tree.entry_of)[entries], tree.count[entries])
        assert tree.count[entries].sum() == 80
        assert np.abs(tree.ls[entries].sum(axis=0) - rows.sum(axis=0)).max() <= 1e-9
        for e in entries:
            assert np.abs(tree.ls[e] - rows[tree.entry_of == e].sum(axis=0)).max() <= 1e-9
            assert radius(tree, e) <= threshold + 1e-9

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
            tree = _CfTree(rows[:m], 0.1, branching)
            assert_cached_summaries(tree, rows[:m])
            nodes = max(nodes, len(tree.items))
        assert nodes > 5  # inner nodes and splits were exercised

    def test_pinned_cell_with_subsampled_threshold(self):
        # n=600 > 256, so the default threshold comes from a shuffled subsample,
        # drawn from one fixed stream whatever the cell's seed. The labels and
        # centroids were recorded before the shuffle drew in bulk and nodes
        # cached their summaries (bookkeeping that must not move a bit), and
        # held when the subsample stopped depending on the seed; the
        # threshold was re-recorded then.
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
        assert res.diagnostics["threshold"].hex() == "0x1.938db52f3adc6p-1"
        assert res.diagnostics["leaf_entries"] == 168

    def test_branching_forces_tree_growth(self, monkeypatch):
        monkeypatch.setattr(BIRCH_MODULE, "_BRANCHING", 4)
        rng = np.random.RandomState(2)
        rows = rng.randn(60, 2) * 10.0
        res = birch(rows, ClusterConfig(k=3, seed=3, birch_threshold=0.1))
        assert res.model.leaf_entry_count >= 50
        assert res.model.node_count > 10

    def test_branching_patchable_by_dotted_name(self, monkeypatch):
        rows = np.random.RandomState(2).randn(60, 2) * 10.0
        cfg = ClusterConfig(k=3, seed=3, birch_threshold=0.1)
        wide = birch(rows, cfg).model.node_count
        monkeypatch.setattr("radclust.clustering.birch._BRANCHING", 3)
        assert birch(rows, cfg).model.node_count > wide

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
        t1 = default_threshold(rows)
        t2 = default_threshold(rows + 55.0)
        assert t1 > 0.0
        assert t1 == pytest.approx(t2, rel=1e-9)

    def test_default_threshold_of_one_row_is_one(self):
        assert default_threshold(np.array([[3.0, -4.0]])) == 1.0

    @pytest.mark.parametrize("name", sorted(DUPLICATED))
    def test_default_threshold_absorbs_exact_duplicates(self, name):
        rows, distinct = DUPLICATED[name]
        tree = BIRCH_MODULE.prepare(rows, ClusterConfig(k=1))
        assert tree.stats.leaf_entry_count == distinct
        # one entry per distinct row: entries and distinct rows pair up one to one
        assert len({(row.tobytes(), e) for row, e in zip(rows, tree.entry_of)}) == distinct
        if distinct == 1:
            assert tree.stats.threshold == 1.0
        else:
            gaps = [np.linalg.norm(a - b) for a in rows[:distinct] for b in rows[:distinct]]
            assert tree.stats.threshold == pytest.approx(min(g for g in gaps if g > 0) / 4)

    def test_translation_invariance(self):
        rng = np.random.RandomState(10)
        rows = np.vstack([rng.randn(25, 2) * 0.3, rng.randn(25, 2) * 0.3 + 10.0])
        a = birch(rows, ClusterConfig(k=2, seed=11))
        b = birch(rows + 200.0, ClusterConfig(k=2, seed=11))
        assert same_partition(a.labels, b.labels)
