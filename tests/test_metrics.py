import tracemalloc

import numpy as np
import pytest

import radclust.metrics
from radclust.errors import ConfigError, ShapeError
from radclust.features import FeatureMatrix
from radclust.metrics import SilhouetteReport, silhouette, silhouette_batch, sse
from radclust.pipeline import SweepConfig, synth_blobs

from oracles import naive_silhouette, naive_sse
from test_pipeline import sweep_labelings
from test_sweep_pins import ARCHIVE_ALGOS


class TestSilhouette:
    def test_duplicated_points_score_one(self):
        rows = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        report = silhouette(rows, [0, 0, 1, 1])
        assert np.allclose(report.per_point, 1.0)
        assert report.mean == pytest.approx(1.0)

    def test_frozen_1d_example(self):
        rows = np.array([[0.0], [1.0], [10.0], [11.0]])
        report = silhouette(rows, [0, 0, 1, 1])
        expected = [0.9047619048, 0.8947368421, 0.8947368421, 0.9047619048]
        assert np.allclose(report.per_point, expected, atol=1e-7)
        assert report.mean == pytest.approx(0.8997494, abs=1e-7)

    def test_matches_naive_reference_on_random_data(self):
        rng = np.random.RandomState(0)
        rows = rng.randn(50, 8)
        labels = rng.randint(0, 4, size=50)
        labels[:4] = [0, 1, 2, 3]  # ensure every cluster is populated
        report = silhouette(rows, labels)
        naive_values, naive_mean = naive_silhouette(rows, labels)
        assert np.abs(report.per_point - naive_values).max() <= 1e-9
        assert report.mean == pytest.approx(naive_mean, abs=1e-9)

    def test_singleton_cluster_scores_zero(self):
        rows = np.array([[0.0], [0.1], [5.0]])
        report = silhouette(rows, [0, 0, 1])
        assert report.per_point[2] == 0.0

    @pytest.mark.parametrize("block_elements", [1, 100, 150])  # 1-, 2- and 3-row blocks
    @pytest.mark.parametrize("singleton_row", [0, 2, 3, 48, 49])
    def test_row_blocks_match_naive_reference(self, monkeypatch, block_elements, singleton_row):
        # n=50 in 3-row blocks leaves a 2-row last block; the singleton
        # cluster sits at the first, last or middle edge of a block. Groups
        # of 1-3 columns cut every labeling into chunks.
        monkeypatch.setattr(radclust.metrics, "_BLOCK_ELEMENTS", block_elements)
        monkeypatch.setattr(radclust.metrics, "_GROUP_ELEMENTS", block_elements)
        rng = np.random.RandomState(5)
        rows = rng.randn(50, 6)
        labels = np.where(rng.rand(50) < 0.5, 0, 2)
        labels[singleton_row] = 5
        report = silhouette(rows, labels)
        naive_values, naive_mean = naive_silhouette(rows, labels)
        assert report.per_point[singleton_row] == 0.0
        assert np.abs(report.per_point - naive_values).max() <= 1e-9
        assert report.mean == pytest.approx(naive_mean, abs=1e-9)
        assert np.isnan(report.per_cluster_mean[[1, 3, 4]]).all()
        for c in (0, 2, 5):
            assert report.per_cluster_mean[c] == pytest.approx(naive_values[labels == c].mean(), abs=1e-9)

    @pytest.mark.parametrize("labelings", [
        [np.arange(4000) % 4],
        [np.arange(4000) // 2],  # 2000 two-point clusters
        # one 2000-point cluster and 2000 singletons: the first chunk of
        # clusters holds most of the rows
        [np.r_[np.zeros(2000, dtype=int), np.arange(1, 2001)]],
        # six labelings at each k=2..6, as a sweep of six variants scores them
        [np.random.RandomState(i).randint(0, 2 + i % 5, size=4000) for i in range(30)],
    ], ids=["k4", "k2000", "skewed-k2001", "batch30-k2-6"])
    def test_peak_memory_is_row_blocks(self, labelings):
        rows = np.random.RandomState(6).randn(4000, 16)
        tracemalloc.start()
        try:
            reports = silhouette_batch(rows, labelings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(r, SilhouetteReport) for r in reports)
        # one one-hot matrix (at most 2**19 entries), one distance block (2**17)
        # and a chunk's copy of its columns, and each labeling's cluster ids and
        # silhouettes, as float64, plus a quarter MiB for small temporaries
        entries = (1 << 19) + 2 * (1 << 17) + 2 * len(labelings) * 4000
        assert peak <= 8 * entries + 2**18

    @pytest.mark.parametrize("case", ["batch30-k2-6", "archive-k2-6"])
    def test_row_budget_moves_no_bits_where_the_gemm_kernels_stay(self, monkeypatch, case):
        # Blocks of 2**17 distance entries give these batches the bits that
        # blocks of 2**19 gave, at one BLAS thread and at two: only each GEMM's
        # row count M differs, and with 120 one-hot columns every GEMM stays
        # above OpenBLAS's small-matrix size (M * N * K <= 10**6). Other shapes
        # can round otherwise: a lone labeling at small k falls under that size.
        if case == "archive-k2-6":
            fm = synth_blobs(1000, 4, 16, 6.0, 1.0, 1)[0]
            cfg = SweepConfig(algorithms=ARCHIVE_ALGOS, ks=range(2, 7))
            rows, labelings = fm.rows, list(sweep_labelings(monkeypatch, fm, cfg)[1].values())
        else:
            rows = np.random.RandomState(6).randn(4000, 16)
            labelings = [np.random.RandomState(i).randint(0, 2 + i % 5, size=4000)
                         for i in range(30)]
        assert len(labelings) == 30
        reports = silhouette_batch(rows, labelings)
        monkeypatch.setattr(radclust.metrics, "_BLOCK_ELEMENTS", 1 << 19)
        for report, before in zip(reports, silhouette_batch(rows, labelings)):
            assert report.per_point.tobytes() == before.per_point.tobytes()
            assert report.mean == before.mean
            assert report.per_cluster_mean.tobytes() == before.per_cluster_mean.tobytes()

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 4, 1], "label 4 at row 2 out of range for 4 rows"),
        ([0, 10**12, 1, -1], "label 1000000000000 at row 1 out of range for 4 rows"),
        ([0, 1, -1, 9], "label -1 at row 2 out of range for 4 rows"),
    ])
    def test_label_out_of_range(self, labels, message):
        with pytest.raises(ShapeError, match=message):
            silhouette(np.zeros((4, 2)), labels)

    @pytest.mark.parametrize("labels, message", [
        ([0, 10**20, 1, 0], "label 100000000000000000000 at row 1 out of range for 4 rows"),
        ([0, 1, -2**70, 0], "label -1180591620717411303424 at row 2 out of range for 4 rows"),
        (np.array([0, 1, 2**63, 0], dtype=np.uint64),
         "label 9223372036854775808 at row 2 out of range for 4 rows"),
        ([2**63, 0, 1, -1], "label 9223372036854775808 at row 0 out of range for 4 rows"),
        ([0.0, 1.0, 7.0, 1.0], r"label 7\.0 at row 2 out of range for 4 rows"),
        ([0.5, 1.7, 0, 1], r"label 0\.5 at row 0 is not a whole number"),
        ([0, 1, float("nan"), 1], "label nan at row 2 is not a whole number"),
        ([0, 1, "a", 1], "label 'a' at row 2 is not a whole number"),
        ([0, 1, None, 1], "label None at row 2 is not a whole number"),
        ([[0, 1], [1, 0]], r"expected 4 labels, got shape \(2, 2\)"),
        ([[0], [1, 2], [0], [1]], "expected 4 labels, got a ragged nested sequence"),
        ([0, 1, np.int64(9), 1], "label 9 at row 2 out of range for 4 rows"),
    ], ids=["huge", "huge-negative", "uint64", "uint64-in-list", "whole-float", "fraction",
            "nan", "string", "none", "nested", "ragged", "numpy-scalar"])
    def test_bad_label_names_row_and_exact_value(self, labels, message):
        with pytest.raises(ShapeError, match=message):
            silhouette(np.zeros((4, 2)), labels)

    def test_whole_float_labels_accepted(self):
        rows = np.array([[0.0], [0.1], [5.0], [5.1]])
        assert silhouette(rows, [0.0, 0.0, 1.0, 1.0]).mean == silhouette(rows, [0, 0, 1, 1]).mean

    def test_single_label_rejected(self):
        with pytest.raises(ConfigError, match="one cluster"):
            silhouette(np.zeros((3, 2)), [1, 1, 1])

    def test_label_renaming_invariance(self):
        rng = np.random.RandomState(1)
        rows = rng.randn(30, 4)
        labels = rng.randint(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        base = silhouette(rows, labels)
        renamed = silhouette(rows, (labels * 2 + 1) % 5)  # injective on {0,1,2}
        assert np.allclose(base.per_point, renamed.per_point, atol=0)

    def test_rigid_motion_and_scale_invariance(self):
        rng = np.random.RandomState(2)
        rows = rng.randn(25, 3)
        labels = rng.randint(0, 3, size=25)
        labels[:3] = [0, 1, 2]
        base = silhouette(rows, labels)
        theta = 0.7
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        moved = rows @ rot.T + np.array([5.0, -3.0, 2.0])
        assert np.abs(silhouette(moved, labels).per_point - base.per_point).max() <= 1e-9
        assert np.abs(silhouette(rows * 3.7, labels).per_point - base.per_point).max() <= 1e-9

    # 2**510 and up overflow a squared distance, 2**-540 and below underflow it
    @pytest.mark.parametrize("exponent", [600, 531, 510, -540, -548, -700, -1000])
    def test_power_of_two_scales_out_of_float_range_move_no_bit(self, exponent):
        fm, truth = synth_blobs(20, 3, 4, 6.0, 1.0, 3)
        base = silhouette(fm.rows, truth)
        scaled = silhouette(np.ldexp(fm.rows, exponent), truth)
        assert scaled.per_point.tobytes() == base.per_point.tobytes()
        assert scaled.per_cluster_mean.tobytes() == base.per_cluster_mean.tobytes()
        assert scaled.mean == base.mean == pytest.approx(0.6865, abs=1e-4)

    def test_mean_within_bounds_and_per_cluster(self):
        rng = np.random.RandomState(3)
        rows = rng.randn(40, 5)
        labels = rng.randint(0, 5, size=40)
        labels[:5] = range(5)
        report = silhouette(FeatureMatrix(rows), labels)
        assert -1.0 <= report.mean <= 1.0
        assert np.all(report.per_point >= -1.0) and np.all(report.per_point <= 1.0)
        assert report.per_cluster_mean.shape == (5,)
        for c in range(5):
            assert report.per_cluster_mean[c] == pytest.approx(
                report.per_point[labels == c].mean()
            )
        assert report.mean == pytest.approx(report.per_point.mean(), abs=1e-12)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_with_position(self, bad):
        rows = np.arange(12.0).reshape(4, 3)
        rows[2, 0] = bad
        with pytest.raises(ShapeError, match=r"non-finite value .* at \(2, 0\)"):
            silhouette(rows, [0, 0, 1, 1])


class TestSse:
    def test_zero_residual(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sse(rows, [0, 1], rows) == 0.0

    def test_square_example(self):
        rows = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0], [10.0, 1.0]])
        centroids = np.array([[0.0, 0.5], [10.0, 0.5]])
        assert sse(rows, [0, 1, 0, 1], centroids) == pytest.approx(1.0)

    def test_matches_naive(self):
        rng = np.random.RandomState(4)
        rows = rng.randn(30, 4)
        centroids = rng.randn(3, 4)
        labels = rng.randint(0, 3, size=30)
        assert sse(rows, labels, centroids) == pytest.approx(
            naive_sse(rows, labels, centroids), abs=1e-12
        )

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match="label 2 at row 2 out of range for 2 centroids"):
            sse(np.zeros((3, 2)), [0, 1, 2], np.zeros((2, 2)))

    def test_centroid_width_must_match_rows(self):
        with pytest.raises(ShapeError, match=r"centroid matrix shape \(2, 3\) does not match d=2"):
            sse(np.zeros((3, 2)), [0, 1, 0], np.zeros((2, 3)))

    def test_negative_label_names_first_bad_row(self):
        with pytest.raises(ShapeError, match="label -1 at row 1 out of range"):
            sse(np.zeros((4, 2)), [0, -1, 5, 1], np.zeros((2, 2)))

    @pytest.mark.parametrize("labels, message", [
        ([0, 10**20, 1], "label 100000000000000000000 at row 1 out of range for 2 centroids"),
        (np.array([0, 2**63, 1], dtype=np.uint64),
         "label 9223372036854775808 at row 1 out of range for 2 centroids"),
        ([0, 1, 0.5], r"label 0\.5 at row 2 is not a whole number"),
        ([0, 1], r"expected 3 labels, got shape \(2,\)"),
    ], ids=["huge", "uint64", "fraction", "short"])
    def test_bad_label_names_row_and_exact_value(self, labels, message):
        with pytest.raises(ShapeError, match=message):
            sse(np.zeros((3, 2)), labels, np.zeros((2, 2)))
