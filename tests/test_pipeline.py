import csv
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import radclust
from radclust.clustering import ClusterConfig, ClusterResult, kmeans
from radclust.errors import ConfigError, ParseError, RadclustError, UsageError
from radclust.pipeline import (
    ALGORITHM_SLUGS,
    ManifestEntry,
    SweepConfig,
    SweepReport,
    SweepRow,
    algorithms_from_arg,
    read_features,
    read_labels,
    read_manifest,
    render_chart_svg,
    render_report_csv,
    sweep,
    synth_blobs,
    synth_textured_images,
    write_features,
    write_labels,
    write_manifest,
)

DATA = Path(__file__).parent / "data"


def reference_report():
    rows = []
    with open(DATA / "reference_scores.csv", newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                SweepRow(
                    algorithm=record["algorithm"],
                    slug="",
                    k=int(record["k"]),
                    silhouette=float(record["silhouette"]),
                    runtime_ms=0.0,
                    converged=True,
                )
            )
    return SweepReport(rows=rows)


class TestManifest:
    def test_full_row(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg1.pgm,0,0,100,100,65,F\n"
        entries = read_manifest(data)
        assert len(entries) == 1
        e = entries[0]
        assert e.path == "img1.pgm"
        assert (e.crop.x, e.crop.y, e.crop.w, e.crop.h) == (0, 0, 100, 100)
        assert e.age == 65.0
        assert e.sex == "F"

    def test_all_optional_row(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg2.pgm,,,,,,\n"
        entries = read_manifest(data)
        assert entries[0].crop is None
        assert entries[0].age is None
        assert entries[0].sex == "unknown"

    def test_non_numeric_age_reports_line(self):
        data = (
            b"path,crop_x,crop_y,crop_w,crop_h,age,sex\n"
            b"img1.pgm,,,,,,\n"
            b"img3.pgm,0,0,100,100,abc,M\n"
        )
        with pytest.raises(ParseError, match="age") as exc:
            read_manifest(data)
        assert exc.value.line == 3

    def test_partial_crop_rejected(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg.pgm,1,2,,,,\n"
        with pytest.raises(ParseError, match="crop"):
            read_manifest(data)

    def test_unknown_sex_token(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg.pgm,,,,,,X\n"
        with pytest.raises(ParseError, match="sex"):
            read_manifest(data)

    def test_age_out_of_range(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg.pgm,,,,,150,\n"
        with pytest.raises(ParseError, match="age"):
            read_manifest(data)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            read_manifest(b"file,x\nimg.pgm,1\n")

    def test_round_trip(self):
        entries = [
            ManifestEntry(path="a.pgm", crop=None, age=None, sex="unknown"),
            ManifestEntry(path="b.pgm", crop=__import__("radclust.imaging", fromlist=["CropRect"]).CropRect(1, 2, 3, 4), age=70.0, sex="M"),
        ]
        back = read_manifest(write_manifest(entries))
        assert back[0].path == "a.pgm" and back[0].crop is None
        assert back[1].crop.w == 3 and back[1].age == 70.0 and back[1].sex == "M"


class TestFeaturesIO:
    def test_round_trip_is_exact(self):
        rng = np.random.RandomState(0)
        from radclust.features import FeatureMatrix

        fm = FeatureMatrix(rows=rng.randn(5, 3) * 1e3, ids=[f"s{i}" for i in range(5)])
        back = read_features(write_features(fm))
        assert back.ids == fm.ids
        assert np.array_equal(back.rows, fm.rows)

    def test_sixteen_column_import(self):
        header = "id," + ",".join(f"f{i}" for i in range(16))
        line = "x," + ",".join("0.5" for _ in range(16))
        fm = read_features(f"{header}\n{line}\n")
        assert fm.d == 16 and fm.n == 1

    def test_duplicate_id_named(self):
        data = "id,f0\na,1.0\na,2.0\n"
        with pytest.raises(ParseError, match="'a'"):
            read_features(data)

    def test_ragged_row_reports_line(self):
        data = "id,f0,f1\na,1.0,2.0\nb,3.0\n"
        with pytest.raises(ParseError) as exc:
            read_features(data)
        assert exc.value.line == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            read_features("id,f0\na,nan\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            read_features("name,f0\na,1.0\n")

    def test_labels_round_trip(self):
        data = write_labels(["a", "b", "c"], [0, 1, 0])
        ids, labels = read_labels(data)
        assert ids == ["a", "b", "c"]
        assert labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("value", ["-1", "99999999999999999999"])
    def test_label_outside_index_range_rejected(self, value):
        with pytest.raises(ParseError, match=f"cluster {value} outside") as exc:
            read_labels(f"id,cluster\na,0\nb,{value}\n")
        assert exc.value.line == 3


class TestSynth:
    def test_blob_centers_on_axes(self):
        fm, labels = synth_blobs(50, 2, 2, 10.0, 0.1, seed=1)
        blob0 = fm.rows[labels == 0]
        blob1 = fm.rows[labels == 1]
        assert np.abs(blob0.mean(axis=0) - [10.0, 0.0]).max() < 0.1
        assert np.abs(blob1.mean(axis=0) - [0.0, 10.0]).max() < 0.1

    def test_deterministic(self):
        a, _ = synth_blobs(20, 3, 4, 5.0, 0.2, seed=7)
        b, _ = synth_blobs(20, 3, 4, 5.0, 0.2, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert a.ids == b.ids

    def test_kmeans_recovers_ground_truth(self):
        fm, truth = synth_blobs(50, 2, 2, 10.0, 0.1, seed=3)
        res = kmeans(fm.rows, ClusterConfig(k=2, seed=0))
        agreement = {}
        for got, want in zip(res.labels.tolist(), truth.tolist()):
            agreement.setdefault(got, want)
            assert agreement[got] == want

    def test_sign_flip_placement_beyond_d(self):
        fm, labels = synth_blobs(10, 4, 2, 8.0, 0.05, seed=5)
        centers = [fm.rows[labels == b].mean(axis=0) for b in range(4)]
        assert np.abs(centers[2] - [-8.0, 0.0]).max() < 0.1
        assert np.abs(centers[3] - [0.0, -8.0]).max() < 0.1

    def test_too_many_blobs(self):
        with pytest.raises(ConfigError):
            synth_blobs(5, 5, 2, 1.0, 0.1, seed=0)

    def test_textured_images(self):
        imgs, ids, labels = synth_textured_images(3, 32, seed=9)
        assert len(imgs) == 6 and len(set(ids)) == 6
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert all(i.pixels.shape == (32, 32) for i in imgs)
        again, _, _ = synth_textured_images(3, 32, seed=9)
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(imgs, again))
        # the speckled class has much rougher local texture than the smooth one
        roughness = [np.diff(i.pixels.astype(float), axis=1).std() for i in imgs]
        assert min(roughness[3:]) > 3.0 * max(roughness[:3])


class TestSweep:
    def test_full_grid_row_count_and_order(self):
        fm, _ = synth_blobs(20, 2, 4, 8.0, 0.2, seed=2)
        report = sweep(fm, SweepConfig(seed=11, ks=[2, 3, 4, 5, 6]))
        assert len(report.rows) == 45
        slugs = [row.slug for row in report.rows]
        assert slugs == [s for s in ALGORITHM_SLUGS for _ in range(5)]
        for i in range(0, 45, 5):
            assert [r.k for r in report.rows[i:i + 5]] == [2, 3, 4, 5, 6]

    def test_single_cell(self):
        fm, _ = synth_blobs(15, 2, 3, 6.0, 0.2, seed=4)
        report = sweep(fm, SweepConfig(algorithms=["kmeans"], ks=[2], seed=0))
        assert len(report.rows) == 1
        assert report.rows[0].algorithm == "K-Means"
        assert 0.9 <= report.rows[0].silhouette <= 1.0

    def test_equal_seeds_byte_identical_reports(self):
        fm, _ = synth_blobs(15, 2, 3, 6.0, 0.2, seed=4)
        cfg = SweepConfig(algorithms=["kmeans", "birch", "gmm-diag"], ks=[2, 3], seed=5)
        a = render_report_csv(sweep(fm, cfg))
        b = render_report_csv(sweep(fm, cfg))
        assert a == b

    def test_failed_cell_recorded_and_sweep_continues(self, monkeypatch):
        import radclust.pipeline as pl

        def boom(x, cfg):
            raise RadclustError("injected failure")

        patched = [(s, d, boom if s == "spectral" else r) for s, d, r in pl.ALGORITHMS]
        monkeypatch.setattr(pl, "ALGORITHMS", patched)
        fm, _ = synth_blobs(10, 2, 2, 6.0, 0.2, seed=6)
        report = pl.sweep(fm, SweepConfig(algorithms=["kmeans", "spectral"], ks=[2, 3], seed=0))
        assert len(report.rows) == 4
        spectral_rows = [r for r in report.rows if r.slug == "spectral"]
        assert all(r.silhouette is None and not r.converged for r in spectral_rows)
        assert all(r.error == "RadclustError: injected failure" for r in spectral_rows)
        kmeans_rows = [r for r in report.rows if r.slug == "kmeans"]
        assert all(r.silhouette is not None and r.error is None for r in kmeans_rows)

    def test_unscorable_cell_isolated_and_others_scored(self, monkeypatch):
        import radclust.pipeline as pl

        def one_cluster(x, cfg):
            return ClusterResult(labels=np.zeros(len(x), dtype=np.intp), converged=True)

        patched = [(s, d, one_cluster if s == "birch" else r) for s, d, r in pl.ALGORITHMS]
        monkeypatch.setattr(pl, "ALGORITHMS", patched)
        fm, _ = synth_blobs(10, 2, 2, 6.0, 0.2, seed=6)
        cfg = SweepConfig(algorithms=["kmeans", "birch", "gmm-diag"], ks=[2, 3], seed=0)
        report = pl.sweep(fm, cfg)
        assert [r.slug for r in report.rows] == ["kmeans"] * 2 + ["birch"] * 2 + ["gmm-diag"] * 2
        for row in report.rows:
            assert row.runtime_ms > 0.0
            if row.slug == "birch":
                assert row.silhouette is None and not row.converged
                assert row.error == "ConfigError: silhouette undefined for one cluster"
            else:
                assert row.silhouette is not None and row.error is None
        # the scored cells read exactly as in a sweep without the failing one
        alone = pl.sweep(fm, SweepConfig(algorithms=["kmeans", "gmm-diag"], ks=[2, 3], seed=0))
        assert [r.silhouette for r in report.rows if r.slug != "birch"] == [
            r.silhouette for r in alone.rows
        ]

    def test_report_bytes_identical_across_blas_thread_counts(self):
        # The criterion-5 sweep, once per OpenBLAS thread count; OpenBLAS
        # reads the count at import, so each setting gets its own interpreter.
        script = (
            "import sys\n"
            "from radclust.pipeline import SweepConfig, render_report_csv, sweep, synth_blobs\n"
            "fm, _ = synth_blobs(150, 2, 16, 10.0, 0.1, seed=7)\n"
            "sys.stdout.buffer.write(render_report_csv(sweep(fm, SweepConfig(seed=7))))\n"
        )
        src = str(Path(radclust.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 timeout=300, check=True)
            reports.append(out.stdout)
        assert reports[0].count(b"\n") == 46
        assert reports[0] == reports[1]

    def test_k_above_n_rejected(self):
        fm, _ = synth_blobs(2, 2, 2, 6.0, 0.2, seed=7)
        with pytest.raises(ConfigError):
            sweep(fm, SweepConfig(ks=[2, 5], seed=0))

    def test_k_below_2_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(ks=[1, 2])

    def test_sweep_on_round_tripped_features_is_identical(self):
        # importing features through the CSV format must not perturb results
        fm, _ = synth_blobs(12, 2, 5, 7.0, 0.3, seed=8)
        imported = read_features(write_features(fm))
        cfg = SweepConfig(algorithms=["kmeans", "spectral", "gmm-full"], ks=[2, 3], seed=3)
        direct = render_report_csv(sweep(fm, cfg))
        round_tripped = render_report_csv(sweep(imported, cfg))
        assert direct == round_tripped

    def test_rows_carry_measured_runtimes(self):
        fm, _ = synth_blobs(10, 2, 2, 6.0, 0.2, seed=9)
        report = sweep(fm, SweepConfig(algorithms=["kmeans"], ks=[2], seed=0))
        assert report.rows[0].runtime_ms > 0.0


class TestRenderReport:
    def test_header_and_four_decimals(self):
        data = render_report_csv(reference_report()).decode()
        lines = data.strip().split("\n")
        assert lines[0] == "algorithm,k,silhouette,runtime_ms,converged"
        assert lines[1] == "K-Means,2,0.8097,,true"
        assert "K-Means,5,0.7035,,true" in lines  # 0.70346 rounds to 4 places
        assert "Birch clustering,2,0.9234,,true" in lines
        assert len(lines) == 46

    def test_empty_report(self):
        assert render_report_csv(SweepReport(rows=[])).decode() == (
            "algorithm,k,silhouette,runtime_ms,converged\n"
        )

    def test_blank_silhouette_for_failed_row(self):
        report = SweepReport(rows=[
            SweepRow("K-Means", "kmeans", 2, None, 12.0, False),
        ])
        assert render_report_csv(report).decode().strip().split("\n")[1] == "K-Means,2,,,false"

    def test_runtime_opt_in(self):
        report = SweepReport(rows=[
            SweepRow("K-Means", "kmeans", 2, 0.5, 12.4, True),
        ])
        line = render_report_csv(report, include_runtime=True).decode().strip().split("\n")[1]
        assert line == "K-Means,2,0.5000,12,true"


class TestRenderChart:
    def test_full_reference_chart(self):
        svg = render_chart_svg(reference_report()).decode()
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")
        assert svg.count("<polyline") == 9
        for name in {row.algorithm for row in reference_report().rows}:
            assert name in svg

    def test_single_point_marker(self):
        report = SweepReport(rows=[SweepRow("K-Means", "kmeans", 2, 0.8, 1.0, True)])
        svg = render_chart_svg(report).decode()
        ET.fromstring(svg)
        assert svg.count("<polyline") == 0
        assert svg.count("<circle") == 1

    def test_gap_splits_polyline(self):
        rows = [
            SweepRow("K-Means", "kmeans", 2, 0.8, 1.0, True),
            SweepRow("K-Means", "kmeans", 3, 0.7, 1.0, True),
            SweepRow("K-Means", "kmeans", 4, None, 1.0, False),
            SweepRow("K-Means", "kmeans", 5, 0.6, 1.0, True),
            SweepRow("K-Means", "kmeans", 6, 0.5, 1.0, True),
        ]
        svg = render_chart_svg(SweepReport(rows=rows)).decode()
        assert svg.count("<polyline") == 2

    def test_no_external_references(self):
        svg = render_chart_svg(reference_report()).decode()
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg and "url(" not in svg


class TestAlgorithmsArg:
    def test_all_expands_to_nine(self):
        assert algorithms_from_arg("all") == list(ALGORITHM_SLUGS)

    def test_comma_list(self):
        assert algorithms_from_arg("kmeans,birch") == ["kmeans", "birch"]

    def test_typo_lists_valid_names(self):
        with pytest.raises(UsageError, match="kmeans"):
            algorithms_from_arg("kmeanz")
