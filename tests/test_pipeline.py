import csv
import hashlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import radclust
import radclust.pipeline as pl
from radclust import ClusterConfig, ClusterResult, birch, kmeans, numerics
from radclust.errors import (
    ConfigError, DataError, ParseError, RadclustError, ShapeError, UsageError,
)
from radclust.features import FeatureMatrix
from radclust.numerics import mix_seed
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

from call_log import CallLog
from oracles import eager_read_features

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

    def test_empty_path_reports_line(self):
        data = b"path,crop_x,crop_y,crop_w,crop_h,age,sex\nimg.pgm,,,,,,\n ,,,,,70,M\n"
        with pytest.raises(ParseError, match="manifest line 3: empty path") as exc:
            read_manifest(data)
        assert exc.value.line == 3

    def test_round_trip(self):
        entries = [
            ManifestEntry(path="a.pgm", crop=None, age=None, sex="unknown"),
            ManifestEntry(path="b.pgm", crop=__import__("radclust.imaging", fromlist=["CropRect"]).CropRect(1, 2, 3, 4), age=70.0, sex="M"),
        ]
        back = read_manifest(write_manifest(entries))
        assert back[0].path == "a.pgm" and back[0].crop is None
        assert back[1].crop.w == 3 and back[1].age == 70.0 and back[1].sex == "M"

    @pytest.mark.parametrize("entry, problem", [
        (ManifestEntry(path="b.pgm", age=float("nan")), "age nan outside [0, 130]"),
        (ManifestEntry(path="b.pgm", age=150.0), "age 150.0 outside [0, 130]"),
        (ManifestEntry(path="b.pgm", age=-1.0), "age -1.0 outside [0, 130]"),
        (ManifestEntry(path="b.pgm", sex="X"), "sex 'X' is not M, F or unknown"),
        (ManifestEntry(path="  "), "empty path"),
    ], ids=["nan-age", "old-age", "negative-age", "sex-X", "blank-path"])
    def test_writer_refuses_what_the_reader_refuses(self, entry, problem):
        with pytest.raises(DataError) as exc:
            write_manifest([ManifestEntry(path="a.pgm"), entry])
        assert str(exc.value) == f"manifest entry 1 ({entry.path!r}): {problem}"

    def test_age_written_at_full_precision(self):
        data = write_manifest([ManifestEntry(path="a.pgm", age=70.0),
                               ManifestEntry(path="b.pgm", age=64.123456789)])
        assert data.split(b"\n")[1:3] == [b"a.pgm,,,,,70.0,", b"b.pgm,,,,,64.123456789,"]

    @pytest.mark.parametrize("row, message", [
        ("a.pgm,,,,, ,", "field age is not numeric"),
        ("a.pgm,,,,,, M", "unknown sex token ' M'"),
        ("a.pgm, ,,,,,", "crop needs all of"),
    ], ids=["blank-age", "padded-sex", "blank-crop"])
    def test_fields_are_not_stripped(self, row, message):
        with pytest.raises(ParseError, match=f"manifest line 3: {message}") as exc:
            read_manifest(f"path,crop_x,crop_y,crop_w,crop_h,age,sex\nb.pgm,,,,,,\n{row}\n")
        assert exc.value.line == 3


class TestFeatureMatrix:
    def test_id_count_must_match_rows(self):
        with pytest.raises(ShapeError, match="got 2 ids for 3 rows"):
            FeatureMatrix(rows=np.zeros((3, 2)), ids=["a", "b"])

    def test_duplicate_id_named(self):
        with pytest.raises(DataError, match="duplicate feature id 'b'"):
            FeatureMatrix(rows=np.zeros((4, 2)), ids=["a", "b", "c", "b"])


class TestFeaturesIO:
    def test_round_trip_is_exact(self):
        rng = np.random.RandomState(0)
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
            read_features("id,f0\na,1e999\n")

    # decimals in the number grammar that overflow to +-inf; "nan" and "inf" are not numbers
    @pytest.mark.parametrize("value", ["1e999", "-1e999"], ids=["inf", "-inf"])
    def test_non_finite_line_reported_before_a_later_duplicate(self, value):
        data = f"id,f0,f1\na,1.0,2.0\nb,3.0,{value}\na,4.0,5.0\n"
        with pytest.raises(ParseError, match="feature line 3: non-finite value") as exc:
            read_features(data)
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            read_features("name,f0\na,1.0\n")

    def test_first_fault_in_file_order_is_reported(self):
        # a non-numeric value on line 3 and a quote left open on line 5
        data = b'id,f0\na,1.0\nb,x\nc,2.0\n"d,3.0\ne,4.0\n'
        with pytest.raises(ParseError, match="feature line 3: non-numeric value") as exc:
            read_features(data)
        assert exc.value.line == 3
        # the eager reader parsed the whole file first, so the quote won
        with pytest.raises(ParseError, match="feature line 5: unexpected end of data"):
            eager_read_features(data)

    def test_read_peak_memory_is_under_two_and_a_half_file_sizes(self):
        fm, _ = synth_blobs(1000, 4, 16, 6.0, 1.0, seed=1)
        data = write_features(fm)
        tracemalloc.start()
        try:
            back = read_features(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.rows.tobytes() == fm.rows.tobytes() and back.ids == fm.ids
        assert peak <= 2.5 * len(data)

    def test_labels_round_trip(self):
        data = write_labels(["a", "b", "c"], [0, 1, 0])
        ids, labels = read_labels(data)
        assert ids == ["a", "b", "c"]
        assert labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("ids, labels, message", [
        (["a", "b", "c"], [0, 1], "3 ids but 2 labels"),
        (["a"], [0, 1], "1 ids but 2 labels"),
        (["a", "b"], [0.5, 7.9], r"label 0 \('a'\): 0.5 is not a cluster id"),
        (["a", "b"], [0, 7.0], r"label 1 \('b'\): 7.0 is not a cluster id"),
        (["a", "b"], [0, -1], r"label 1 \('b'\): -1 is not a cluster id in \[0, "),
        (["a"], np.array([-1]), r"label 0 \('a'\): np.int64\(-1\) is not a cluster id"),
        (["a"], [2 ** 63], r"label 0 \('a'\): 9223372036854775808 is not a cluster id"),
        (["a"], [True], r"label 0 \('a'\): True is not a cluster id"),
        (["a"], ["1"], r"label 0 \('a'\): '1' is not a cluster id"),
    ], ids=["too-few-labels", "too-many-labels", "fractions", "float", "negative",
            "negative-array", "above-index-range", "bool", "string"])
    def test_write_labels_refuses_what_read_labels_refuses(self, ids, labels, message):
        with pytest.raises(DataError, match=message):
            write_labels(ids, labels)

    @pytest.mark.parametrize("value", ["-1", "99999999999999999999"])
    def test_label_outside_index_range_rejected(self, value):
        with pytest.raises(ParseError, match=f"cluster {value} outside") as exc:
            read_labels(f"id,cluster\na,0\nb,{value}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 3", "3 ", "+2", "", "-", "1.0", "1e1"],
                             ids=["underscore", "arabic-indic", "leading-space",
                                  "trailing-space", "plus", "empty", "minus-only", "decimal",
                                  "exponent"])
    def test_label_not_ascii_digits_rejected(self, value):
        with pytest.raises(ParseError, match="cluster is not an integer") as exc:
            read_labels(f"id,cluster\na,0\nb,{value}\n")
        assert exc.value.line == 3


# Outside the number grammar, for ints and floats alike: int() reads the first seven as 10
# or 12, and float() reads all but 0x10.
NOT_IN_GRAMMAR = pytest.mark.parametrize(
    "value", ["1_0", "\u0661\u0662", "\uff11\uff12", " 12", "12 ", "\x0c12", "+12",
              "12.", ".5", "0x10", "nan", "inf", "-inf"],
    ids=["underscore", "arabic-indic", "full-width", "leading-space", "trailing-space",
         "form-feed", "plus", "trailing-point", "leading-point", "hex", "nan", "inf", "-inf"],
)


class TestNumberSyntax:
    @NOT_IN_GRAMMAR
    @pytest.mark.parametrize("column", ["f0", "f1"])
    def test_feature_value(self, value, column):
        def data(v):
            fields = {"f0": "1.5", "f1": "2.5", column: v}
            return f"id,f0,f1\na,1.0,2.0\nb,{fields['f0']},{fields['f1']}\n"
        assert read_features(data("12")).rows[1].tolist().count(12.0) == 1
        with pytest.raises(ParseError, match="feature line 3: non-numeric value") as exc:
            read_features(data(value))
        assert exc.value.line == 3

    @NOT_IN_GRAMMAR
    @pytest.mark.parametrize("column", ["crop_x", "crop_y", "crop_w", "crop_h", "age"])
    def test_manifest_field(self, value, column):
        def data(v):
            fields = {"crop_x": "1", "crop_y": "2", "crop_w": "30", "crop_h": "40", "age": "64",
                      column: v}
            return (f"path,crop_x,crop_y,crop_w,crop_h,age,sex\na.pgm,,,,,,\n"
                    f"b.pgm,{','.join(fields.values())},F\n")
        assert read_manifest(data("12"))[1].path == "b.pgm"
        message = "field age is not numeric" if column == "age" else "non-numeric crop field"
        with pytest.raises(ParseError, match=f"manifest line 3: {message}") as exc:
            read_manifest(data(value))
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

    @pytest.mark.parametrize("args, message", [
        ((0, 2, 2, 1.0, 0.1), "must all be >= 1"),
        ((5, 2, 0, 1.0, 0.1), "must all be >= 1"),
        ((5, 2, 2, 0.0, 0.1), "must be positive"),
        ((5, 2, 2, 1.0, -0.1), "must be positive"),
    ], ids=["no-points", "no-dims", "zero-separation", "negative-noise"])
    def test_bad_blob_arguments_rejected(self, args, message):
        with pytest.raises(ConfigError, match=message):
            synth_blobs(*args, seed=0)

    @pytest.mark.parametrize("n_per_class, size", [(0, 8), (2, 0)])
    def test_bad_textured_image_arguments_rejected(self, n_per_class, size):
        with pytest.raises(ConfigError, match="n_per_class and size must be >= 1"):
            synth_textured_images(n_per_class, size, seed=0)

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

    def test_textured_image_bytes_are_pinned(self, monkeypatch):
        # four 512x512 images, each more than one block of Gaussian draws, made inline
        # and on two and three threads
        for cpus in (1, 2, 3):
            monkeypatch.setattr(numerics, "_cpus", lambda: cpus)
            imgs, _, _ = synth_textured_images(2, 512, seed=1)
            digest = hashlib.sha256(b"".join(i.pixels.tobytes() for i in imgs)).hexdigest()
            assert digest == "1898469de7daf2c27dc296bcf51d9e68b5990b13b22a73ef533ec4b5109e6a24", cpus


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


PREPARED_SLUGS = ["spectral", "agglomerative-ward", "agglomerative-average", "birch"]


def sweep_labelings(monkeypatch, fm, cfg):
    """The report, plus the labels of every scored cell by (slug, k)."""
    seen = []
    original = pl.silhouette_batch

    def recording(x, labelings):
        seen.extend(labelings)
        return original(x, labelings)

    monkeypatch.setattr(pl, "silhouette_batch", recording)
    report = pl.sweep(fm, cfg)
    monkeypatch.undo()
    scored = [(row.slug, row.k) for row in report.rows if row.error is None]
    assert len(scored) == len(seen)
    return report, dict(zip(scored, seen))


class TestPreparedSweep:
    @pytest.mark.parametrize("n_per_blob,ks", [(150, [2, 3, 4, 5, 6]), (300, [2, 4])])
    def test_cells_equal_single_cell_calls(self, monkeypatch, n_per_blob, ks):
        # n=300 is the acceptance data; n=600 is well past the 256 rows above
        # which BIRCH's threshold comes from a subsample
        fm, _ = synth_blobs(n_per_blob, 2, 16, 10.0, 0.1, seed=7)
        cfg = SweepConfig(algorithms=PREPARED_SLUGS, ks=ks, seed=4)
        report, labelings = sweep_labelings(monkeypatch, fm, cfg)
        assert len(labelings) == len(report.rows) == len(PREPARED_SLUGS) * len(ks)
        for index, (slug, _, runner) in enumerate(pl.ALGORITHMS):
            if slug not in PREPARED_SLUGS:
                continue
            for k in ks:
                single = runner(fm.rows, ClusterConfig(k=k, seed=mix_seed(4, index, k)))
                assert np.array_equal(labelings[(slug, k)], single.labels), (slug, k)

    def test_birch_cells_share_one_tree_above_256_rows(self):
        fm, _ = synth_blobs(200, 3, 4, 5.0, 1.0, 21)
        results = [birch(fm.rows, ClusterConfig(k=k, seed=s))
                   for k, s in ((2, 1), (3, 2), (6, 99))]
        assert len({r.diagnostics["threshold"] for r in results}) == 1
        assert len({r.diagnostics["leaf_entries"] for r in results}) == 1

    def test_prepare_runs_once_per_algorithm(self, monkeypatch, tmp_path):
        log = CallLog(tmp_path)  # the calls happen in the sweep's worker processes
        for slug, _, runner in pl.ALGORITHMS:
            if hasattr(runner, "prepare"):
                def counted(rows, cfg, _slug=slug, _prepare=runner.prepare):
                    log.append(_slug)
                    return _prepare(rows, cfg)
                monkeypatch.setattr(runner, "prepare", counted)
        fm, _ = synth_blobs(20, 2, 4, 8.0, 0.2, seed=2)
        report = pl.sweep(fm, SweepConfig(ks=[2, 3, 4, 5], seed=1))
        calls = log.records()
        assert sorted(calls) == sorted(PREPARED_SLUGS)
        assert all(row.error is None for row in report.rows)

    def test_failed_prepare_fails_every_cell_of_its_algorithm(self, monkeypatch):
        monkeypatch.setattr("radclust.clustering.spectral._DENSE_CAP", 10)
        fm, _ = synth_blobs(10, 2, 2, 6.0, 0.2, seed=6)
        cfg = SweepConfig(algorithms=["kmeans", "spectral", "birch"], ks=[2, 3, 4], seed=0)
        report = pl.sweep(fm, cfg)
        spectral_rows = [r for r in report.rows if r.slug == "spectral"]
        assert [r.k for r in spectral_rows] == [2, 3, 4]
        for row in spectral_rows:
            assert row.silhouette is None and not row.converged
            assert row.error == (
                "ConfigError: spectral clustering is dense-only and capped at n=10, got 20"
            )
        others = [r for r in report.rows if r.slug != "spectral"]
        assert len(others) == 6
        assert all(r.silhouette is not None and r.error is None for r in others)


class TestLazyKRange:
    def test_huge_range_is_not_listed(self):
        start = time.perf_counter()
        cfg = SweepConfig(ks=range(2, 10**9))
        assert time.perf_counter() - start < 1.0  # listing it would take minutes
        assert cfg.ks == range(2, 10**9)

    def test_huge_range_fails_fast_in_sweep(self):
        fm, _ = synth_blobs(10, 2, 2, 6.0, 0.2, seed=6)
        with pytest.raises(ConfigError, match="largest k 999999999 exceeds sample count 20"):
            sweep(fm, SweepConfig(ks=range(2, 10**9)))

    def test_descending_range_sweeps_ascending(self):
        assert list(SweepConfig(ks=range(6, 1, -2)).ks) == [2, 4, 6]

    @pytest.mark.parametrize("ks,message", [(range(1, 4), ">= 2"), (range(5, 2), "empty")])
    def test_range_checks_match_lists(self, ks, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig(ks=ks)


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

    def test_algorithm_name_is_escaped(self):
        report = SweepReport(rows=[SweepRow("K<Means & co", "", 2, 0.5, 0.0, True)])
        root = ET.fromstring(render_chart_svg(report).decode())
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "K<Means & co" in labels

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

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_list_rejected(self, value):
        with pytest.raises(UsageError, match="empty algorithm list"):
            algorithms_from_arg(value)
