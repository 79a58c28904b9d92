import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radclust
from radclust.cli import cli_main
from radclust.errors import NonConvergenceError
from radclust.imaging import load_pgm, save_pgm
from radclust.pipeline import (
    read_features,
    read_labels,
    synth_textured_images,
    write_manifest,
    ManifestEntry,
)


def run(argv):
    return cli_main(argv)


def write_image_tree(tmp_path, n_per_class=2, size=128, seed=0):
    imgs, ids, _ = synth_textured_images(n_per_class, size, seed)
    raw = tmp_path / "raw"
    raw.mkdir()
    entries = []
    for img, img_id in zip(imgs, ids):
        name = f"{img_id}.pgm"
        (raw / name).write_bytes(save_pgm(img))
        entries.append(ManifestEntry(path=name))
    manifest = raw / "manifest.csv"
    manifest.write_bytes(write_manifest(entries))
    return raw, manifest


class TestSynthCommand:
    def test_writes_features_and_labels(self, tmp_path):
        out = tmp_path / "features.csv"
        labels_out = tmp_path / "labels.csv"
        code = run([
            "synth", "--per-blob", "10", "--blobs", "2", "--dim", "3",
            "--separation", "8", "--noise", "0.2", "--seed", "4",
            "--out", str(out), "--labels-out", str(labels_out),
        ])
        assert code == 0
        fm = read_features(out.read_bytes())
        assert fm.n == 20 and fm.d == 3
        ids, labels = read_labels(labels_out.read_bytes())
        assert ids == fm.ids
        assert sorted(set(labels.tolist())) == [0, 1]


class TestPreprocessAndExtract:
    def test_end_to_end_image_path(self, tmp_path):
        raw, manifest = write_image_tree(tmp_path, n_per_class=2, size=96)
        proc = tmp_path / "proc"
        assert run([
            "preprocess", "--manifest", str(manifest), "--out-dir", str(proc),
            "--size", "128",
        ]) == 0
        processed = sorted(p.name for p in proc.glob("*.pgm"))
        assert len(processed) == 4
        img = load_pgm((proc / processed[0]).read_bytes())
        assert (img.width, img.height) == (128, 128)

        features = tmp_path / "features.csv"
        weights = tmp_path / "weights.bin"
        assert run([
            "extract", "--manifest", str(proc / "manifest.csv"),
            "--seed", "3", "--save-weights", str(weights),
            "--out", str(features),
        ]) == 0
        fm = read_features(features.read_bytes())
        assert fm.n == 4 and fm.d == 16

        # re-extracting from the saved weight file reproduces the features
        features2 = tmp_path / "features2.csv"
        assert run([
            "extract", "--manifest", str(proc / "manifest.csv"),
            "--weights", str(weights), "--out", str(features2),
        ]) == 0
        assert features2.read_bytes() == features.read_bytes()

    def test_features_identical_across_blas_thread_counts(self, tmp_path):
        # OpenBLAS reads its thread count at import, so each setting gets its
        # own interpreter running the extract command
        _, manifest = write_image_tree(tmp_path, n_per_class=2, size=128)
        src = str(Path(radclust.__file__).resolve().parents[1])
        features = []
        for threads in ("1", "2"):
            out = tmp_path / f"features_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "radclust.cli", "extract",
                            "--manifest", str(manifest), "--seed", "5", "--out", str(out)],
                           env=env, capture_output=True, timeout=300, check=True)
            features.append(out.read_bytes())
        assert read_features(features[0]).n == 4
        assert features[0] == features[1]

    def test_extract_missing_weights_exits_2(self, tmp_path, capsys):
        raw, manifest = write_image_tree(tmp_path, n_per_class=1, size=128)
        code = run([
            "extract", "--manifest", str(manifest),
            "--weights", str(tmp_path / "missing.bin"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2
        assert "missing.bin" in capsys.readouterr().err

    def test_extract_wrong_image_size_exits_2(self, tmp_path):
        raw, manifest = write_image_tree(tmp_path, n_per_class=1, size=64)
        code = run([
            "extract", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2


class TestClusterCommand:
    def test_labels_to_file(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "10", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        out = tmp_path / "labels.csv"
        assert run([
            "cluster", "--features", str(features), "--algo", "kmeans",
            "--k", "2", "--seed", "0", "--out", str(out),
        ]) == 0
        ids, labels = read_labels(out.read_bytes())
        assert len(ids) == 20
        assert set(labels.tolist()) == {0, 1}

    def test_labels_to_stdout(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "cluster", "--features", str(features), "--algo", "birch", "--k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("id,cluster\n")

    def test_typo_lists_valid_algorithms(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        code = run([
            "cluster", "--features", str(features), "--algo", "kmeanz", "--k", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "kmeans" in err and "gmm-full" in err

    def test_k_range_rejected_for_cluster(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "cluster", "--features", str(features), "--algo", "kmeans", "--k", "2..4",
        ]) == 1

    def test_k_above_n_exits_1(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "2", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "cluster", "--features", str(features), "--algo", "kmeans", "--k", "9",
        ]) == 1


class TestEvaluateCommand:
    def test_prints_metrics(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        labels = tmp_path / "l.csv"
        run(["synth", "--per-blob", "10", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "2", "--out", str(features)])
        run(["cluster", "--features", str(features), "--algo", "kmeans",
             "--k", "2", "--out", str(labels)])
        capsys.readouterr()
        assert run(["evaluate", "--features", str(features), "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metric,value\n")
        mean_line = out.strip().split("\n")[1]
        assert mean_line.startswith("mean_silhouette,")
        assert float(mean_line.split(",")[1]) > 0.9

    def test_id_mismatch_exits_2(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "2", "--out", str(features)])
        (tmp_path / "l.csv").write_text("id,cluster\nnot_there,0\n")
        assert run([
            "evaluate", "--features", str(features), "--labels", str(tmp_path / "l.csv"),
        ]) == 2

    @pytest.mark.parametrize("cluster_id, message", [
        ("1000000000000", "label 1000000000000 at row 3 out of range for 10 rows"),
        ("99999999999999999999", "labels line 5: cluster 99999999999999999999 outside"),
    ])
    def test_huge_cluster_id_exits_2(self, tmp_path, capsys, cluster_id, message):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "2", "--out", str(features)])
        ids = read_features(features.read_bytes()).ids
        values = ["0", "1"] * 5
        values[3] = cluster_id
        lines = ["id,cluster"] + [f"{i},{v}" for i, v in zip(ids, values)]
        (tmp_path / "l.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run([
            "evaluate", "--features", str(features), "--labels", str(tmp_path / "l.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_happy_path_writes_both_files(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "15", "--blobs", "2", "--dim", "4",
             "--separation", "10", "--noise", "0.1", "--seed", "7", "--out", str(features)])
        out = tmp_path / "report.csv"
        svg = tmp_path / "chart.svg"
        code = run([
            "sweep", "--features", str(features), "--k", "2..3",
            "--algos", "kmeans,birch,gmm-tied", "--seed", "7",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7  # header + 3 algos x 2 ks
        assert svg.read_text().count("<polyline") == 3

    def test_failed_cell_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        import radclust.pipeline as pl

        def boom(x, cfg):
            raise NonConvergenceError("injected failure")

        monkeypatch.setattr(pl, "ALGORITHMS",
                            [(s, d, boom if s == "birch" else r) for s, d, r in pl.ALGORITHMS])
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "15", "--blobs", "2", "--dim", "4",
             "--separation", "10", "--noise", "0.1", "--seed", "7", "--out", str(features)])
        out = tmp_path / "report.csv"
        capsys.readouterr()
        assert run([
            "sweep", "--features", str(features), "--k", "2..3",
            "--algos", "kmeans,birch", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "sweep: birch k=2 failed: NonConvergenceError: injected failure",
            "sweep: birch k=3 failed: NonConvergenceError: injected failure",
        ]
        assert out.read_text().splitlines()[3:] == [
            "Birch clustering,2,,,false",
            "Birch clustering,3,,,false",
        ]

    def test_malformed_features_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,f0\na,1.0\na,2.0\n")
        assert run([
            "sweep", "--features", str(bad), "--out", str(tmp_path / "r.csv"),
        ]) == 2

    def test_bad_algos_exit_1(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "2", "--out", str(features)])
        assert run([
            "sweep", "--features", str(features), "--algos", "kmeanz",
            "--out", str(tmp_path / "r.csv"),
        ]) == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["synth", "--bogus", "1", "--out", "x.csv"]) == 1

    def test_bad_k_syntax(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "sweep", "--features", str(features), "--k", "two..six",
            "--out", str(tmp_path / "r.csv"),
        ]) == 1

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # collinear points at huge magnitude defeat the covariance
        # regularization ladder, which tops out at 1e-2
        features = tmp_path / "f.csv"
        lines = ["id,f0,f1,f2"]
        for i in range(4):
            v = float(i) * 1e9
            lines.append(f"p{i},{v!r},{v!r},{v!r}")
        features.write_text("\n".join(lines) + "\n")
        code = run([
            "cluster", "--features", str(features), "--algo", "gmm-full", "--k", "2",
        ])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_truncated_pgm_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "img.pgm").write_bytes(b"P5 4 4 255 " + bytes(10))
        (raw / "manifest.csv").write_bytes(
            write_manifest([ManifestEntry(path="img.pgm")])
        )
        assert run([
            "preprocess", "--manifest", str(raw / "manifest.csv"),
            "--out-dir", str(tmp_path / "proc"),
        ]) == 2
        assert "truncated" in capsys.readouterr().err
