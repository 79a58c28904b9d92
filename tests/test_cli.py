import contextlib
import os
import runpy
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import radclust
from radclust import numerics
from radclust.cli import cli_main
from radclust.cnn import forward, load_weights
from radclust.errors import NonConvergenceError
from radclust.features import FeatureMatrix
from radclust.imaging import CropRect, crop, load_pgm, normalize, resize, save_pgm
from radclust.pipeline import (
    ALGORITHMS,
    read_features,
    read_labels,
    read_manifest,
    synth_blobs,
    synth_textured_images,
    write_features,
    write_labels,
    write_manifest,
    ManifestEntry,
)

# One CLI command, run on one CPU where the platform can pin a process, after
# printing OpenBLAS's thread count (blank without a settable OpenBLAS). The pin
# comes after numpy's import: OpenBLAS reads OPENBLAS_NUM_THREADS there and
# caps it at the CPUs the process may use. On one CPU the image commands run
# inline and leave that count as it is.
ONE_CPU_CLI = """
import os
import numpy
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from radclust import cli, numerics
blas = numerics._openblas()
print(blas[0]() if blas else "", flush=True)
cli.main()
"""

# One CLI command on the first N CPUs this process may use (N, the first
# argument), where every k-means fit says so on stdout and then sleeps. SIGINT
# gets Python's handler back: a shell starts a background job ignoring it.
SLEEPING_FITS_CLI = """
import os, signal, sys, time
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv.pop(1))])
signal.signal(signal.SIGINT, signal.default_int_handler)
import radclust.pipeline as pl
from radclust import cli

def asleep(rows, cfg):
    os.write(1, b"fitting\\n")  # one write, so two workers' lines never interleave
    time.sleep(30)

pl.ALGORITHMS = [(s, d, asleep if s == "kmeans" else r) for s, d, r in pl.ALGORITHMS]
cli.main()
"""


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
        # own interpreter running the extract command on one CPU
        _, manifest = write_image_tree(tmp_path, n_per_class=2, size=128)
        src = str(Path(radclust.__file__).resolve().parents[1])
        features = []
        for threads in ("1", "2"):
            out = tmp_path / f"features_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", ONE_CPU_CLI, "extract",
                                   "--manifest", str(manifest), "--seed", "5", "--out", str(out)],
                                  env=env, capture_output=True, timeout=300, check=True)
            if numerics._openblas() is not None and numerics._cpus() >= 2:
                # the child's GEMMs really ran on this many OpenBLAS threads
                assert proc.stdout.splitlines()[0] == threads.encode()
            features.append(out.read_bytes())
        assert read_features(features[0]).n == 4
        assert features[0] == features[1]

    def test_outputs_identical_at_one_two_and_three_workers(self, tmp_path, monkeypatch):
        raw, _ = write_image_tree(tmp_path, n_per_class=3, size=96)
        entries = [ManifestEntry(path=p.name, crop=CropRect(i, 2 * i, 80, 72) if i % 2 else None)
                   for i, p in enumerate(sorted(raw.glob("*.pgm")))]
        (raw / "manifest.csv").write_bytes(write_manifest(entries))
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_cpus", lambda: workers)
            proc, features = tmp_path / f"proc{workers}", tmp_path / f"features{workers}.csv"
            assert run(["preprocess", "--manifest", str(raw / "manifest.csv"),
                        "--out-dir", str(proc), "--size", "128"]) == 0
            assert run(["extract", "--manifest", str(proc / "manifest.csv"), "--seed", "4",
                        "--out", str(features)]) == 0
            files = {p.name: p.read_bytes() for p in proc.iterdir()}
            outputs.append((files, features.read_bytes()))
        assert len(outputs[0][0]) == 7
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_preprocess_failure_leaves_the_serial_loops_files(self, tmp_path, monkeypatch,
                                                              workers):
        raw, manifest = write_image_tree(tmp_path, n_per_class=3, size=64)
        names = [e.path for e in read_manifest(manifest.read_bytes())]
        (raw / names[3]).write_bytes(b"P5 not a pgm")
        monkeypatch.setattr(numerics, "_cpus", lambda: workers)
        proc = tmp_path / "proc"
        assert run(["preprocess", "--manifest", str(manifest), "--out-dir", str(proc)]) == 2
        assert sorted(p.name for p in proc.iterdir()) == sorted(names[:3])

    def test_extract_equals_a_caller_thread_loop_and_restores_blas(self, tmp_path, monkeypatch):
        _, manifest = write_image_tree(tmp_path, n_per_class=2, size=128)
        weights, out = tmp_path / "w.bin", tmp_path / "f.csv"
        monkeypatch.setattr(numerics, "_cpus", lambda: 2)
        blas = numerics._openblas()
        before = blas and blas[0]()
        assert run(["extract", "--manifest", str(manifest), "--seed", "6",
                    "--save-weights", str(weights), "--out", str(out)]) == 0
        assert (blas and blas[0]()) == before
        # the map pins BLAS to one thread; a plain loop here runs at the process's own count
        ws, entries = load_weights(weights.read_bytes()), read_manifest(manifest.read_bytes())
        rows = [forward(normalize(load_pgm((manifest.parent / e.path).read_bytes())), ws).values
                for e in entries]
        ids = [Path(e.path).stem for e in entries]
        assert out.read_bytes() == write_features(FeatureMatrix(rows=np.array(rows), ids=ids))

    def test_extract_missing_weights_exits_2(self, tmp_path, capsys):
        raw, manifest = write_image_tree(tmp_path, n_per_class=1, size=128)
        code = run([
            "extract", "--manifest", str(manifest),
            "--weights", str(tmp_path / "missing.bin"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2
        assert "missing.bin" in capsys.readouterr().err

    def test_preprocess_applies_the_manifest_crop(self, tmp_path):
        imgs, _, _ = synth_textured_images(1, 64, seed=2)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "a.pgm").write_bytes(save_pgm(imgs[0]))
        rect = CropRect(8, 4, 32, 48)
        (raw / "manifest.csv").write_bytes(
            write_manifest([ManifestEntry(path="a.pgm", crop=rect, age=70.0, sex="F")])
        )
        proc = tmp_path / "proc"
        assert run(["preprocess", "--manifest", str(raw / "manifest.csv"),
                    "--out-dir", str(proc), "--size", "16"]) == 0
        expect = resize(crop(imgs[0], rect), 16, 16)
        assert np.array_equal(load_pgm((proc / "a.pgm").read_bytes()).pixels, expect.pixels)
        (entry,) = read_manifest((proc / "manifest.csv").read_bytes())
        assert (entry.path, entry.crop, entry.age, entry.sex) == ("a.pgm", None, 70.0, "F")

    def test_extract_empty_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(write_manifest([]))
        out = tmp_path / "f.csv"
        assert run(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "lists no images" in capsys.readouterr().err
        assert not out.exists()

    def test_extract_wrong_image_size_exits_2(self, tmp_path):
        raw, manifest = write_image_tree(tmp_path, n_per_class=1, size=64)
        code = run([
            "extract", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2


    @pytest.mark.parametrize("command", ["preprocess", "extract"])
    def test_colliding_output_names_exit_2_and_write_nothing(self, tmp_path, capsys, command):
        # a/x.pgm and b/x.pgm would both write x.pgm (preprocess) and feature id x (extract)
        imgs, _, _ = synth_textured_images(1, 128, seed=0)
        for sub, img in zip(("a", "b"), imgs):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.pgm").write_bytes(save_pgm(img))
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(write_manifest([ManifestEntry(path="a/x.pgm"),
                                             ManifestEntry(path="b/x.pgm")]))
        out = tmp_path / "out"
        flags = ["--out-dir", str(out)] if command == "preprocess" else [
            "--out", str(out), "--save-weights", str(tmp_path / "w.bin")]
        before = sorted(tmp_path.rglob("*"))
        assert run([command, "--manifest", str(manifest), *flags]) == 2
        err = capsys.readouterr().err
        name = "x.pgm" if command == "preprocess" else "x"
        assert "'a/x.pgm' and 'b/x.pgm' give the same" in err and f"{name!r}" in err
        assert sorted(tmp_path.rglob("*")) == before


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

    def test_algorithm_list_rejected_for_cluster(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "cluster", "--features", str(features), "--algo", "kmeans,birch", "--k", "2",
        ]) == 1
        assert "single --algo name" in capsys.readouterr().err

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

    def test_features_whose_distances_overflow_or_underflow_score_as_unscaled(self, tmp_path,
                                                                              capsys):
        fm, truth = synth_blobs(20, 3, 4, 6.0, 1.0, 3)
        labels = tmp_path / "l.csv"
        labels.write_bytes(write_labels(fm.ids, truth))
        outs = []
        for scale in (1.0, 1e160, 1e-165):
            features = tmp_path / "f.csv"
            features.write_bytes(write_features(FeatureMatrix(rows=fm.rows * scale, ids=fm.ids)))
            assert run(["evaluate", "--features", str(features), "--labels", str(labels)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].split("\n")[1] == "mean_silhouette,0.6865"
        assert outs[1] == outs[2] == outs[0]

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

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "usage: radclust" in capsys.readouterr().out

    def test_module_entry_point_exits_with_the_command_code(self, tmp_path, monkeypatch):
        # what `python -m radclust.cli` runs, in this interpreter; the cached
        # module is set aside so runpy executes the file afresh
        out = tmp_path / "f.csv"
        monkeypatch.delitem(sys.modules, "radclust.cli")
        monkeypatch.setattr(sys, "argv", ["radclust", "synth", "--per-blob", "3", "--blobs", "2",
                                          "--dim", "2", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("radclust.cli", run_name="__main__")
        assert exc.value.code == 0
        assert read_features(out.read_bytes()).n == 6

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--birch-threshold", "-1"], "birch_threshold must be positive, got -1.0"),
        (["sweep", "--algos", "bogus"], "unknown algorithm 'bogus'"),
        (["sweep", "--algos", ","], "empty algorithm list"),
        (["sweep", "--k", "5..3"], "empty k range '5..3'"),
        (["cluster", "--algo", "kmeans", "--k", "2", "--tol", "-1"],
         "tol must be positive, got -1.0"),
        (["sweep", "--max-iters", "1_0"], "argument --max-iters: invalid int value: '1_0'"),
        (["sweep", "--k", "\u0662..\u0663"], "--k expects an integer or a..b range"),
        (["sweep", "--k", " 2.. 3"], "--k expects an integer or a..b range, got ' 2.. 3'"),
        (["sweep", "--seed", "+3"], "argument --seed: invalid int value: '+3'"),
        (["sweep", "--tol", " 1"], "argument --tol: invalid float value: ' 1'"),
        (["sweep", "--birch-threshold", "inf"], "invalid float value: 'inf'"),
        (["sweep", "--sigma", "1e999"], "rbf_sigma must be finite, got inf"),
        (["cluster", "--algo", "kmeans", "--k", "2", "--batch-size", "1e2"],
         "argument --batch-size: invalid int value: '1e2'"),
    ], ids=["sweep-knob", "sweep-algo", "sweep-no-algo", "sweep-k-range", "cluster-knob",
            "underscore", "arabic-indic-k", "padded-k", "plus", "padded-float", "inf",
            "sigma-overflow", "int-exponent"])
    def test_arguments_checked_before_the_features_file(self, tmp_path, capsys, argv, message):
        missing = tmp_path / "missing.csv"
        assert run([*argv, "--features", str(missing), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "cannot read" not in err

    def test_subcommand_flags_share_the_grammar(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run(["synth", "--noise", "+0.1", "--out", str(out)]) == 1
        assert "argument --noise: invalid float value: '+0.1'" in capsys.readouterr().err
        assert not out.exists()
        assert run(["synth", "--per-blob", "3", "--dim", "2", "--noise", "1e-1",
                    "--separation", "2.5E1", "--out", str(out)]) == 0
        assert read_features(out.read_bytes()).n == 6

    def test_bad_k_syntax(self, tmp_path):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        assert run([
            "sweep", "--features", str(features), "--k", "two..six",
            "--out", str(tmp_path / "r.csv"),
        ]) == 1

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    @pytest.mark.parametrize("k", ["2..1000000000000", "2..99999999999999999999"])
    def test_huge_k_range_fails_fast(self, tmp_path, capsys, command, k):
        features = tmp_path / "f.csv"
        run(["synth", "--per-blob", "5", "--blobs", "2", "--dim", "2",
             "--separation", "9", "--noise", "0.1", "--seed", "1", "--out", str(features)])
        argv = [command, "--features", str(features), "--k", k, "--out", str(tmp_path / "o.csv")]
        if command == "cluster":
            argv += ["--algo", "kmeans"]
        capsys.readouterr()
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("single --k value" if command == "cluster" else "exceeds sample count 10") in err

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

    # numpy warns of the overflow, as it does from a shell; the command must still end in a code
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command", [slug for slug, _, _ in ALGORITHMS] + ["sweep"])
    def test_features_whose_distances_overflow_end_in_an_exit_code(self, tmp_path, capsys,
                                                                  command):
        fm, _ = synth_blobs(20, 3, 4, 6.0, 1.0, 3)
        features = tmp_path / "f.csv"
        features.write_bytes(write_features(FeatureMatrix(rows=fm.rows * 1e160, ids=fm.ids)))
        files = ["--features", str(features), "--out", str(tmp_path / "out.csv")]
        if command == "sweep":
            code = run(["sweep", *files])
        else:
            code = run(["cluster", "--algo", command, "--k", "3", *files])
        err = capsys.readouterr().err
        assert 0 <= code <= 3
        if command in ("agglomerative-ward", "agglomerative-average", "birch", "gmm-diag"):
            assert code == 3 and "(overflow)" in err
        if command == "sweep":
            assert code == 0 and "sweep: birch k=2 failed: NonConvergenceError" in err
            assert all(f"sweep: gmm-diag k={k} failed: NonConvergenceError" in err
                       for k in range(2, 7))

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


def synth_features(tmp_path, separation="9", noise="0.1"):
    features = tmp_path / "f.csv"
    run(["synth", "--per-blob", "30", "--blobs", "3", "--dim", "2",
         "--separation", separation, "--noise", noise, "--seed", "5", "--out", str(features)])
    return features


class TestKnobFlags:
    # each value moves the labels off the default on these overlapping blobs
    @pytest.mark.parametrize("flag, value, algo, field, setting", [
        ("--batch-size", "7", "minibatch-kmeans", "batch_size", 7),
        ("--sigma", "0.3", "spectral", "rbf_sigma", 0.3),
        ("--birch-threshold", "1.5", "birch", "birch_threshold", 1.5),
        ("--tol", "0.5", "kmeans", "tol", 0.5),
        ("--max-iters", "1", "kmeans", "max_iters", 1),
    ])
    def test_flag_sets_its_config_field(self, tmp_path, flag, value, algo, field, setting):
        from radclust.clustering import ClusterConfig
        from radclust.pipeline import ALGORITHMS

        features = synth_features(tmp_path, separation="2", noise="1")
        out = tmp_path / "labels.csv"
        assert run(["cluster", "--features", str(features), "--algo", algo, "--k", "3",
                    "--out", str(out), flag, value]) == 0
        _, labels = read_labels(out.read_bytes())
        runner = next(r for slug, _, r in ALGORITHMS if slug == algo)
        rows = read_features(features.read_bytes()).rows
        expected = runner(rows, ClusterConfig(k=3, seed=0, **{field: setting})).labels
        default = runner(rows, ClusterConfig(k=3, seed=0)).labels
        assert np.array_equal(labels, expected)
        assert not np.array_equal(labels, default)

    def test_bad_knob_fails_the_sweep_up_front(self, tmp_path, capsys):
        features = synth_features(tmp_path)
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert run(["sweep", "--features", str(features), "--birch-threshold", "-1",
                    "--out", str(out)]) == 1
        assert "birch_threshold must be positive, got -1.0" in capsys.readouterr().err
        assert not out.exists()


class TestFileEdges:
    def test_quoted_id_survives_cluster_then_evaluate(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text('id,f0\n"a,b",0.0\nc,0.1\nd,5.0\n"e ""x""",5.1\n')
        labels = tmp_path / "l.csv"
        assert run(["cluster", "--features", str(features), "--algo", "kmeans", "--k", "2",
                    "--out", str(labels)]) == 0
        assert labels.read_bytes().splitlines()[1] == b'"a,b",0'
        assert run(["evaluate", "--features", str(features), "--labels", str(labels)]) == 0
        assert "mean_silhouette," in capsys.readouterr().out

    def test_non_utf8_features_exit_2(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_bytes(b"id,f0\ncaf\xe9,1.0\n")
        assert run(["sweep", "--features", str(features), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "feature file is not UTF-8: invalid byte at offset 9" in err
        assert "Traceback" not in err

    def test_preprocess_out_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        raw, manifest = write_image_tree(tmp_path, n_per_class=1, size=32)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert run(["preprocess", "--manifest", str(manifest), "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create {taken}")
        assert "Traceback" not in err


class TestExitCodes:
    @pytest.mark.parametrize("name, code, prefix", [
        ("UsageError", 1, "error"),
        ("ConfigError", 1, "error"),
        ("ParseError", 2, "error"),
        ("DataError", 2, "error"),
        ("BoundsError", 2, "error"),
        ("ShapeError", 2, "error"),
        ("NonConvergenceError", 3, "numeric failure"),
        ("DegenerateComponentError", 3, "numeric failure"),
    ])
    def test_each_error_class_carries_its_exit_code(self, monkeypatch, capsys, name, code, prefix):
        import radclust.cli as cli
        import radclust.errors as errors

        cls = getattr(errors, name)
        extra = {"component": 0} if name == "DegenerateComponentError" else {}

        def fail(args):
            raise cls("injected", **extra)

        monkeypatch.setitem(cli._COMMANDS, "synth", fail)
        assert cls.exit_code == code
        assert run(["synth", "--out", "unused.csv"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}: injected\n")
        assert ("usage:" in err) == (name == "UsageError")

    def test_interrupt_prints_one_line_and_exits_130(self, monkeypatch, capsys):
        import radclust.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "synth", interrupted)
        assert run(["synth", "--out", "unused.csv"]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_refused_allocation_prints_one_line_and_exits_1(self, tmp_path, capsys):
        # 2e13 int64 labels ask for 1.6e14 bytes, more than a 47-bit user address space
        # holds, so the allocation is refused at once and touches no memory
        out, labels_out = tmp_path / "f.csv", tmp_path / "labels.csv"
        code = run(["synth", "--per-blob", "10000000000000", "--blobs", "2", "--dim", "16",
                    "--out", str(out), "--labels-out", str(labels_out)])
        assert code == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: out of memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and not labels_out.exists()

    @pytest.mark.parametrize("cpus, signum, code, message", [
        pytest.param(1, signal.SIGINT, 130, b"interrupted\n", id="1"),
        pytest.param(2, signal.SIGINT, 130, b"interrupted\n", id="2"),
        pytest.param(1, signal.SIGTERM, 143, b"terminated\n", id="SIGTERM-1"),
        pytest.param(2, signal.SIGTERM, 143, b"terminated\n", id="SIGTERM-2"),
    ])
    def test_interrupted_sweep_stops_its_running_fits(self, tmp_path, cpus, signum, code, message):
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < cpus:
            pytest.skip(f"needs {cpus} CPUs to pin the sweep to")
        features = tmp_path / "f.csv"
        features.write_bytes(write_features(synth_blobs(10, 2, 2, 5.0, 0.5, 0)[0]))
        src = str(Path(radclust.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", SLEEPING_FITS_CLI, str(cpus), "sweep",
                                 "--features", str(features), "--algos", "kmeans", "--k", "2..5",
                                 "--out", str(tmp_path / "report.csv")],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            assert proc.stdout.readline() == b"fitting\n"
            os.kill(proc.pid, signum)  # the CLI's pid alone, not its process group
            start = time.monotonic()
            _, err = proc.communicate(timeout=20)
            elapsed = time.monotonic() - start
            with pytest.raises(ProcessLookupError):  # no worker is left in its process group
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        assert (proc.returncode, err) == (code, message)
        assert elapsed < 5.0  # a fit sleeps 30 s
        assert not (tmp_path / "report.csv").exists()
