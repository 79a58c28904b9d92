"""Command-line interface: synth, preprocess, extract, cluster, evaluate, sweep.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 numeric
failure. Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import sys
from pathlib import Path

from . import pipeline
from .clustering import ClusterConfig
from .cnn import CnnSpec, forward, init_weights, load_weights, save_weights
from .errors import (
    BoundsError,
    ConfigError,
    DataError,
    DegenerateComponentError,
    NonConvergenceError,
    NotPositiveDefiniteError,
    ParseError,
    ShapeError,
    UsageError,
)
from .features import FeatureMatrix
from .imaging import crop, load_pgm, normalize, resize, save_pgm
from .metrics import silhouette

import numpy as np


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_k_range(text):
    """'a..b' inclusive or a single integer."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise UsageError(f"empty k range {text!r}")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"--k expects an integer or a..b range, got {text!r}") from None


def _read_file(path):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_file(path, data):
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _add_knob_flags(parser):
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--birch-threshold", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=None)


def _knobs_from_args(args):
    knobs = {}
    if args.batch_size is not None:
        knobs["batch_size"] = args.batch_size
    if args.sigma is not None:
        knobs["rbf_sigma"] = args.sigma
    if args.birch_threshold is not None:
        knobs["birch_threshold"] = args.birch_threshold
    if args.tol is not None:
        knobs["tol"] = args.tol
    if args.max_iters is not None:
        knobs["max_iters"] = args.max_iters
    return knobs


def build_parser():
    parser = _Parser(prog="radclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic blob features")
    p.add_argument("--per-blob", type=int, default=150)
    p.add_argument("--blobs", type=int, default=2)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out", default=None)

    p = sub.add_parser("preprocess", help="crop and resize manifest images")
    p.add_argument("--manifest", required=True)
    p.add_argument("--in-dir", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, default=128)

    p = sub.add_parser("extract", help="run the CNN over manifest images")
    p.add_argument("--manifest", required=True)
    p.add_argument("--in-dir", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--save-weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cluster", help="run one clustering algorithm")
    p.add_argument("--features", required=True)
    p.add_argument("--algo", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    _add_knob_flags(p)

    p = sub.add_parser("evaluate", help="silhouette-score a labeling")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)

    p = sub.add_parser("sweep", help="run algorithms x cluster counts, write report")
    p.add_argument("--features", required=True)
    p.add_argument("--k", default="2..6")
    p.add_argument("--algos", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_knob_flags(p)

    return parser


def _cmd_synth(args):
    fm, labels = pipeline.synth_blobs(
        args.per_blob, args.blobs, args.dim, args.separation, args.noise, args.seed
    )
    _write_file(args.out, pipeline.write_features(fm))
    if args.labels_out:
        _write_file(args.labels_out, pipeline.write_labels(fm.ids, labels))
    return 0


def _manifest_dir(args):
    return Path(args.in_dir) if args.in_dir else Path(args.manifest).parent


def _cmd_preprocess(args):
    entries = pipeline.read_manifest(_read_file(args.manifest))
    in_dir = _manifest_dir(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_entries = []
    for entry in entries:
        img = load_pgm(_read_file(in_dir / entry.path))
        if entry.crop is not None:
            img = crop(img, entry.crop)
        img = resize(img, args.size, args.size)
        name = Path(entry.path).name
        _write_file(out_dir / name, save_pgm(img))
        out_entries.append(
            pipeline.ManifestEntry(path=name, crop=None, age=entry.age, sex=entry.sex)
        )
    _write_file(out_dir / "manifest.csv", pipeline.write_manifest(out_entries))
    return 0


def _cmd_extract(args):
    entries = pipeline.read_manifest(_read_file(args.manifest))
    if not entries:
        raise DataError(f"manifest {args.manifest} lists no images")
    in_dir = _manifest_dir(args)
    if args.weights:
        weights = load_weights(_read_file(args.weights))
    else:
        weights = init_weights(CnnSpec(), args.seed)
    if args.save_weights:
        _write_file(args.save_weights, save_weights(weights))
    ids, vectors = [], []
    for entry in entries:
        img = load_pgm(_read_file(in_dir / entry.path))
        tensor = normalize(img)
        ids.append(Path(entry.path).stem)
        vectors.append(forward(tensor, weights).values)
    fm = FeatureMatrix(rows=np.array(vectors), ids=ids)
    _write_file(args.out, pipeline.write_features(fm))
    return 0


def _cmd_cluster(args):
    if args.algo not in pipeline.ALGORITHM_SLUGS:
        raise UsageError(
            f"unknown algorithm {args.algo!r}; valid names: "
            f"{', '.join(pipeline.ALGORITHM_SLUGS)}"
        )
    ks = _parse_k_range(args.k)
    if len(ks) != 1:
        raise UsageError("cluster takes a single --k value, not a range")
    fm = pipeline.read_features(_read_file(args.features))
    cfg = ClusterConfig(k=ks[0], seed=args.seed, **_knobs_from_args(args))
    runner = next(r for slug, _, r in pipeline.ALGORITHMS if slug == args.algo)
    result = runner(fm.rows, cfg)
    data = pipeline.write_labels(fm.ids, result.labels)
    if args.out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        _write_file(args.out, data)
    return 0


def _cmd_evaluate(args):
    fm = pipeline.read_features(_read_file(args.features))
    ids, labels = pipeline.read_labels(_read_file(args.labels))
    if sorted(ids) != sorted(fm.ids):
        raise DataError("labels file ids do not match the feature ids")
    order = {row_id: i for i, row_id in enumerate(ids)}
    aligned = np.array([labels[order[row_id]] for row_id in fm.ids], dtype=np.intp)
    report = silhouette(fm.rows, aligned)
    lines = ["metric,value", f"mean_silhouette,{report.mean:.4f}"]
    for c, value in enumerate(report.per_cluster_mean):
        if np.isfinite(value):
            lines.append(f"cluster_{c}_silhouette,{value:.4f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args):
    fm = pipeline.read_features(_read_file(args.features))
    cfg = pipeline.SweepConfig(
        algorithms=pipeline.algorithms_from_arg(args.algos),
        ks=_parse_k_range(args.k),
        seed=args.seed,
        knobs=_knobs_from_args(args),
    )
    report = pipeline.sweep(fm, cfg)
    for row in report.rows:
        if row.error is not None:
            print(f"sweep: {row.slug} k={row.k} failed: {row.error}", file=sys.stderr)
    _write_file(args.out, pipeline.render_report_csv(report))
    if args.svg:
        _write_file(args.svg, pipeline.render_chart_svg(report))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "extract": _cmd_extract,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def cli_main(argv):
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError, BoundsError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, NotPositiveDefiniteError, DegenerateComponentError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
