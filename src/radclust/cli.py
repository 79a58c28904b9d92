"""Command-line interface: synth, preprocess, extract, cluster, evaluate, sweep.

Exit codes: 0 success, else the failing error's ``exit_code`` (1 usage or
configuration, 2 data or parse, 3 numeric failure; see ``errors``), 1 when
an allocation is refused (out of memory), 130 on an interrupt and, from the
console entry point, 143 on SIGTERM. Each failure prints one stderr line
and no traceback.
Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import signal
import sys
from contextlib import closing
from pathlib import Path

from . import pipeline
from .clustering import ClusterConfig
from .cnn import CnnSpec, forward, init_weights, load_weights, save_weights
from .errors import ConfigError, DataError, RadclustError, UsageError
from .features import FeatureMatrix
from .imaging import crop, load_pgm, normalize, resize, save_pgm
from .metrics import silhouette
from .numerics import ordered_map

import numpy as np


class _Parser(argparse.ArgumentParser):
    """Reads every ``type=int`` and ``type=float`` flag through the number grammar."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for kind in (int, float):
            self.register("type", kind, lambda text, k=kind: pipeline.parse_numbers(k, [text])[0])

    def error(self, message):
        raise UsageError(message)


def _parse_k_range(text):
    """'a..b' inclusive or a single integer, as a range (nothing is listed yet).

    Each bound is an int in the number grammar of :func:`pipeline.parse_numbers`.
    """
    try:
        bounds = pipeline.parse_numbers(int, text.split("..", 1))
    except ValueError:
        raise UsageError(f"--k expects an integer or a..b range, got {text!r}") from None
    if bounds[0] > bounds[-1]:
        raise UsageError(f"empty k range {text!r}")
    return range(bounds[0], bounds[-1] + 1)


def _on_file(verb, path, call):
    """``call()``, with an OSError turned into a DataError naming ``path``."""
    try:
        return call()
    except OSError as exc:
        raise DataError(f"cannot {verb} {path}: {exc.strerror or exc}") from None


def _read_file(path):
    return _on_file("read", path, Path(path).read_bytes)


def _write_file(path, data):
    _on_file("write", path, lambda: Path(path).write_bytes(data))


# Knob flag -> (ClusterConfig field, value type), for cluster and sweep.
_KNOB_FLAGS = {
    "--batch-size": ("batch_size", int),
    "--sigma": ("rbf_sigma", float),
    "--birch-threshold": ("birch_threshold", float),
    "--tol": ("tol", float),
    "--max-iters": ("max_iters", int),
}


def _add_knob_flags(parser):
    for flag, (name, kind) in _KNOB_FLAGS.items():
        parser.add_argument(flag, dest=name, metavar=flag[2:].replace("-", "_").upper(), type=kind)


def _knobs_from_args(args):
    names = (name for name, _ in _KNOB_FLAGS.values())
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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


def _output_names(entries, manifest, what, name_of):
    """The output name ``name_of(Path(entry.path))`` of each entry.

    Two entries with one name would overwrite each other's output, so they
    raise a DataError naming both manifest paths. The commands call this
    before they read any image, so a collision writes nothing.
    """
    paths = {}
    for entry in entries:
        name = name_of(Path(entry.path))
        if name in paths:
            raise DataError(f"manifest {manifest}: {paths[name]!r} and {entry.path!r} "
                            f"give the same {what} {name!r}")
        paths[name] = entry.path
    return list(paths)


def _cmd_preprocess(args):
    entries = pipeline.read_manifest(_read_file(args.manifest))
    names = _output_names(entries, args.manifest, "output file", lambda path: path.name)
    in_dir = _manifest_dir(args)
    out_dir = Path(args.out_dir)
    _on_file("create", out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))

    def process(entry):
        img = load_pgm(_read_file(in_dir / entry.path))
        if entry.crop is not None:
            img = crop(img, entry.crop)
        return save_pgm(resize(img, args.size, args.size))

    # the files are written here, in manifest order, as each image comes back
    with closing(ordered_map(process, entries)) as images:
        for name, data in zip(names, images):
            _write_file(out_dir / name, data)
    out_entries = [pipeline.ManifestEntry(path=name, age=entry.age, sex=entry.sex)
                   for entry, name in zip(entries, names)]
    _write_file(out_dir / "manifest.csv", pipeline.write_manifest(out_entries))
    return 0


def _cmd_extract(args):
    entries = pipeline.read_manifest(_read_file(args.manifest))
    if not entries:
        raise DataError(f"manifest {args.manifest} lists no images")
    ids = _output_names(entries, args.manifest, "feature id", lambda path: path.stem)
    in_dir = _manifest_dir(args)
    if args.weights:
        weights = load_weights(_read_file(args.weights))
    else:
        weights = init_weights(CnnSpec(), args.seed)
    if args.save_weights:
        _write_file(args.save_weights, save_weights(weights))

    def embed(entry):
        return forward(normalize(load_pgm(_read_file(in_dir / entry.path))), weights).values

    fm = FeatureMatrix(rows=np.array(list(ordered_map(embed, entries))), ids=ids)
    _write_file(args.out, pipeline.write_features(fm))
    return 0


def _cmd_cluster(args):
    slugs = pipeline.algorithms_from_arg(args.algo)
    if len(slugs) != 1:
        raise UsageError("cluster takes a single --algo name, not a list")
    ks = _parse_k_range(args.k)
    if ks[-1] != ks[0]:
        raise UsageError("cluster takes a single --k value, not a range")
    cfg = ClusterConfig(k=ks[0], seed=args.seed, **_knobs_from_args(args))
    fm = pipeline.read_features(_read_file(args.features))
    runner = {slug: r for slug, _, r in pipeline.ALGORITHMS}[slugs[0]]
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
    cfg = pipeline.SweepConfig(ks=_parse_k_range(args.k),
                               algorithms=pipeline.algorithms_from_arg(args.algos),
                               seed=args.seed, knobs=_knobs_from_args(args))
    fm = pipeline.read_features(_read_file(args.features))
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


class _Terminated(KeyboardInterrupt):
    """SIGTERM under :func:`main`: an interrupt, so it stops all that an interrupt stops."""


def _terminate(signum, frame):
    raise _Terminated


def cli_main(argv):
    """Parse and dispatch; returns the process exit code.

    A :class:`RadclustError` prints one stderr line and returns its exit
    code; a refused allocation prints one ``error: out of memory: ...`` line
    and returns 1, the configuration code; an interrupt (Ctrl-C) prints
    ``interrupted`` and returns 130, the shell's code for a process ended by
    SIGINT. SIGTERM, once :func:`main`
    has made it an interrupt, prints ``terminated`` and returns 143.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except RadclustError as exc:
        print(f"{'numeric failure' if exc.exit_code == 3 else 'error'}: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            print(parser.format_usage(), end="", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return ConfigError.exit_code
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except KeyboardInterrupt as exc:
        terminated = isinstance(exc, _Terminated)
        print("terminated" if terminated else "interrupted", file=sys.stderr)
        return 143 if terminated else 130


def main():
    """The console entry point: SIGTERM stops a command as Ctrl-C does, with its own code."""
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
