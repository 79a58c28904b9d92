"""File formats, synthetic data, and the algorithm-by-k sweep harness.

The sweep runs a set of clustering variants over a range of cluster counts,
scores every run with the mean silhouette in one shared pass over the
distances, and renders the grid as a CSV report and an SVG line chart.
Cells are seeded independently by a pure mix of (sweep seed, algorithm, k),
so any execution order produces the same report. Variants with work that
does not depend on k (spectral, agglomerative, BIRCH) prepare it once per
sweep and cut every k from it. The fits run on one forked worker process
per CPU, with OpenBLAS at one thread, and only each cell's labels and
flags come back; scoring stays in the calling process. With one CPU,
without ``os.fork``, or where a fork would warn, they run inline, also at
one BLAS thread, so the report does not depend on the worker count. The
memory of the fits is spread over the workers.

Formats (UTF-8, LF line endings, a field quoted only when it holds a comma,
a double quote, a CR or an LF):

- manifest CSV: header ``path,crop_x,crop_y,crop_w,crop_h,age,sex``; the
  crop, age, and sex fields may be empty; age is written at full precision.
- feature CSV: header ``id,f0,...,f{d-1}``; full-precision decimal floats.
- labels CSV: header ``id,cluster``.
- report CSV: header ``algorithm,k,silhouette,runtime_ms,converged`` with
  silhouette at 4 decimal places.

Every number read from outside, in these files and on the command line,
follows one grammar (:func:`parse_numbers`): an int is ``-?[0-9]+``, and a
float is an int with an optional ``.[0-9]+`` fraction and an optional
``[eE][-+]?[0-9]+`` exponent. No padding, no ``+`` sign, no ``nan``/``inf``.
"""

import array
import csv
import functools
import itertools
import math
import numbers
import re
import time
import types
from dataclasses import dataclass, field, fields

import numpy as np

from .clustering import ClusterConfig, birch, gmm, hierarchy, kmeans, spectral
from .errors import BoundsError, ConfigError, DataError, ParseError, RadclustError, UsageError
from .features import FeatureMatrix
from .imaging import CropRect, ImageGray
from .metrics import silhouette_batch
from .numerics import RngStream, mix_seed, ordered_map, process_map

MANIFEST_HEADER = ["path", "crop_x", "crop_y", "crop_w", "crop_h", "age", "sex"]
LABELS_HEADER = ["id", "cluster"]
SEX_TOKENS = {"M": "M", "F": "F", "unknown": "unknown", "": "unknown"}
_MAX_LABEL = int(np.iinfo(np.intp).max)
_NUMBER_SYNTAX = {int: "-?[0-9]+", float: r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"}
# One or more numbers of a kind joined by commas, so that a whole row is checked in one match.
_NUMBER_ROWS = {kind: re.compile(f"{one}(?:,{one})*") for kind, one in _NUMBER_SYNTAX.items()}
_LINES = re.compile(r"[^\n]*\n|[^\n]+")
# ClusterConfig fields a sweep may set; it sets k and seed itself, per cell.
_KNOBS = [f.name for f in fields(ClusterConfig) if f.name not in ("k", "seed")]


def _prepared(fit, prepare, **options):
    """``fit`` with ``options`` bound, carrying ``prepare`` as an attribute.

    :func:`sweep` calls ``runner.prepare(rows, cfg)`` once per algorithm,
    binds the state as ``prepared=`` and calls the result as
    ``fit(rows, cell_cfg)`` per k, the same call as a runner without the
    attribute.
    """
    runner = functools.partial(fit, **options)
    runner.prepare = functools.partial(prepare, **options)
    return runner


# Table order of the nine variants: slug, display name, runner.
ALGORITHMS = [
    ("kmeans", "K-Means", kmeans.kmeans),
    ("minibatch-kmeans", "Mini batch K-means", kmeans.minibatch_kmeans),
    ("spectral", "Spectral clustering", _prepared(spectral.spectral, spectral.prepare)),
    ("agglomerative-ward", "Agglomerative Ward clustering",
     _prepared(hierarchy.agglomerative, hierarchy.prepare, linkage="ward")),
    ("agglomerative-average", "Agglomerative average clustering",
     _prepared(hierarchy.agglomerative, hierarchy.prepare, linkage="average")),
    ("birch", "Birch clustering", _prepared(birch.birch, birch.prepare)),
    ("gmm-tied", "Gaussian mixture (Tied)", functools.partial(gmm.gmm, mode="tied")),
    ("gmm-diag", "Gaussian mixture (Diag)", functools.partial(gmm.gmm, mode="diag")),
    ("gmm-full", "Gaussian mixture (Full)", functools.partial(gmm.gmm, mode="full")),
]
ALGORITHM_SLUGS = [slug for slug, _, _ in ALGORITHMS]

_CHART_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
]


@dataclass(eq=False)
class ManifestEntry:
    """One input image: path plus optional crop window, age, and sex."""

    path: str
    crop: CropRect = None
    age: float = None
    sex: str = "unknown"


def _read_csv(data, what):
    """The header row (None if empty) and an iterator of (line, fields) of the rows after it.

    ``line`` is the 1-based line a row starts on; blank rows are skipped.
    Bytes that are not UTF-8 raise a ParseError with their offset, checked
    over the whole file first. Rows are then parsed only as the iterator
    reaches them, so one row's fields are alive at a time, and a row the csv
    module rejects (a bare CR or stray quote, an unclosed quote, a field over
    its size limit) raises a ParseError with its line once every row before
    it has been seen.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} file is not UTF-8: invalid byte at offset {exc.start}",
                             offset=exc.start) from None
    # lines as a text file opened with newline="\n" gives them: each through its LF, then the rest
    rows = _csv_rows(csv.reader(map(re.Match.group, _LINES.finditer(data)), strict=True), what)
    _, header = next(rows, (1, None))
    return header, rows


def _csv_rows(reader, what):
    """(line, fields) of the first row, blank or not, then of each non-blank row after it."""
    end = 0
    try:
        for row in reader:
            if not end or row and row != [""]:
                yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        # without the csv module's advice to open the file in universal-newline mode
        raise _row_error(what, end + 1, str(exc).partition(" - ")[0]) from None


def _row_error(what, line, problem):
    return ParseError(f"{what} line {line}: {problem}", line=line)


def parse_numbers(kind, texts):
    """``kind`` (int or float) of every text; ValueError unless each one is in the grammar.

    This is the one place a number is read from outside text; see the module
    docstring for the grammar. A text holding a comma matches the joined row
    but fails ``kind()``, so it raises ValueError too.
    """
    if _NUMBER_ROWS[kind].fullmatch(",".join(texts)) is None:
        raise ValueError(f"not {kind.__name__} syntax: {texts!r}")
    return list(map(kind, texts))


def _numbers(kind, fields, what, line, problem):
    """:func:`parse_numbers` of ``fields``, or a ParseError at ``line`` saying ``problem``."""
    try:
        return parse_numbers(kind, fields)
    except ValueError:
        raise _row_error(what, line, problem) from None


def _write_csv(header, rows):
    """UTF-8 CSV bytes with LF line endings; a field is quoted only when it must be.

    Rows are written with CRLF, so that a field holding a CR is quoted too, then cut to LF.
    """
    lines = []
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines).encode("utf-8")


def read_manifest(data):
    """Parse a manifest CSV into entries; errors carry the 1-based line number."""
    header, rows = _read_csv(data, "manifest")
    if header != MANIFEST_HEADER:
        raise ParseError(f"manifest header must be {','.join(MANIFEST_HEADER)!r}", line=1)
    entries = []
    for lineno, row in rows:
        if len(row) != len(MANIFEST_HEADER):
            raise ParseError(f"manifest line {lineno} has {len(row)} fields, "
                             f"expected {len(MANIFEST_HEADER)}", line=lineno)
        path, cx, cy, cw, ch, age, sex = row
        if not path.strip():
            raise _row_error("manifest", lineno, "empty path")
        crop_fields = [cx, cy, cw, ch]
        if any(crop_fields) and not all(crop_fields):
            raise _row_error("manifest", lineno, "crop needs all of crop_x,crop_y,crop_w,crop_h")
        crop = None
        if all(crop_fields):
            values = _numbers(int, crop_fields, "manifest", lineno, "non-numeric crop field")
            try:
                crop = CropRect(*values)
            except BoundsError as exc:
                raise _row_error("manifest", lineno, exc) from None
        age_value = None
        if age:
            problem = f"field age is not numeric ({age!r})"
            [age_value] = _numbers(float, [age], "manifest", lineno, problem)
            if not 0.0 <= age_value <= 130.0:
                raise _row_error("manifest", lineno, f"age {age_value} outside [0, 130]")
        if sex not in SEX_TOKENS:
            raise _row_error("manifest", lineno, f"unknown sex token {sex!r} "
                             "(expected M, F, unknown, or empty)")
        entries.append(ManifestEntry(path=path, crop=crop, age=age_value, sex=SEX_TOKENS[sex]))
    return entries


def write_manifest(entries):
    """Serialize entries back to manifest CSV bytes.

    An entry :func:`read_manifest` would refuse raises a DataError naming its
    index and path: a blank path, an age outside [0, 130] (NaN included), or
    a sex other than M, F or unknown.
    """
    rows = []
    for i, e in enumerate(entries):
        problem = None
        if not e.path.strip():
            problem = "empty path"
        elif e.age is not None and not 0.0 <= e.age <= 130.0:
            problem = f"age {float(e.age)} outside [0, 130]"
        elif e.sex not in ("M", "F", "unknown"):
            problem = f"sex {e.sex!r} is not M, F or unknown"
        if problem:
            raise DataError(f"manifest entry {i} ({e.path!r}): {problem}")
        crop = ["", "", "", ""] if e.crop is None else [e.crop.x, e.crop.y, e.crop.w, e.crop.h]
        age = "" if e.age is None else repr(float(e.age))
        rows.append([e.path, *crop, age, "" if e.sex == "unknown" else e.sex])
    return _write_csv(MANIFEST_HEADER, rows)


def write_features(fm):
    """Feature matrix to CSV bytes at full precision (round-trips exactly)."""
    rows = ([row_id, *map(repr, row)] for row_id, row in zip(fm.ids, fm.rows.tolist()))
    return _write_csv(["id", *(f"f{i}" for i in range(fm.d))], rows)


def read_features(data):
    """Parse a feature CSV into a FeatureMatrix; errors carry line numbers.

    Rows are read one at a time, and each row's values go straight into one
    buffer of doubles, so the parse holds the text, the ids and that buffer
    but never every row's field strings at once. A file with several faults
    reports the first in file order.
    """
    header, rows = _read_csv(data, "feature")
    if header is None:
        raise ParseError("empty feature file", line=1)
    d = len(header) - 1
    if d < 1 or header != ["id", *(f"f{i}" for i in range(d))]:
        raise ParseError("feature header must be id,f0,...,f{d-1}", line=1)
    ids, values, seen = [], array.array("d"), set()
    for lineno, row in rows:
        if len(row) != d + 1:
            raise ParseError(f"feature line {lineno} has {len(row) - 1} values, expected {d}",
                             line=lineno)
        row_id = row[0]
        if row_id in seen:
            raise ParseError(f"duplicate feature id {row_id!r}", line=lineno)
        seen.add(row_id)
        vec = _numbers(float, row[1:], "feature", lineno, "non-numeric value")
        if not all(map(math.isfinite, vec)):
            raise _row_error("feature", lineno, "non-finite value")
        ids.append(row_id)
        values.extend(vec)
    if not ids:
        raise ParseError("feature file has no data rows", line=2)
    return FeatureMatrix(rows=np.frombuffer(values, dtype=np.float64).reshape(-1, d), ids=ids)


def write_labels(ids, labels):
    """Cluster assignments to labels CSV bytes (header ``id,cluster``).

    What :func:`read_labels` would refuse raises a DataError: a count of
    labels other than the count of ids, naming both, or a label that is not
    an integer in [0, the platform's largest index], naming its index and
    id. A bool is not an integer here.
    """
    ids, labels = list(ids), list(labels)
    if len(ids) != len(labels):
        raise DataError(f"{len(ids)} ids but {len(labels)} labels")
    for i, (row_id, label) in enumerate(zip(ids, labels)):
        integral = isinstance(label, numbers.Integral) and not isinstance(label, bool)
        if not (integral and 0 <= label <= _MAX_LABEL):
            raise DataError(f"label {i} ({row_id!r}): {label!r} is not a cluster id "
                            f"in [0, {_MAX_LABEL}]")
    return _write_csv(LABELS_HEADER, ([row_id, int(label)] for row_id, label in zip(ids, labels)))


def read_labels(data):
    """Parse a labels CSV into (ids, label array).

    A cluster id must be an int in the number grammar and lie in
    [0, the platform's largest index]; anything else is a ParseError
    carrying its line number.
    """
    header, rows = _read_csv(data, "labels")
    if header != LABELS_HEADER:
        raise ParseError("labels header must be 'id,cluster'", line=1)
    ids, labels = [], []
    for lineno, row in rows:
        if len(row) != 2:
            raise ParseError(f"labels line {lineno} must have 2 fields", line=lineno)
        [label] = _numbers(int, row[1:], "labels", lineno, "cluster is not an integer")
        if not 0 <= label <= _MAX_LABEL:
            raise _row_error("labels", lineno, f"cluster {label} outside [0, {_MAX_LABEL}]")
        labels.append(label)
        ids.append(row[0])
    return ids, np.array(labels, dtype=np.intp)


def synth_blobs(n_per_blob, n_blobs, d, separation, noise_sigma, seed):
    """Gaussian blobs around axis-aligned centers, from one seeded stream.

    Blob ``i`` sits at +separation along axis i for i < d, then at
    -separation along axis i-d; more than 2d blobs cannot be placed.
    Returns (FeatureMatrix, ground-truth labels).
    """
    if n_per_blob < 1 or n_blobs < 1 or d < 1:
        raise ConfigError("n_per_blob, n_blobs, and d must all be >= 1")
    if separation <= 0.0 or noise_sigma <= 0.0:
        raise ConfigError("separation and noise_sigma must be positive")
    if n_blobs > 2 * d:
        raise ConfigError(f"cannot place {n_blobs} blobs along {d} axes (max {2 * d})")
    blobs = np.arange(n_blobs)
    centers = np.zeros((n_blobs, d))
    centers[blobs, blobs % d] = np.where(blobs < d, separation, -separation)
    labels = np.repeat(blobs, n_per_blob)
    n = n_blobs * n_per_blob
    noise = RngStream(seed).gaussians(n * d).reshape(n, d) * noise_sigma
    rows = centers[labels] + noise
    ids = [f"b{b}_p{j:04d}" for b in range(n_blobs) for j in range(n_per_blob)]
    return FeatureMatrix(rows=rows, ids=ids), labels


def synth_textured_images(n_per_class, size, seed):
    """Two synthetic grayscale populations: smooth-dark and speckled-bright.

    Returns (images, ids, ground-truth labels). Stands in for real scans in
    end-to-end runs and demos. Image i is made from the i-th run of
    size * size Gaussians of the stream seeded with ``seed``, read from a
    stream positioned there (:meth:`~radclust.numerics.RngStream.ahead`), so
    the images are made in parallel by :func:`~radclust.numerics.ordered_map`
    with the bytes of one serial draw.
    """
    if n_per_class < 1 or size < 1:
        raise ConfigError("n_per_class and size must be >= 1")
    gradient = np.linspace(-40.0, 40.0, size)[:, None]

    def draw(i):
        cls = i // n_per_class
        base, noise_scale = [(90.0, 6.0), (160.0, 35.0)][cls]
        stream = RngStream(seed).ahead(2 * size * size * i)  # two raw draws per Gaussian
        canvas = stream.gaussians(size * size).reshape(size, size)
        canvas *= noise_scale
        canvas += base
        if cls == 0:
            canvas += gradient
        canvas += 0.5
        np.floor(canvas, out=canvas)
        pixels = np.clip(canvas, 0.0, 255.0, out=canvas).astype(np.uint8)
        return ImageGray(width=size, height=size, pixels=pixels)

    images = list(ordered_map(draw, range(2 * n_per_class)))
    ids = [f"img{cls}_{j:03d}" for cls in range(2) for j in range(n_per_class)]
    return images, ids, np.repeat(np.arange(2, dtype=np.intp), n_per_class)


@dataclass
class SweepConfig:
    """Which algorithms to run, over which cluster counts, and with what seed.

    ``ks`` becomes an ascending list of distinct ints; a ``range`` stays a
    range (reversed when it descends), so a huge one is never listed before
    :func:`sweep` checks its largest k against n. ``knobs`` sets ClusterConfig
    fields other than k and seed for every cell; they are checked here, once.
    """

    algorithms: list = field(default_factory=lambda: list(ALGORITHM_SLUGS))
    ks: list = field(default_factory=lambda: [2, 3, 4, 5, 6])
    seed: int = 0
    knobs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("algorithm list must not be empty")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_SLUGS]
        if unknown:
            raise ConfigError(
                f"unknown algorithms {unknown}; valid: {', '.join(ALGORITHM_SLUGS)}"
            )
        if isinstance(self.ks, range):
            self.ks = self.ks if self.ks.step > 0 else self.ks[::-1]
        else:
            bad = [k for k in self.ks if not isinstance(k, numbers.Integral) or isinstance(k, bool)]
            if bad:
                raise ConfigError(f"every k must be an integer, got {bad[0]!r}")
            self.ks = sorted(set(int(k) for k in self.ks))
        if not self.ks:
            raise ConfigError("k range must not be empty")
        if self.ks[0] < 2:
            raise ConfigError(f"every k must be >= 2, got {self.ks[0]}")
        for name in self.knobs:
            if name not in _KNOBS:
                reason = "is set per cell by the sweep" if name in ("k", "seed") else "is unknown"
                raise ConfigError(f"knob {name!r} {reason}; valid knobs: {', '.join(_KNOBS)}")
        ClusterConfig(k=self.ks[0], **self.knobs)  # a bad knob value raises here, once


@dataclass(eq=False)
class SweepRow:
    """One sweep cell: silhouette of one algorithm at one k.

    ``runtime_ms`` is the wall-clock time of the cell's fit alone; an
    algorithm's prepare step (the work shared by all its k) is charged to
    its first k, and scoring is shared by every cell of the sweep and
    charged to none. A failed cell has a blank silhouette and ``error`` set
    to the exception's type name and message.
    """

    algorithm: str
    slug: str
    k: int
    silhouette: float
    runtime_ms: float
    converged: bool
    error: str = None


@dataclass(eq=False)
class SweepReport:
    """Ordered sweep rows: algorithms in table order, k ascending within each."""

    rows: list


def _fit_cells(rows, cfg, task):
    """(k, runtime_ms, labels, converged, error) for each k of one task.

    A task is (algorithm index, runner, ks). A runner with a ``prepare``
    attribute is prepared once, for the largest of ``ks``, and the state is
    bound into it as ``prepared=``, so every cell is the one call
    ``fit(rows, cell_cfg)`` that cuts its k from that state. The prepare
    time is added to the first k, and a failed prepare is every cell's
    error. A cell whose fit raises a RadclustError has labels None and
    ``error`` set to the exception's type name and message. Only these
    plain values leave the call, so it returns the same from a worker
    process as inline, and the prepared state is dropped when it returns.
    """
    algo_index, fit, ks = task
    failure = None
    cells = []
    start = time.perf_counter()
    if hasattr(fit, "prepare"):
        try:
            state = fit.prepare(rows, ClusterConfig(k=ks[-1], **cfg.knobs))
            fit = functools.partial(fit, prepared=state)
        except RadclustError as exc:
            failure = exc
    for k in ks:
        outcome = failure
        if failure is None:
            cell_cfg = ClusterConfig(
                k=k, seed=mix_seed(cfg.seed, algo_index, k), **cfg.knobs
            )
            try:
                outcome = fit(rows, cell_cfg)
            except RadclustError as exc:
                outcome = exc
        now = time.perf_counter()
        runtime_ms = (now - start) * 1000.0
        if isinstance(outcome, RadclustError):
            cells.append((k, runtime_ms, None, False, _error_text(outcome)))
        else:
            cells.append((k, runtime_ms, outcome.labels, bool(outcome.converged), None))
        start = now
    return cells


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def sweep(fm, cfg: SweepConfig) -> SweepReport:
    """Fit every requested (algorithm, k) cell, then silhouette-score them all.

    Each cell gets an independent seed mixed from (sweep seed, algorithm
    index, k). Spectral, agglomerative and BIRCH prepare their k-independent
    work (eigenpairs, dendrogram, CF tree) once and cut each k from it, so a
    cell equals the single-cell call with the same config.

    The fits run through :func:`~radclust.numerics.process_map`, on one
    forked worker process per CPU, with OpenBLAS at one thread. A prepared
    variant is one task, so it still prepares once; every other variant is
    one task per k. Tasks start in table order, and a worker sends back
    only each cell's k, runtime, labels, converged flag and error text; the
    results come back in task order, so the report is the same at any
    worker count. The fits run inline, one after another, with one CPU,
    without ``os.fork``, or where a fork would warn. An exception other
    than a RadclustError propagates out of the sweep.

    The labelings of all fitted cells are scored here, together, by
    :func:`~radclust.metrics.silhouette_batch`, so the distance row blocks
    are built once per sweep. A cell whose fit fails, or whose labels
    cannot be scored, records converged=false, a blank silhouette and the
    error; the other cells are unaffected.
    """
    if cfg.ks[-1] > fm.n:
        raise ConfigError(f"largest k {cfg.ks[-1]} exceeds sample count {fm.n}")
    tasks = []  # (algorithm index, runner, ks), in table order
    for index, (slug, _, runner) in enumerate(ALGORITHMS):
        if slug not in cfg.algorithms:
            continue
        if hasattr(runner, "prepare"):
            tasks.append((index, runner, cfg.ks))
        else:
            tasks += [(index, runner, [k]) for k in cfg.ks]
    fit = functools.partial(_fit_cells, fm.rows, cfg)
    rows = []
    scored = []  # (row, labels) of every cell whose fit succeeded
    for (index, _, _), cells in zip(tasks, process_map(fit, tasks)):
        slug, display, _ = ALGORITHMS[index]
        for k, runtime_ms, labels, converged, error in cells:
            row = SweepRow(algorithm=display, slug=slug, k=k, silhouette=None,
                           runtime_ms=runtime_ms, converged=converged, error=error)
            rows.append(row)
            if error is None:
                scored.append((row, labels))

    scores = silhouette_batch(fm.rows, [labels for _, labels in scored])
    for (row, _), score in zip(scored, scores):
        if isinstance(score, RadclustError):
            row.converged = False
            row.error = _error_text(score)
        else:
            row.silhouette = score.mean
    return SweepReport(rows=rows)


def render_report_csv(report, include_runtime=False):
    """Render a sweep report as CSV bytes, silhouette at 4 decimal places.

    Runtime cells are blank unless ``include_runtime`` is set: wall-clock
    values would break the guarantee that equal seeds produce byte-identical
    reports. The measured values stay available on the SweepRow objects.
    """
    rows = (
        [row.algorithm, row.k, "" if row.silhouette is None else f"{row.silhouette:.4f}",
         f"{row.runtime_ms:.0f}" if include_runtime else "", "true" if row.converged else "false"]
        for row in report.rows
    )
    return _write_csv(["algorithm", "k", "silhouette", "runtime_ms", "converged"], rows)


def _fmt(value):
    """An SVG coordinate: an int as written, a float to one decimal place."""
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, stroke):
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1"/>')


def _text(x, y, size, body, anchor="middle", extra=""):
    """A sans-serif label, its body XML-escaped; ``anchor=None`` leaves text-anchor out."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def render_chart_svg(report):
    """Standalone SVG: one polyline per algorithm, k against mean silhouette.

    The y axis is fixed to [0, 1]. Cells with a blank silhouette leave gaps;
    isolated points are drawn as circle markers.
    """
    width, height = 760, 480
    left, right, top, bottom = 70, 540, 40, 430
    mid_x, mid_y = (left + right) / 2, (top + bottom) / 2
    ks = sorted({row.k for row in report.rows}) or [2]
    span = (ks[-1] - ks[0]) or 1

    def sx(k):
        return left + (right - left) * (k - ks[0]) / span

    def sy(v):
        return bottom - (bottom - top) * v

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        _text(mid_x, 22, 15, "Mean silhouette by cluster count"),
    ]
    for v in (tick / 5.0 for tick in range(6)):
        parts += [_line(left, sy(v), right, sy(v), "#dddddd"),
                  _text(left - 8, sy(v) + 4, 11, f"{v:.1f}", anchor="end")]
    for k in ks:
        parts += [_line(sx(k), bottom, sx(k), bottom + 5, "#333333"),
                  _text(sx(k), bottom + 18, 11, k)]
    parts += [
        _line(left, bottom, right, bottom, "#333333"),
        _line(left, top, left, bottom, "#333333"),
        _text(mid_x, bottom + 36, 12, "clusters"),
        _text(20, mid_y, 12, "silhouette", extra=f' transform="rotate(-90 20 {mid_y:.1f})"'),
    ]

    series = {}  # algorithm -> [(k, silhouette)], in first-appearance order
    for row in report.rows:
        series.setdefault(row.algorithm, []).append((row.k, row.silhouette))
    for index, (name, points) in enumerate(series.items()):
        color = _CHART_COLORS[index % len(_CHART_COLORS)]
        for blank, run in itertools.groupby(points, key=lambda point: point[1] is None):
            if blank:
                continue
            xy = [(f"{sx(k):.1f}", f"{sy(min(max(v, 0.0), 1.0)):.1f}") for k, v in run]
            if len(xy) >= 2:
                coords = " ".join(f"{x},{y}" for x, y in xy)
                parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                             'stroke-width="2"/>')
            else:
                parts.append(f'<circle cx="{xy[0][0]}" cy="{xy[0][1]}" r="3.5" fill="{color}"/>')
        ly = 50 + index * 22
        parts += [f'<rect x="{right + 20}" y="{ly - 9}" width="14" height="14" fill="{color}"/>',
                  _text(right + 40, ly + 2, 11, name, anchor=None)]
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def algorithms_from_arg(value):
    """Expand a CLI ``--algos`` value ('all' or comma list) into slugs."""
    if value.strip() == "all":
        return list(ALGORITHM_SLUGS)
    slugs = [token.strip() for token in value.split(",") if token.strip()]
    unknown = [s for s in slugs if s not in ALGORITHM_SLUGS]
    if unknown:
        raise UsageError(
            f"unknown algorithm {unknown[0]!r}; valid names: {', '.join(ALGORITHM_SLUGS)}"
        )
    if not slugs:
        raise UsageError("empty algorithm list")
    return slugs
