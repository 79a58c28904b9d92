"""File formats, synthetic data, and the algorithm-by-k sweep harness.

The sweep runs a set of clustering variants over a range of cluster counts,
scores every run with the mean silhouette in one shared pass over the
distances, and renders the grid as a CSV report and an SVG line chart.
Cells are seeded independently by a pure mix of (sweep seed, algorithm, k),
so any execution order produces the same report.

Formats (UTF-8, LF line endings, ids restricted to [A-Za-z0-9._-]):

- manifest CSV: header ``path,crop_x,crop_y,crop_w,crop_h,age,sex``; the
  crop, age, and sex fields may be empty.
- feature CSV: header ``id,f0,...,f{d-1}``; full-precision decimal floats.
- labels CSV: header ``id,cluster``.
- report CSV: header ``algorithm,k,silhouette,runtime_ms,converged`` with
  silhouette at 4 decimal places.
"""

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterConfig, agglomerative, birch, gmm, kmeans, minibatch_kmeans, spectral
from .errors import ConfigError, ParseError, RadclustError, UsageError
from .features import FeatureMatrix
from .imaging import CropRect, ImageGray
from .metrics import silhouette_batch
from .numerics import RngStream, mix_seed

MANIFEST_HEADER = ["path", "crop_x", "crop_y", "crop_w", "crop_h", "age", "sex"]
SEX_TOKENS = {"M": "M", "F": "F", "unknown": "unknown", "": "unknown"}
_MAX_LABEL = int(np.iinfo(np.intp).max)

# Table order of the nine variants: slug, display name, runner.
ALGORITHMS = [
    ("kmeans", "K-Means", kmeans),
    ("minibatch-kmeans", "Mini batch K-means", minibatch_kmeans),
    ("spectral", "Spectral clustering", spectral),
    ("agglomerative-ward", "Agglomerative Ward clustering",
     lambda x, cfg: agglomerative(x, cfg, linkage="ward")),
    ("agglomerative-average", "Agglomerative average clustering",
     lambda x, cfg: agglomerative(x, cfg, linkage="average")),
    ("birch", "Birch clustering", birch),
    ("gmm-tied", "Gaussian mixture (Tied)", lambda x, cfg: gmm(x, cfg, mode="tied")),
    ("gmm-diag", "Gaussian mixture (Diag)", lambda x, cfg: gmm(x, cfg, mode="diag")),
    ("gmm-full", "Gaussian mixture (Full)", lambda x, cfg: gmm(x, cfg, mode="full")),
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


def _decode(data):
    return data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data


def read_manifest(data):
    """Parse a manifest CSV into entries; errors carry the 1-based line number."""
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise ParseError(
            f"manifest header must be {','.join(MANIFEST_HEADER)!r}", line=1
        )
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or row == [""]:
            continue
        if len(row) != len(MANIFEST_HEADER):
            raise ParseError(
                f"manifest line {lineno} has {len(row)} fields, expected {len(MANIFEST_HEADER)}",
                line=lineno,
            )
        path, cx, cy, cw, ch, age, sex = (f.strip() for f in row)
        if not path:
            raise ParseError(f"manifest line {lineno}: empty path", line=lineno)
        crop_fields = [cx, cy, cw, ch]
        if any(crop_fields) and not all(crop_fields):
            raise ParseError(
                f"manifest line {lineno}: crop needs all of crop_x,crop_y,crop_w,crop_h",
                line=lineno,
            )
        crop = None
        if all(crop_fields):
            try:
                crop = CropRect(int(cx), int(cy), int(cw), int(ch))
            except ValueError:
                raise ParseError(
                    f"manifest line {lineno}: non-numeric crop field", line=lineno
                ) from None
        age_value = None
        if age:
            try:
                age_value = float(age)
            except ValueError:
                raise ParseError(
                    f"manifest line {lineno}: field age is not numeric ({age!r})",
                    line=lineno,
                ) from None
            if not 0.0 <= age_value <= 130.0:
                raise ParseError(
                    f"manifest line {lineno}: age {age_value} outside [0, 130]",
                    line=lineno,
                )
        if sex not in SEX_TOKENS:
            raise ParseError(
                f"manifest line {lineno}: unknown sex token {sex!r} "
                f"(expected M, F, unknown, or empty)",
                line=lineno,
            )
        entries.append(
            ManifestEntry(path=path, crop=crop, age=age_value, sex=SEX_TOKENS[sex])
        )
    return entries


def write_manifest(entries):
    """Serialize entries back to manifest CSV bytes."""
    lines = [",".join(MANIFEST_HEADER)]
    for e in entries:
        crop = (
            [str(e.crop.x), str(e.crop.y), str(e.crop.w), str(e.crop.h)]
            if e.crop is not None
            else ["", "", "", ""]
        )
        age = "" if e.age is None else format(e.age, "g")
        sex = "" if e.sex == "unknown" else e.sex
        lines.append(",".join([e.path, *crop, age, sex]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_features(fm):
    """Feature matrix to CSV bytes at full precision (round-trips exactly)."""
    header = "id," + ",".join(f"f{i}" for i in range(fm.d))
    lines = [header]
    for i, row_id in enumerate(fm.ids):
        lines.append(row_id + "," + ",".join(repr(float(v)) for v in fm.rows[i]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_features(data):
    """Parse a feature CSV into a FeatureMatrix; errors carry line numbers."""
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ParseError("empty feature file", line=1)
    header = rows[0]
    if len(header) < 2 or header[0] != "id" or header[1:] != [f"f{i}" for i in range(len(header) - 1)]:
        raise ParseError(
            "feature header must be id,f0,...,f{d-1}", line=1
        )
    d = len(header) - 1
    ids, values, seen = [], [], set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or row == [""]:
            continue
        if len(row) != d + 1:
            raise ParseError(
                f"feature line {lineno} has {len(row) - 1} values, expected {d}",
                line=lineno,
            )
        row_id = row[0]
        if row_id in seen:
            raise ParseError(f"duplicate feature id {row_id!r}", line=lineno)
        seen.add(row_id)
        try:
            vec = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError(
                f"feature line {lineno}: non-numeric value", line=lineno
            ) from None
        if not all(np.isfinite(vec)):
            raise ParseError(
                f"feature line {lineno}: non-finite value", line=lineno
            )
        ids.append(row_id)
        values.append(vec)
    if not ids:
        raise ParseError("feature file has no data rows", line=2)
    return FeatureMatrix(rows=np.array(values, dtype=np.float64), ids=ids)


def write_labels(ids, labels):
    """Cluster assignments to labels CSV bytes (header ``id,cluster``)."""
    lines = ["id,cluster"]
    for row_id, label in zip(ids, labels):
        lines.append(f"{row_id},{int(label)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_labels(data):
    """Parse a labels CSV into (ids, label array).

    A cluster id must be a non-negative integer that fits the platform's
    index type; anything else is a ParseError carrying its line number.
    """
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["id", "cluster"]:
        raise ParseError("labels header must be 'id,cluster'", line=1)
    ids, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or row == [""]:
            continue
        if len(row) != 2:
            raise ParseError(f"labels line {lineno} must have 2 fields", line=lineno)
        try:
            label = int(row[1])
        except ValueError:
            raise ParseError(
                f"labels line {lineno}: cluster is not an integer", line=lineno
            ) from None
        if not 0 <= label <= _MAX_LABEL:
            raise ParseError(
                f"labels line {lineno}: cluster {label} outside [0, {_MAX_LABEL}]",
                line=lineno,
            )
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
    centers = np.zeros((n_blobs, d))
    for b in range(n_blobs):
        if b < d:
            centers[b, b] = separation
        else:
            centers[b, b - d] = -separation
    labels = np.repeat(np.arange(n_blobs), n_per_blob)
    n = n_blobs * n_per_blob
    noise = RngStream(seed).gaussians(n * d).reshape(n, d) * noise_sigma
    rows = centers[labels] + noise
    ids = [f"b{b}_p{j:04d}" for b in range(n_blobs) for j in range(n_per_blob)]
    return FeatureMatrix(rows=rows, ids=ids), labels


def synth_textured_images(n_per_class, size, seed):
    """Two synthetic grayscale populations: smooth-dark and speckled-bright.

    Returns (images, ids, ground-truth labels). Stands in for real scans in
    end-to-end runs and demos.
    """
    if n_per_class < 1 or size < 1:
        raise ConfigError("n_per_class and size must be >= 1")
    stream = RngStream(seed)
    images, ids, labels = [], [], []
    gradient = np.linspace(-40.0, 40.0, size)[:, None]
    for cls, (base, noise_scale) in enumerate([(90.0, 6.0), (160.0, 35.0)]):
        for j in range(n_per_class):
            noise = stream.gaussians(size * size).reshape(size, size) * noise_scale
            canvas = base + noise + (gradient if cls == 0 else 0.0)
            pixels = np.clip(np.floor(canvas + 0.5), 0.0, 255.0).astype(np.uint8)
            images.append(ImageGray(width=size, height=size, pixels=pixels))
            ids.append(f"img{cls}_{j:03d}")
            labels.append(cls)
    return images, ids, np.array(labels, dtype=np.intp)


@dataclass
class SweepConfig:
    """Which algorithms to run, over which cluster counts, and with what seed."""

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
        self.ks = sorted(set(int(k) for k in self.ks))
        if not self.ks:
            raise ConfigError("k range must not be empty")
        if self.ks[0] < 2:
            raise ConfigError(f"every k must be >= 2, got {self.ks[0]}")


@dataclass(eq=False)
class SweepRow:
    """One sweep cell: silhouette of one algorithm at one k.

    ``runtime_ms`` is the wall-clock time of the cell's fit alone; scoring
    is shared by every cell of the sweep and charged to none. A failed cell
    has a blank silhouette and ``error`` set to the exception's type name and
    message.
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


def sweep(fm, cfg: SweepConfig) -> SweepReport:
    """Fit every requested (algorithm, k) cell, then silhouette-score them all.

    Each cell gets an independent seed mixed from (sweep seed, algorithm
    index, k). The labelings of all fitted cells are scored together by
    :func:`~radclust.metrics.silhouette_batch`, so the distance row blocks
    are built once per sweep. A cell whose fit fails, or whose labels
    cannot be scored, records converged=false, a blank silhouette and the
    error; the other cells are unaffected.
    """
    if cfg.ks[-1] > fm.n:
        raise ConfigError(f"largest k {cfg.ks[-1]} exceeds sample count {fm.n}")
    rows = []
    fitted = []  # (row, labels) of every cell whose fit succeeded
    for algo_index, (slug, display, runner) in enumerate(ALGORITHMS):
        if slug not in cfg.algorithms:
            continue
        for k in cfg.ks:
            cell_cfg = ClusterConfig(
                k=k, seed=mix_seed(cfg.seed, algo_index, k), **cfg.knobs
            )
            start = time.perf_counter()
            error = result = None
            try:
                result = runner(fm.rows, cell_cfg)
            except RadclustError as exc:
                error = f"{type(exc).__name__}: {exc}"
            row = SweepRow(
                algorithm=display,
                slug=slug,
                k=k,
                silhouette=None,
                runtime_ms=(time.perf_counter() - start) * 1000.0,
                converged=False,
                error=error,
            )
            rows.append(row)
            if result is not None:
                row.converged = bool(result.converged)
                fitted.append((row, result.labels))

    scores = silhouette_batch(fm.rows, [labels for _, labels in fitted])
    for (row, _), score in zip(fitted, scores):
        if isinstance(score, RadclustError):
            row.converged = False
            row.error = f"{type(score).__name__}: {score}"
        else:
            row.silhouette = score.mean
    return SweepReport(rows=rows)


def render_report_csv(report, include_runtime=False):
    """Render a sweep report as CSV bytes, silhouette at 4 decimal places.

    Runtime cells are blank unless ``include_runtime`` is set: wall-clock
    values would break the guarantee that equal seeds produce byte-identical
    reports. The measured values stay available on the SweepRow objects.
    """
    lines = ["algorithm,k,silhouette,runtime_ms,converged"]
    for row in report.rows:
        score = "" if row.silhouette is None else f"{row.silhouette:.4f}"
        runtime = f"{row.runtime_ms:.0f}" if include_runtime else ""
        converged = "true" if row.converged else "false"
        lines.append(f"{row.algorithm},{row.k},{score},{runtime},{converged}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _chart_series(report):
    """Per-algorithm lists of (k, silhouette), in first-appearance order."""
    series = {}
    order = []
    for row in report.rows:
        if row.algorithm not in series:
            series[row.algorithm] = []
            order.append(row.algorithm)
        series[row.algorithm].append((row.k, row.silhouette))
    return [(name, series[name]) for name in order]


def render_chart_svg(report):
    """Standalone SVG: one polyline per algorithm, k against mean silhouette.

    The y axis is fixed to [0, 1]. Cells with a blank silhouette leave gaps;
    isolated points are drawn as circle markers.
    """
    width, height = 760, 480
    left, right, top, bottom = 70, 540, 40, 430
    series = _chart_series(report)
    ks = sorted({row.k for row in report.rows})
    if not ks:
        ks = [2]
    k_min, k_max = min(ks), max(ks)
    span = (k_max - k_min) or 1

    def sx(k):
        return left + (right - left) * (k - k_min) / span

    def sy(v):
        return bottom - (bottom - top) * v

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="22" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">Mean silhouette by cluster count</text>',
    ]
    for tick in range(6):
        v = tick / 5.0
        y = sy(v)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{right}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
    for k in ks:
        x = sx(k)
        parts.append(
            f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 5}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{k}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 36}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">clusters</text>'
    )
    parts.append(
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">silhouette</text>'
    )

    for index, (name, points) in enumerate(series):
        color = _CHART_COLORS[index % len(_CHART_COLORS)]
        runs, current = [], []
        for k, v in points:
            if v is None:
                if current:
                    runs.append(current)
                current = []
            else:
                current.append((k, min(max(v, 0.0), 1.0)))
        if current:
            runs.append(current)
        for run in runs:
            if len(run) >= 2:
                coords = " ".join(f"{sx(k):.1f},{sy(v):.1f}" for k, v in run)
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    'stroke-width="2"/>'
                )
            else:
                k, v = run[0]
                parts.append(
                    f'<circle cx="{sx(k):.1f}" cy="{sy(v):.1f}" r="3.5" fill="{color}"/>'
                )
        ly = 50 + index * 22
        parts.append(
            f'<rect x="{right + 20}" y="{ly - 9}" width="14" height="14" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{right + 40}" y="{ly + 2}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
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
