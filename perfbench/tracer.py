"""Per-layer tracing from outside the program.

The tracer replaces radclust's public functions with timing wrappers at every
module attribute that refers to them, so callers that imported a name with
``from .x import f`` are traced too. Each call becomes a span (name, start,
end, parent span, attributes); spans stay in memory and are folded into the
per-layer metrics after the pass. :meth:`Tracer.restore` puts every original
back.

Nothing under ``src/`` knows about this module. A target that a later
version of the program no longer has, or no longer calls, reports 0.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from stats import percentile

MIB = float(1 << 20)

CLI_COMMANDS = ("preprocess", "extract", "cluster", "evaluate", "sweep")
SLUGS = (
    "kmeans", "minibatch-kmeans", "spectral", "agglomerative-ward",
    "agglomerative-average", "birch", "gmm-tied", "gmm-diag", "gmm-full",
)
IMAGING_FUNCS = ("load_pgm", "crop", "resize", "normalize", "save_pgm")
CONV_BLOCKS = 4


def _per_layer_units():
    units = {}
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.ms"] = "ms"
    for fn in IMAGING_FUNCS:
        units[f"imaging.{fn}.ms"] = "ms"
    units["imaging.bytes_read_mb"] = "MiB"
    units.update({
        "cnn.load_weights.ms": "ms",
        "cnn.forward.ms": "ms",
        "cnn.forward.calls": "count",
        "cnn.forward.p50_ms": "ms",
        "cnn.forward.p90_ms": "ms",
    })
    for b in range(1, CONV_BLOCKS + 1):
        units[f"cnn.conv{b}.ms"] = "ms"
        units[f"cnn.conv{b}.gflop"] = "GFLOP"
        units[f"cnn.conv{b}.im2col_mb"] = "MiB"
    units.update({
        "cnn.dense.ms": "ms",
        "cnn.conv.gflop": "GFLOP",
        "cnn.conv.gflops": "GFLOP/s",
        "cnn.im2col_mb": "MiB",
    })
    for fn in ("sym_eigen", "pairwise_distances", "cholesky"):
        units[f"numerics.{fn}.ms"] = "ms"
        units[f"numerics.{fn}.calls"] = "count"
    units["numerics.pairwise_distances.computed_mb"] = "MiB"
    for slug in SLUGS:
        units[f"clustering.{slug}.fit_ms"] = "ms"
        units[f"clustering.{slug}.self_ms"] = "ms"
        units[f"clustering.{slug}.iterations"] = "count"
        units[f"clustering.{slug}.converged_ratio"] = "ratio"
    units.update({
        "clustering.kmeans.inner_calls": "count",
        "clustering.kmeans.inner_ms": "ms",
        "metrics.silhouette.ms": "ms",
        "metrics.silhouette.calls": "count",
        "metrics.silhouette.computed_mb": "MiB",
        "pipeline.sweep.ms": "ms",
        "pipeline.sweep.self_ms": "ms",
        "pipeline.read_features.ms": "ms",
        "pipeline.write_features.ms": "ms",
        "pipeline.render.ms": "ms",
        "pipeline.cells": "count",
        "pipeline.failed_cells": "count",
        "trace.overhead_s": "s",
    })
    return units


# Every per-layer metric, in report order, with its unit. BENCHMARK.json's
# ``per_layer`` list is this table.
PER_LAYER_UNITS = _per_layer_units()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start


def _rows_squared_bytes(args):
    """n*n*8 bytes: the float64 n x n matrix a distance or silhouette call
    materialises for n input rows."""
    n = len(args[0])
    return {"bytes": n * n * 8}


def _conv_counts(args):
    h, w, cin = args[0].shape
    cout, _, kh, kw = args[1].shape
    return {
        "flop": 2 * h * w * cout * cin * kh * kw,
        "im2col_bytes": h * w * cin * kh * kw * 8,
    }


class Tracer:
    """Wraps radclust's public functions; collects spans until restored."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._cnn_layer = 0

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """``name`` is a string or a no-argument callable evaluated per call;
        ``before(args)`` and ``after(result)`` return span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if before is not None:
                span.attrs.update(before(args))
            if after is not None:
                span.attrs.update(after(result))
            return result

        return traced

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "radclust" or mod_name.startswith("radclust.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _target(self, module_name, attr, name, before=None, after=None):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if callable(original):
            self._replace_everywhere(original, self.wrap(original, name, before, after))

    def _next_conv(self):
        self._cnn_layer += 1
        return f"cnn.conv{self._cnn_layer}"

    def _cnn_current(self):
        if 1 <= self._cnn_layer <= CONV_BLOCKS:
            return f"cnn.conv{self._cnn_layer}"
        return "cnn.dense"

    def _forward_name(self):
        self._cnn_layer = 0
        return "cnn.forward"

    def _dense_name(self):
        self._cnn_layer = CONV_BLOCKS + 1
        return "cnn.dense"

    def install(self):
        """Wrap every target; radclust and its submodules must be imported."""
        for fn in IMAGING_FUNCS:
            self._target("radclust.imaging", fn, f"imaging.{fn}",
                         before=(lambda a: {"bytes": len(a[0])}) if fn == "load_pgm" else None)
        self._target("radclust.cnn", "load_weights", "cnn.load_weights")
        self._target("radclust.cnn", "forward", self._forward_name)
        self._target("radclust.cnn", "conv2d", self._next_conv, before=_conv_counts)
        self._target("radclust.cnn", "relu", self._cnn_current)
        self._target("radclust.cnn", "maxpool2d", self._cnn_current)
        self._target("radclust.cnn", "dense", self._dense_name)
        self._target("radclust.numerics", "sym_eigen", "numerics.sym_eigen")
        self._target("radclust.numerics", "pairwise_distances", "numerics.pairwise_distances",
                     before=_rows_squared_bytes)
        self._target("radclust.numerics", "cholesky", "numerics.cholesky")
        # Named lookups of kmeans come from spectral, BIRCH and GMM; the
        # top-level kmeans cell is reached through the ALGORITHMS table.
        self._target("radclust.clustering.kmeans", "kmeans", "clustering.kmeans.inner")
        self._target("radclust.metrics", "silhouette", "metrics.silhouette",
                     before=_rows_squared_bytes)
        self._target("radclust.pipeline", "sweep", "pipeline.sweep", after=lambda r: {
            "cells": len(r.rows),
            "failed": sum(row.silhouette is None for row in r.rows),
        })
        for fn in ("read_features", "write_features"):
            self._target("radclust.pipeline", fn, f"pipeline.{fn}")
        for fn in ("render_report_csv", "render_chart_svg"):
            self._target("radclust.pipeline", fn, "pipeline.render")
        pipeline = sys.modules.get("radclust.pipeline")
        table = getattr(pipeline, "ALGORITHMS", None)
        if table is not None:
            self._patches.append((table, slice(None), list(table)))
            table[:] = [
                (slug, display, self.wrap(runner, f"clustering.{slug}", after=lambda r: {
                    "iterations": int(r.iterations),
                    "converged": bool(r.converged),
                }))
                for slug, display, runner in table
            ]

    def restore(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(key, slice):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def layer_metrics(spans):
    """Fold spans into every per-layer metric except ``trace.overhead_s``.

    ``.ms`` values are totals over the spans; ``self_ms`` subtracts the time
    covered by direct child spans. A layer with no spans reports 0.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def total_ms(name):
        return sum(spans[i].seconds for i in by_name[name]) * 1000.0

    def self_ms(name):
        return sum(spans[i].seconds - child_seconds[i] for i in by_name[name]) * 1000.0

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.ms"] = total_ms(f"cli.{cmd}")
    for fn in IMAGING_FUNCS:
        m[f"imaging.{fn}.ms"] = total_ms(f"imaging.{fn}")
    m["imaging.bytes_read_mb"] = attr_sum("imaging.load_pgm", "bytes") / MIB

    forward_ms = [spans[i].seconds * 1000.0 for i in by_name["cnn.forward"]]
    images = len(forward_ms)
    m["cnn.load_weights.ms"] = total_ms("cnn.load_weights")
    m["cnn.forward.ms"] = sum(forward_ms)
    m["cnn.forward.calls"] = images
    m["cnn.forward.p50_ms"] = percentile(forward_ms, 50) if forward_ms else 0.0
    m["cnn.forward.p90_ms"] = percentile(forward_ms, 90) if forward_ms else 0.0
    flop = im2col = conv_seconds = 0
    for b in range(1, CONV_BLOCKS + 1):
        name = f"cnn.conv{b}"
        block_flop = attr_sum(name, "flop")
        block_im2col = attr_sum(name, "im2col_bytes")
        m[f"{name}.ms"] = total_ms(name)
        m[f"{name}.gflop"] = block_flop / 1e9
        m[f"{name}.im2col_mb"] = block_im2col / max(images, 1) / MIB
        flop += block_flop
        im2col += block_im2col
        conv_seconds += sum(spans[i].seconds for i in by_name[name] if "flop" in spans[i].attrs)
    m["cnn.dense.ms"] = total_ms("cnn.dense")
    m["cnn.conv.gflop"] = flop / 1e9
    m["cnn.conv.gflops"] = flop / conv_seconds / 1e9 if conv_seconds else 0.0
    m["cnn.im2col_mb"] = im2col / max(images, 1) / MIB

    for fn in ("sym_eigen", "pairwise_distances", "cholesky"):
        m[f"numerics.{fn}.ms"] = total_ms(f"numerics.{fn}")
        m[f"numerics.{fn}.calls"] = calls(f"numerics.{fn}")
    m["numerics.pairwise_distances.computed_mb"] = (
        attr_sum("numerics.pairwise_distances", "bytes") / MIB
    )

    for slug in SLUGS:
        name = f"clustering.{slug}"
        fits = calls(name)
        m[f"{name}.fit_ms"] = total_ms(name)
        m[f"{name}.self_ms"] = self_ms(name)
        m[f"{name}.iterations"] = attr_sum(name, "iterations")
        m[f"{name}.converged_ratio"] = attr_sum(name, "converged") / fits if fits else 0.0
    m["clustering.kmeans.inner_calls"] = calls("clustering.kmeans.inner")
    m["clustering.kmeans.inner_ms"] = total_ms("clustering.kmeans.inner")

    m["metrics.silhouette.ms"] = total_ms("metrics.silhouette")
    m["metrics.silhouette.calls"] = calls("metrics.silhouette")
    m["metrics.silhouette.computed_mb"] = attr_sum("metrics.silhouette", "bytes") / MIB

    m["pipeline.sweep.ms"] = total_ms("pipeline.sweep")
    m["pipeline.sweep.self_ms"] = self_ms("pipeline.sweep")
    m["pipeline.read_features.ms"] = total_ms("pipeline.read_features")
    m["pipeline.write_features.ms"] = total_ms("pipeline.write_features")
    m["pipeline.render.ms"] = total_ms("pipeline.render")
    m["pipeline.cells"] = attr_sum("pipeline.sweep", "cells")
    m["pipeline.failed_cells"] = attr_sum("pipeline.sweep", "failed")
    return m
