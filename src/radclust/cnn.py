"""Forward-only convolutional feature extractor with one fixed topology.

The topology is written once, as the module constants below and the layer
table :data:`LAYERS` derived from them: one ``(name, weight shape)`` pair per
weighted layer, in forward order, which is also the order of the weight file.
Four 3x3 same-padding convolutions (``conv1``-``conv4``, 64, 64, 128 and 128
filters) each run conv, 2x2 max pool, ReLU; a flatten feeds two dense layers
(``dense1``, 64 units with ReLU; ``dense2``, 16 linear units).
On a 128x128x1 input the activations run 64x64x64 -> 32x32x64 -> 16x16x128
-> 8x8x128 -> 8192 -> 64 -> 16. :class:`CnnSpec`, :class:`WeightSet`,
:func:`init_weights`, :func:`forward` and :func:`load_weights` all read the
table.

There is no training here. The default weights are He-normal draws from a
seeded stream (a random-projection feature extractor); externally trained
parameters load through the weight-file format below. The architecture's
dropout after each pool is the identity at inference, so no stage runs for
it. Weights are stored as float32 and promoted to float64 for all
arithmetic.

Each convolution is one GEMM over an im2col matrix, made by one copy of the
padded input's 3x3 sliding windows. Each block pools before its ReLU: ReLU is
monotone, so it commutes with max bit for bit, and running it after the pool
touches a quarter of the values.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError
from .imaging import PixelTensor
from .numerics import RngStream

WEIGHTS_MAGIC = b"OCNN"
WEIGHTS_VERSION = 1

INPUT_SHAPE = (128, 128, 1)
KERNEL_SIZE = 3
CONV_FILTERS = (64, 64, 128, 128)
DENSE_WIDTHS = (64, 16)


def _layer_table():
    """(name, weight shape) per weighted layer, in forward and weight-file order."""
    layers, cin = [], INPUT_SHAPE[2]
    for i, cout in enumerate(CONV_FILTERS, 1):
        layers.append((f"conv{i}", (cout, cin, KERNEL_SIZE, KERNEL_SIZE)))
        cin = cout
    side = INPUT_SHAPE[0] >> len(CONV_FILTERS)
    width = side * side * cin
    for i, cout in enumerate(DENSE_WIDTHS, 1):
        layers.append((f"dense{i}", (cout, width)))
        width = cout
    return tuple(layers)


LAYERS = _layer_table()
_CONV = len(CONV_FILTERS)


class CnnSpec:
    """The network's one topology, read from :data:`LAYERS`; ``CnnSpec()`` takes no arguments."""

    def weight_shapes(self):
        """The weight shape of each :data:`LAYERS` row, in forward order."""
        return [shape for _, shape in LAYERS]

    def shape_chain(self):
        """Activation shapes after each block, then flatten and dense widths."""
        side, widths = INPUT_SHAPE[0], [shape[0] for _, shape in LAYERS]
        chain = [(side >> i, side >> i, cout) for i, cout in enumerate(widths[:_CONV], 1)]
        return chain + [LAYERS[_CONV][1][1]] + widths[_CONV:]


@dataclass(eq=False)
class WeightSet:
    """All network parameters, one (weight, bias) pair per :data:`LAYERS` row.

    ``layers`` holds the pairs in forward and weight-file order: the four
    conv rows, then the two dense rows. Every tensor must have its row's
    shape and hold only finite values. ``provenance`` records where the
    values came from: ``"seed:<n>"`` for seeded initialization or
    ``"external"`` for loaded files.
    """

    layers: list
    provenance: str = "external"

    def __post_init__(self):
        if len(self.layers) != len(LAYERS):
            raise ShapeError(f"expected {len(LAYERS)} (weight, bias) pairs, got {len(self.layers)}")
        for (name, expect), (w, b) in zip(LAYERS, self.layers):
            if w.shape != expect:
                raise ShapeError(f"weight tensor shape {w.shape} does not match {expect}")
            if b.shape != (expect[0],):
                raise ShapeError(f"bias shape {b.shape} does not match ({expect[0]},)")
            kind = "kernel" if name.startswith("conv") else "weights"
            for tensor, what in ((w, kind), (b, "bias")):
                if not np.all(np.isfinite(tensor)):
                    raise ShapeError(f"{name} {what} must be finite")


@dataclass(eq=False)
class FeatureVector:
    """One image's embedding: the finite output of ``dense2``, 16 float64 values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        width = DENSE_WIDTHS[-1]
        if v.shape != (width,):
            raise ShapeError(f"feature vector must have length {width}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("feature vector must be finite")
        self.values = v


def conv2d(x, kernels, biases):
    """Same-padding stride-1 cross-correlation of (h, w, cin) with (cout, cin, kh, kw).

    The input is zero-padded channel-first into (cin, h + 2*py, w + 2*px). Its
    (kh, kw) sliding windows, viewed as (cin, kh, kw, h, w), are copied once
    into the C-contiguous im2col matrix (cin*kh*kw, h*w), whose rows keep the
    kernel's (cin, kh, kw) order. One GEMM, ``kernels (cout, cin*kh*kw) @
    cols``, then gives every output; the bias is added in place. The result is an
    (h, w, cout) view of a channel-first (cout, h, w) array, not a C-contiguous
    array.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    h, w, cin = x.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise ShapeError(f"kernel expects {kcin} input channels, tensor has {cin}")
    py, px = kh // 2, kw // 2
    padded = np.zeros((cin, h + 2 * py, w + 2 * px))
    padded[:, py:py + h, px:px + w] = x.transpose(2, 0, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, h * w)
    out = kernels.reshape(cout, -1) @ cols
    out += biases[:, None]
    return out.reshape(cout, h, w).transpose(1, 2, 0)


def relu(t):
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(t, dtype=np.float64), 0.0)


def maxpool2d(t):
    """Non-overlapping 2x2 max pooling, stride 2, per channel, of an (h, w, c) tensor.

    Two elementwise maxima over stride-2 slices: column pairs first, then
    row pairs of that result. Any memory layout of ``t`` (a transposed view
    from :func:`conv2d` included) is read in place, and the output keeps
    that layout. Max is exact, so the value does not depend on the order
    the four inputs of a window are combined.
    """
    t = np.asarray(t, dtype=np.float64)
    h, w, c = t.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max pooling needs even spatial dims, got {h}x{w}")
    cols = np.maximum(t[:, 0::2], t[:, 1::2])
    return np.maximum(cols[0::2], cols[1::2])


def dense(v, w, b):
    """Affine map W @ v + b."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if v.shape[0] != w.shape[1]:
        raise ShapeError(f"dense layer expects input {w.shape[1]}, got {v.shape[0]}")
    return w @ v + b


def flatten(t):
    """Flatten channel-major, then row, then column: index = c*h*w + y*w + x."""
    return np.transpose(np.asarray(t), (2, 0, 1)).ravel()


def init_weights(spec, seed):
    """He-normal weights (std sqrt(2/fan_in)) from one seeded stream; zero biases.

    Draw order is fixed: the :data:`LAYERS` rows in order, each tensor filled
    in C order. fan_in is the product of a weight shape's trailing
    dimensions: cin*kh*kw for a convolution, the input width for a dense
    layer.
    """
    stream = RngStream(seed)
    layers = []
    for shape in spec.weight_shapes():
        std = math.sqrt(2.0 / math.prod(shape[1:]))
        values = (stream.gaussians(math.prod(shape)) * std).astype(np.float32)
        layers.append((values.reshape(shape), np.zeros(shape[0], dtype=np.float32)))
    return WeightSet(layers, provenance=f"seed:{seed}")


def forward(t, weights, return_activations=False):
    """Run the network on an :data:`INPUT_SHAPE` tensor and return a FeatureVector.

    With ``return_activations=True`` also returns the list of post-block
    activations plus the flatten and dense outputs, for shape inspection.
    """
    x = t.values if isinstance(t, PixelTensor) else np.asarray(t, dtype=np.float64)
    if x.shape != INPUT_SHAPE:
        raise ShapeError(f"input tensor shape {x.shape} does not match {INPUT_SHAPE}")
    activations = []
    for kernel, bias in weights.layers[:_CONV]:
        x = relu(maxpool2d(conv2d(x, kernel, bias)))
        activations.append(x)
    (w1, b1), (w2, b2) = weights.layers[_CONV:]
    flat = flatten(x)
    hidden = relu(dense(flat, w1, b1))
    out = dense(hidden, w2, b2)
    activations += [flat, hidden, out]
    fv = FeatureVector(values=out)
    return (fv, activations) if return_activations else fv


def save_weights(weights):
    """Serialize a WeightSet to bytes.

    Layout, all little-endian: magic ``OCNN``, version byte 0x01, u32 layer
    count, then per layer a u32 ndim and u32 dims; then the raw float32
    payloads (each layer's weight tensor followed by its bias) in declared
    order; then a u32 CRC32 of the payload bytes.
    """
    parts = [WEIGHTS_MAGIC, struct.pack("<B", WEIGHTS_VERSION)]
    parts.append(struct.pack("<I", len(weights.layers)))
    for w, _ in weights.layers:
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
    payload = b"".join(
        np.ascontiguousarray(w, dtype="<f4").tobytes()
        + np.ascontiguousarray(b, dtype="<f4").tobytes()
        for w, b in weights.layers
    )
    parts.append(payload)
    parts.append(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    return b"".join(parts)


def _take(data, pos, count, what):
    if pos + count > len(data):
        raise ParseError(
            f"truncated weight stream at byte {len(data)} while reading {what}",
            offset=len(data),
        )
    return data[pos:pos + count], pos + count


def load_weights(data):
    """Parse bytes produced by :func:`save_weights` back into a WeightSet.

    The shape table must match :data:`LAYERS` exactly; any deviation is
    reported as a shape-table error with the offending layer. A NaN or
    infinite float32 anywhere in the payload (weights or biases) is a
    ParseError naming its layer, with ``offset`` at the value's first byte.
    So is any byte after the checksum, with ``offset`` at the first one.
    """
    data = bytes(data)
    if data[:4] != WEIGHTS_MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}, expected {WEIGHTS_MAGIC!r}", offset=0)
    raw, pos = _take(data, 4, 1, "version")
    version = raw[0]
    if version != WEIGHTS_VERSION:
        raise ParseError(f"unsupported weight file version {version}", offset=4)
    raw, pos = _take(data, pos, 4, "layer count")
    (count,) = struct.unpack("<I", raw)
    expected = CnnSpec().weight_shapes()
    if count != len(expected):
        raise ParseError(
            f"shape table declares {count} layers, expected {len(expected)}", offset=5
        )
    for i, shape in enumerate(expected):
        raw, pos = _take(data, pos, 4, f"layer {i} ndim")
        (ndim,) = struct.unpack("<I", raw)
        if ndim != len(shape):
            raise ParseError(
                f"shape table: layer {i} has {ndim} dims, expected {len(shape)}",
                offset=pos - 4,
            )
        raw, pos = _take(data, pos, 4 * ndim, f"layer {i} dims")
        dims = struct.unpack(f"<{ndim}I", raw)
        if dims != shape:
            raise ParseError(
                f"shape table: layer {i} shape {dims} does not match {shape}",
                offset=pos - 4 * ndim,
            )
    # each layer's weight tensor, then its bias
    ends = np.cumsum([n for shape in expected for n in (math.prod(shape), shape[0])])
    start = pos
    payload, pos = _take(data, pos, 4 * int(ends[-1]), "payload")
    raw, pos = _take(data, pos, 4, "checksum")
    if pos < len(data):
        raise ParseError(f"unexpected data after the checksum at byte {pos}", offset=pos)
    (crc,) = struct.unpack("<I", raw)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ParseError("payload checksum mismatch", offset=pos - 4)
    floats = np.frombuffer(payload, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        layer = int(np.searchsorted(ends, bad[0], side="right")) // 2
        offset = start + 4 * int(bad[0])
        raise ParseError(
            f"layer {layer} holds a non-finite float32 at byte {offset}", offset=offset
        )
    parts = np.split(floats.copy(), ends[:-1])
    pairs = zip(parts[0::2], parts[1::2], expected)
    return WeightSet([(w.reshape(shape), b) for w, b, shape in pairs])
