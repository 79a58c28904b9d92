"""Forward-only convolutional feature extractor.

The network is fixed: four 3x3 same-padding convolution blocks with 64, 64,
128, and 128 filters, each followed by ReLU, dropout, and 2x2 max pooling,
then a flatten and two dense layers of 64 (ReLU) and 16 (linear) units. On a
128x128x1 input the activations run 64x64x64 -> 32x32x64 -> 16x16x128 ->
8x8x128 -> 8192 -> 64 -> 16.

There is no training here. The default weights are He-normal draws from a
seeded stream (a random-projection feature extractor); externally trained
parameters load through the weight-file format below. Dropout at inference
is the identity map, kept in the layer sequence only for fidelity to the
architecture. Weights are stored as float32 and promoted to float64 for all
arithmetic.

``forward`` applies each block as conv, max pool, dropout, ReLU: ReLU is
monotone, so it commutes with max bit for bit, and running it after the pool
touches a quarter of the values.
"""

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ShapeError
from .imaging import PixelTensor
from .numerics import RngStream

WEIGHTS_MAGIC = b"OCNN"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class CnnSpec:
    """The fixed layer topology; constructing any other shape is an error."""

    conv_filters: tuple = (64, 64, 128, 128)
    dense_widths: tuple = (64, 16)
    kernel_size: int = 3
    input_size: int = 128
    input_channels: int = 1

    def __post_init__(self):
        if tuple(self.conv_filters) != (64, 64, 128, 128):
            raise ShapeError(f"conv filter counts must be (64, 64, 128, 128), got {self.conv_filters}")
        if tuple(self.dense_widths) != (64, 16):
            raise ShapeError(f"dense widths must be (64, 16), got {self.dense_widths}")
        if (self.kernel_size, self.input_size, self.input_channels) != (3, 128, 1):
            raise ShapeError("kernel size, input size, and channels are fixed at 3, 128, 1")

    def weight_shapes(self):
        """Shapes of the six weight tensors in forward order."""
        shapes = []
        cin = self.input_channels
        for cout in self.conv_filters:
            shapes.append((cout, cin, self.kernel_size, self.kernel_size))
            cin = cout
        shapes.append((self.dense_widths[0], self.flatten_width()))
        shapes.append((self.dense_widths[1], self.dense_widths[0]))
        return shapes

    def flatten_width(self):
        side = self.input_size // (2 ** len(self.conv_filters))
        return side * side * self.conv_filters[-1]

    def shape_chain(self):
        """Activation shapes after each block, then flatten and dense widths."""
        chain = []
        side = self.input_size
        for cout in self.conv_filters:
            side //= 2
            chain.append((side, side, cout))
        chain.append(self.flatten_width())
        chain.extend(self.dense_widths)
        return chain


_LAYER_NAMES = ("conv1", "conv2", "conv3", "conv4", "dense1", "dense2")


@dataclass(eq=False)
class WeightSet:
    """All network parameters: conv kernels/biases then dense weights/biases.

    ``provenance`` records where the values came from: ``"seed:<n>"`` for
    seeded initialization or ``"external"`` for loaded files.
    """

    conv_kernels: list
    conv_biases: list
    dense_weights: list
    dense_biases: list
    provenance: str = "external"
    spec: CnnSpec = field(default_factory=CnnSpec)

    def __post_init__(self):
        if len(self.conv_kernels) != 4 or len(self.dense_weights) != 2:
            raise ShapeError("expected 4 conv kernels and 2 dense weight matrices")
        if len(self.conv_biases) != 4 or len(self.dense_biases) != 2:
            raise ShapeError("expected 4 conv biases and 2 dense bias vectors")
        for name, (w, b), expect in zip(_LAYER_NAMES, self.tensors(), self.spec.weight_shapes()):
            if w.shape != expect:
                raise ShapeError(f"weight tensor shape {w.shape} does not match {expect}")
            if b.shape != (expect[0],):
                raise ShapeError(f"bias shape {b.shape} does not match ({expect[0]},)")
            kind = "kernel" if name.startswith("conv") else "weights"
            for tensor, what in ((w, kind), (b, "bias")):
                if not np.all(np.isfinite(tensor)):
                    raise ShapeError(f"{name} {what} must be finite")

    def tensors(self):
        """(weight, bias) pairs in forward/serialization order."""
        return list(zip(
            list(self.conv_kernels) + list(self.dense_weights),
            list(self.conv_biases) + list(self.dense_biases),
        ))


@dataclass(eq=False)
class FeatureVector:
    """One image's 16-dimensional embedding."""

    values: np.ndarray
    image_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (16,):
            raise ShapeError(f"feature vector must have length 16, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("feature vector must be finite")
        self.values = v


def conv2d(x, kernels, biases):
    """Same-padding stride-1 cross-correlation of (h, w, cin) with (cout, cin, kh, kw).

    The input is zero-padded channel-first into (cin, h + 2*py, w + 2*px), and
    the im2col matrix is built as (cin, kh, kw, h, w) from kh*kw shifted-slice
    copies, each with contiguous rows. One GEMM, ``kernels (cout, cin*kh*kw) @
    cols (cin*kh*kw, h*w)``, then gives every output; the bias is added in
    place. The columns keep the kernel's (cin, kh, kw) order. The result is an
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
    cols = np.empty((cin, kh, kw, h, w))
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = padded[:, dy:dy + h, dx:dx + w]
    out = kernels.reshape(cout, -1) @ cols.reshape(cin * kh * kw, h * w)
    out += biases[:, None]
    return out.reshape(cout, h, w).transpose(1, 2, 0)


def relu(t):
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(t, dtype=np.float64), 0.0)


def dropout(t, rate=0.5):
    """Inference-time dropout: the identity map, with no rescaling."""
    return t


def maxpool2d(t):
    """Non-overlapping 2x2 max pooling, stride 2, per channel, of an (h, w, c) tensor.

    The result is the elementwise max of the four stride-2 slices, so any
    memory layout of ``t`` (a transposed view from :func:`conv2d` included)
    is read in place; the output keeps that layout. Max is exact, so the
    value does not depend on the order the four slices are combined.
    """
    t = np.asarray(t, dtype=np.float64)
    h, w, c = t.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max pooling needs even spatial dims, got {h}x{w}")
    return np.maximum(
        np.maximum(t[0::2, 0::2], t[0::2, 1::2]),
        np.maximum(t[1::2, 0::2], t[1::2, 1::2]),
    )


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

    Draw order is fixed: conv blocks 1-4 then the two dense layers, each
    tensor filled in C order. fan_in is kh*kw*cin for convolutions and the
    input width for dense layers.
    """
    stream = RngStream(seed)
    conv_kernels, conv_biases, dense_weights, dense_biases = [], [], [], []
    for shape in spec.weight_shapes():
        if len(shape) == 4:
            fan_in = shape[1] * shape[2] * shape[3]
        else:
            fan_in = shape[1]
        std = math.sqrt(2.0 / fan_in)
        values = (stream.gaussians(int(np.prod(shape))) * std).astype(np.float32)
        tensor = values.reshape(shape)
        bias = np.zeros(shape[0], dtype=np.float32)
        if len(shape) == 4:
            conv_kernels.append(tensor)
            conv_biases.append(bias)
        else:
            dense_weights.append(tensor)
            dense_biases.append(bias)
    return WeightSet(
        conv_kernels=conv_kernels,
        conv_biases=conv_biases,
        dense_weights=dense_weights,
        dense_biases=dense_biases,
        provenance=f"seed:{seed}",
        spec=spec,
    )


def forward(t, weights, image_id="", return_activations=False):
    """Run the network on a (128, 128, 1) tensor and return a FeatureVector.

    With ``return_activations=True`` also returns the list of post-block
    activations plus the flatten and dense outputs, for shape inspection.
    """
    x = t.values if isinstance(t, PixelTensor) else np.asarray(t, dtype=np.float64)
    spec = weights.spec
    expect = (spec.input_size, spec.input_size, spec.input_channels)
    if x.shape != expect:
        raise ShapeError(f"input tensor shape {x.shape} does not match {expect}")
    x = x.astype(np.float64)
    activations = []
    for kernel, bias in zip(weights.conv_kernels, weights.conv_biases):
        x = relu(dropout(maxpool2d(conv2d(x, kernel, bias))))
        activations.append(x)
    flat = flatten(x)
    activations.append(flat)
    hidden = relu(dense(flat, weights.dense_weights[0], weights.dense_biases[0]))
    activations.append(hidden)
    out = dense(hidden, weights.dense_weights[1], weights.dense_biases[1])
    activations.append(out)
    fv = FeatureVector(values=out, image_id=image_id)
    if return_activations:
        return fv, activations
    return fv


def save_weights(weights):
    """Serialize a WeightSet to bytes.

    Layout, all little-endian: magic ``OCNN``, version byte 0x01, u32 layer
    count, then per layer a u32 ndim and u32 dims; then the raw float32
    payloads (each layer's weight tensor followed by its bias) in declared
    order; then a u32 CRC32 of the payload bytes.
    """
    parts = [WEIGHTS_MAGIC, struct.pack("<B", WEIGHTS_VERSION)]
    tensors = weights.tensors()
    parts.append(struct.pack("<I", len(tensors)))
    for w, _ in tensors:
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
    payload = b"".join(
        np.ascontiguousarray(w, dtype="<f4").tobytes()
        + np.ascontiguousarray(b, dtype="<f4").tobytes()
        for w, b in tensors
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

    The shape table must match the fixed topology exactly; any deviation is
    reported as a shape-table error with the offending layer. A NaN or
    infinite float32 anywhere in the payload (weights or biases) is a
    ParseError naming its layer, with ``offset`` at the value's first byte.
    """
    data = bytes(data)
    spec = CnnSpec()
    if data[:4] != WEIGHTS_MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}, expected {WEIGHTS_MAGIC!r}", offset=0)
    pos = 4
    raw, pos = _take(data, pos, 1, "version")
    version = raw[0]
    if version != WEIGHTS_VERSION:
        raise ParseError(f"unsupported weight file version {version}", offset=4)
    raw, pos = _take(data, pos, 4, "layer count")
    (count,) = struct.unpack("<I", raw)
    expected = spec.weight_shapes()
    if count != len(expected):
        raise ParseError(
            f"shape table declares {count} layers, expected {len(expected)}", offset=5
        )
    shapes = []
    for i in range(count):
        raw, pos = _take(data, pos, 4, f"layer {i} ndim")
        (ndim,) = struct.unpack("<I", raw)
        if ndim != len(expected[i]):
            raise ParseError(
                f"shape table: layer {i} has {ndim} dims, expected {len(expected[i])}",
                offset=pos - 4,
            )
        raw, pos = _take(data, pos, 4 * ndim, f"layer {i} dims")
        dims = struct.unpack(f"<{ndim}I", raw)
        if dims != expected[i]:
            raise ParseError(
                f"shape table: layer {i} shape {dims} does not match {expected[i]}",
                offset=pos - 4 * ndim,
            )
        shapes.append(dims)
    sizes = [int(np.prod(s)) + s[0] for s in shapes]
    payload_len = 4 * sum(sizes)
    start = pos
    payload, pos = _take(data, pos, payload_len, "payload")
    raw, pos = _take(data, pos, 4, "checksum")
    (crc,) = struct.unpack("<I", raw)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ParseError("payload checksum mismatch", offset=pos - 4)
    bad = np.flatnonzero(~np.isfinite(np.frombuffer(payload, dtype="<f4")))
    if bad.size:
        layer = int(np.searchsorted(np.cumsum(sizes), bad[0], side="right"))
        offset = start + 4 * int(bad[0])
        raise ParseError(
            f"layer {layer} holds a non-finite float32 at byte {offset}", offset=offset
        )
    conv_kernels, conv_biases, dense_weights, dense_biases = [], [], [], []
    at = 0
    for s in shapes:
        wn = int(np.prod(s))
        w = np.frombuffer(payload, dtype="<f4", count=wn, offset=at).reshape(s).copy()
        at += 4 * wn
        b = np.frombuffer(payload, dtype="<f4", count=s[0], offset=at).copy()
        at += 4 * s[0]
        if len(s) == 4:
            conv_kernels.append(w)
            conv_biases.append(b)
        else:
            dense_weights.append(w)
            dense_biases.append(b)
    return WeightSet(
        conv_kernels=conv_kernels,
        conv_biases=conv_biases,
        dense_weights=dense_weights,
        dense_biases=dense_biases,
        provenance="external",
        spec=spec,
    )
