"""Forward-only convolutional feature extractor with one fixed topology.

The topology is written once, as the module constants below and the layer
table :data:`LAYERS` derived from them: one ``(name, weight shape)`` pair per
weighted layer, in forward order, which is also the order of the weight file.
Four 3x3 same-padding convolutions (``conv1``-``conv4``, 64, 64, 128 and 128
filters) each run conv, 2x2 max pool, ReLU; a flatten feeds two dense layers
(``dense1``, 64 units with ReLU; ``dense2``, 16 linear units).
On a 128x128x1 input the activations run 64x64x64 -> 32x32x64 -> 16x16x128
-> 8x8x128 -> 8192 -> 64 -> 16. :class:`CnnSpec`, :class:`WeightSet`,
:func:`init_weights`, :func:`forward` and the weight file all read the
table. The weight file's 113-byte header holds nothing but the table, so it
is one constant built from it: :func:`save_weights` writes it and
:func:`load_weights` compares a file's first bytes with it, refusing a
difference at the first differing byte.

There is no training here. The default weights are He-normal draws from a
seeded stream (a random-projection feature extractor); externally trained
parameters load through the weight-file format below. The architecture's
dropout after each pool is the identity at inference, so no stage runs for
it. Weights are stored as float32 and promoted to float64 for all
arithmetic.

Each block runs as one banded step (:func:`_conv_block`). For a band of
conv output rows it copies the band's im2col matrix out of the block's
zero-bordered, channel-first input, runs one GEMM and adds the bias, then
writes the band's 2x2 max and ReLU straight into the interior of the next
block's zero-bordered input. So no full-resolution conv output and no
separate padded copy is ever built, and ``dense1`` promotes its float32
weights a few rows at a time. One forward on a 128x128 input peaks at about
3.7 MiB of tracemalloc'd memory: conv2's 2.1 MiB bordered input, its pooled
output and a band's im2col and GEMM buffers. :data:`_BAND` bounds only
those bands and ``dense``'s weight promotion. The blocks are the module's
only convolution and pooling; on the network's shapes their bands give the
bits of the plain one-GEMM im2col form (one copy of the whole im2col matrix,
one GEMM), pooled and clamped. Each block pools before its ReLU: ReLU is
monotone, so it commutes with max bit for bit, and running it after the pool
touches a quarter of the values.
"""

import itertools
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
# entries of a block band's im2col matrix or GEMM output, whichever is larger,
# and of a band of dense weights promoted to float64 (1 MiB of float64):
# conv2's whole im2col matrix would be 18.9 MB, once per image in flight.
_BAND = 1 << 17
_PAD = KERNEL_SIZE // 2  # the zero border of a same-padding block input


class CnnSpec:
    """The network's one topology, read from :data:`LAYERS`; ``CnnSpec()`` takes no arguments."""

    def weight_shapes(self):
        """The weight shape of each :data:`LAYERS` row, in forward order."""
        return [shape for _, shape in LAYERS]


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


def _conv_block(padded, kernels, biases):
    """One conv -> 2x2 max pool -> ReLU block, fused per band of output rows.

    Takes the zero-bordered channel-first (cin, h + kh - 1, w + kw - 1) input
    of a same-padding convolution with (cout, cin, kh, kw) kernels, h and w
    even, and returns the next block's input: a zero-bordered (cout, h/2 +
    2*p, w/2 + 2*p) array (p = :data:`_PAD`) whose interior holds this
    block's activations.

    The h/2 pairs of output rows are cut into the fewest bands of near-equal
    height in which the larger of the band's im2col matrix (cin*kh*kw,
    rows*w) and its GEMM output (cout, rows*w) holds at most :data:`_BAND`
    entries. Each band's sliding windows are copied into one reused buffer
    in pooled column order: all top-left members of the band's 2x2 pooling
    windows, then the top-right, bottom-left and bottom-right ones. One GEMM,
    ``kernels (cout, cin*kh*kw) @ cols``, writes a second reused buffer, the
    bias is added in place, one max reduction folds each window's four
    members, and one ``np.maximum`` clamps as :func:`relu` does, straight
    into the band's rows of the interior. Few array calls per band matter:
    each can hand the GIL to the other image threads.

    A band's GEMM gives the bits of the same columns of one GEMM over the
    whole matrix when the BLAS runs both on the same kernels. It does on the
    network's shapes, whose rows are multiples of 16 values and whose bands
    stay large (M*N*K is 1.18e6 for conv1's 16-row bands, at least 4.7e6
    elsewhere), so the bits are those of the one-GEMM im2col form: the whole
    (cin*kh*kw, h*w) matrix in one copy, one GEMM and the bias, then the
    exact 2x2 max and ReLU. Elsewhere a narrow or small band can take another
    kernel (OpenBLAS has one for small matrices) and move the last bits.
    """
    cin, hp, wp = padded.shape
    cout, _, kh, kw = kernels.shape
    taps, pairs, half = cin * kh * kw, (hp - kh + 1) // 2, (wp - kw + 1) // 2
    bands = -(-pairs // max(1, _BAND // (max(taps, cout) * 4 * half)))
    edges = [pairs * i // bands for i in range(bands + 1)]
    size = 4 * -(-pairs // bands) * half  # GEMM columns of the tallest band
    cols_buffer, out_buffer = np.empty(taps * size), np.empty(cout * size)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    # (cin, kh, kw, row in window, column in window, window row, window column)
    windows = windows.reshape(cin, pairs, 2, half, 2, kh, kw).transpose(0, 5, 6, 2, 4, 1, 3)
    flat = np.asarray(kernels, dtype=np.float64).reshape(cout, taps)
    bias = np.asarray(biases, dtype=np.float64)[:, None]
    nxt = np.zeros((cout, pairs + 2 * _PAD, half + 2 * _PAD))
    for top, bottom in zip(edges, edges[1:]):
        view = windows[..., top:bottom, :]
        cols = cols_buffer[:view.size].reshape(view.shape)
        cols[...] = view
        out = out_buffer[:cout * view.size // taps].reshape(cout, -1)
        np.matmul(flat, cols.reshape(taps, -1), out=out)
        out += bias
        rows = nxt[:, _PAD + top:_PAD + bottom, _PAD:_PAD + half]
        np.maximum.reduce(out.reshape(cout, 4, bottom - top, half), axis=1, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return nxt


def relu(t):
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(t, dtype=np.float64), 0.0)


def dense(v, w, b):
    """Affine map W @ v + b.

    ``W`` is promoted to float64 a band of rows at a time, each band at most
    :data:`_BAND` entries (1 MiB), so a float32 ``dense1`` is never copied
    whole. Each band is one matrix-vector product into its rows of the
    output; every output value is one row's dot product, so on the
    network's shapes the bits are those of the whole ``W @ v``. Unless
    ``W`` is 2-D, ``v`` a vector of one value per column of ``W`` and ``b``
    one of one value per row, it raises :class:`ShapeError`.
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or v.shape != w.shape[1:] or b.shape != w.shape[:1]:
        raise ShapeError(f"dense layer of weights {w.shape} cannot take input {v.shape} "
                         f"and bias {b.shape}")
    out = np.empty(w.shape[0])
    step = max(1, _BAND // max(1, w.shape[1]))
    for lo in range(0, w.shape[0], step):
        np.matmul(np.asarray(w[lo:lo + step], dtype=np.float64), v, out=out[lo:lo + step])
    out += b
    return out


def flatten(t):
    """Flatten an (h, w, c) tensor channel-major, then row, then column: index = c*h*w + y*w + x."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"flatten needs an (h, w, c) tensor, got shape {t.shape}")
    return np.transpose(t, (2, 0, 1)).ravel()


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
    side = INPUT_SHAPE[0]
    padded = np.zeros((INPUT_SHAPE[2], side + 2 * _PAD, side + 2 * _PAD))
    padded[:, _PAD:_PAD + side, _PAD:_PAD + side] = x.transpose(2, 0, 1)
    activations = []
    for kernel, bias in weights.layers[:_CONV]:
        padded = _conv_block(padded, kernel, bias)
        side //= 2
        x = padded[:, _PAD:_PAD + side, _PAD:_PAD + side].transpose(1, 2, 0)
        if return_activations:  # otherwise each block's buffer is freed after the next
            activations.append(x)
    (w1, b1), (w2, b2) = weights.layers[_CONV:]
    flat = flatten(x)
    hidden = relu(dense(flat, w1, b1))
    out = dense(hidden, w2, b2)
    activations += [flat, hidden, out]
    fv = FeatureVector(values=out)
    return (fv, activations) if return_activations else fv


def _header():
    """The weight file's header, built from :data:`LAYERS`, and its fields.

    The fields are (first byte, name, expected value) triples, in file order.
    """
    fields = [("magic", WEIGHTS_MAGIC, WEIGHTS_MAGIC),
              ("version", WEIGHTS_VERSION, bytes([WEIGHTS_VERSION])),
              ("layer count", len(LAYERS), struct.pack("<I", len(LAYERS)))]
    fields += [(f"shape table entry of layer {i}", shape,
                struct.pack(f"<{len(shape) + 1}I", len(shape), *shape))
               for i, (_, shape) in enumerate(LAYERS)]
    names, values, raws = zip(*fields)
    return b"".join(raws), tuple(zip(itertools.accumulate(map(len, raws), initial=0), names, values))


_HEADER, _HEADER_FIELDS = _header()  # 113 bytes
# the float32 count up to the end of each layer's weight tensor, then of its bias
_PAYLOAD_ENDS = np.cumsum([n for _, shape in LAYERS for n in (math.prod(shape), shape[0])])
_FILE_SIZE = len(_HEADER) + 4 * int(_PAYLOAD_ENDS[-1]) + 4  # 3,137,717 bytes with the CRC


def save_weights(weights):
    """Serialize a WeightSet to bytes: the fixed header, the payload, its CRC.

    Layout, all little-endian: magic ``OCNN``, version byte 0x01, u32 layer
    count, then per :data:`LAYERS` row a u32 ndim and u32 dims; then the raw
    float32 payloads (each layer's weight tensor followed by its bias) in
    declared order; then a u32 CRC32 of the payload bytes. The header holds
    nothing but the network's topology, so it is one constant, the same
    113 bytes in every file.
    """
    payload = b"".join(
        np.ascontiguousarray(w, dtype="<f4").tobytes()
        + np.ascontiguousarray(b, dtype="<f4").tobytes()
        for w, b in weights.layers
    )
    return _HEADER + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def load_weights(data):
    """Parse bytes produced by :func:`save_weights` back into a WeightSet.

    The file's first 113 bytes must be the header :func:`save_weights`
    writes. A difference is a ParseError at the first differing byte, naming
    its field (magic, version, layer count or a layer's shape table entry)
    and the value the field must hold; a file that stops inside the header
    but agrees with it so far is truncated at its length. Then the file must
    be 3,137,717 bytes long: a shorter one is truncated at its length, and a
    longer one has unexpected data after the checksum, at the first extra
    byte. A payload whose CRC32 differs is a checksum mismatch. A NaN or
    infinite float32 anywhere in the payload (weights or biases) is a
    ParseError naming its layer, with ``offset`` at the value's first byte.
    """
    data = bytes(data)
    head = data[:len(_HEADER)]
    if head != _HEADER:
        at = next((i for i, (a, b) in enumerate(zip(head, _HEADER)) if a != b), len(head))
        _, name, value = [field for field in _HEADER_FIELDS if field[0] <= at][-1]
        if at == len(data):
            raise ParseError(f"truncated weight stream at byte {at} while reading {name}", offset=at)
        raise ParseError(f"weight file header differs at byte {at}: {name} must be {value!r}",
                         offset=at)
    if len(data) < _FILE_SIZE:
        raise ParseError(f"truncated weight stream at byte {len(data)}", offset=len(data))
    if len(data) > _FILE_SIZE:
        raise ParseError(f"unexpected data after the checksum at byte {_FILE_SIZE}",
                         offset=_FILE_SIZE)
    payload = data[len(_HEADER):-4]
    if data[-4:] != struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF):
        raise ParseError("payload checksum mismatch", offset=_FILE_SIZE - 4)
    floats = np.frombuffer(payload, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        layer = int(np.searchsorted(_PAYLOAD_ENDS, bad[0], side="right")) // 2
        at = len(_HEADER) + 4 * int(bad[0])
        raise ParseError(f"layer {layer} holds a non-finite float32 at byte {at}", offset=at)
    parts = np.split(floats.copy(), _PAYLOAD_ENDS[:-1])
    pairs = zip(parts[0::2], parts[1::2], LAYERS)
    return WeightSet([(w.reshape(shape), b) for w, b, (_, shape) in pairs])
