"""Grayscale image loading, cropping, resizing, and normalization.

The on-disk format is binary PGM (P5, 8-bit) and nothing else, parsed and
written here without third-party codecs so preprocessing stays reproducible
down to the byte. Other formats enter the pipeline via external conversion.
All operations are pure functions over immutable inputs.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ParseError, ShapeError

_WHITESPACE = b" \t\n\r\x0b\x0c"
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*(?![^\r\n]))*([^ \t\n\r\x0b\x0c#]+)")


@dataclass(eq=False)
class ImageGray:
    """8-bit grayscale image; ``pixels`` is a row-major (height, width) array.

    ``width`` and ``height`` are ints. A uint8 array is kept as it is. Any
    other array must hold whole numbers in 0..255, or a ShapeError names the
    first bad pixel's row, column and value.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        for name in ("width", "height"):
            if type(getattr(self, name)) is not int:  # so not a bool, as in CropRect
                raise ShapeError(f"image {name} must be an int, got {getattr(self, name)!r}")
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"image dimensions must be >= 1, got {self.width}x{self.height}")
        try:
            px = np.asarray(self.pixels)
        except ValueError as exc:  # rows of differing lengths
            raise ShapeError(f"pixel rows must be one rectangular array: {exc}") from None
        if px.shape != (self.height, self.width):
            raise ShapeError(
                f"pixel array shape {px.shape} does not match {self.height}x{self.width}"
            )
        if px.dtype != np.uint8:
            bad = np.argwhere(~np.isin(px, np.arange(256)))
            if bad.size:
                row, col = bad[0]
                raise ShapeError(f"pixel at row {row}, column {col} is {px[row].tolist()[col]!r}, "
                                 "not a whole number in 0..255")
            px = px.astype(np.uint8)
        self.pixels = px


@dataclass(frozen=True)
class CropRect:
    """Axis-aligned crop window: top-left offset (x, y) and extent (w, h), all ints."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:  # so not a bool, though bool subclasses int
                raise BoundsError(f"crop {name} must be an int, got {value!r}")
        if self.w < 1 or self.h < 1:
            raise BoundsError(f"crop extent must be >= 1, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise BoundsError(f"crop offset must be >= 0, got ({self.x}, {self.y})")


@dataclass(eq=False)
class PixelTensor:
    """Unit-range float tensor of shape (height, width, 1) fed to the CNN."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 1:
            raise ShapeError(f"pixel tensor must be (h, w, 1), got {v.shape}")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ShapeError("pixel tensor values must lie in [0, 1]")
        self.values = v


def _read_token(data, pos):
    """Next header token after whitespace and '#' comments; returns (token, start, end).

    A comment runs from '#' up to CR, LF or the end of the data; a token is a
    run of bytes that are neither whitespace nor '#'. One :data:`_HEADER_TOKEN`
    match skips whitespace and comments from ``pos`` and captures the token.
    Its lookahead ends a comment only at CR, LF or the end, so backtracking
    never reads a comment's tail as a token. No match means only whitespace
    and comments were left: a ParseError at ``len(data)``.
    """
    match = _HEADER_TOKEN.match(data, pos)
    if match is None:
        raise ParseError(f"unexpected end of PGM header at byte {len(data)}", offset=len(data))
    return match[1], match.start(1), match.end(1)


def _read_int_token(data, pos, what):
    token, start, end = _read_token(data, pos)
    if not token.isdigit():
        raise ParseError(f"PGM {what} is not an integer ({token!r}) at byte {start}", offset=start)
    return int(token), start, end


def load_pgm(data):
    """Parse binary PGM (magic ``P5``, maxval <= 65535) into an :class:`ImageGray`.

    Samples are one byte for maxval < 256 and two big-endian bytes from 256
    up. With maxval other than 255 each value v is rescaled to the 0..255
    range as ``(v * 255 + maxval // 2) // maxval`` (rounded half up).

    Raises :class:`~radclust.errors.ParseError` carrying the byte offset on a
    wrong magic, an unparsable or out-of-range header field, a payload
    shorter than width*height samples, or a sample above maxval (the offset
    of its first byte).
    """
    data = bytes(data)
    if data[:2] != b"P5":
        raise ParseError(f"unsupported magic {data[:2]!r}, expected b'P5'", offset=0)
    width, wstart, pos = _read_int_token(data, 2, "width")
    height, hstart, pos = _read_int_token(data, pos, "height")
    maxval, mstart, pos = _read_int_token(data, pos, "maxval")
    if width < 1:
        raise ParseError(f"PGM width must be >= 1, got {width}", offset=wstart)
    if height < 1:
        raise ParseError(f"PGM height must be >= 1, got {height}", offset=hstart)
    if not (0 < maxval <= 65535):
        raise ParseError(f"PGM maxval must be in 1..65535, got {maxval}", offset=mstart)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError(f"expected single whitespace after maxval at byte {pos}", offset=pos)
    pos += 1
    size, dtype, unit = (1, np.uint8, "bytes") if maxval < 256 else (2, ">u2", "2-byte samples")
    need = width * height
    payload = data[pos:pos + size * need]
    if len(payload) < size * need:
        raise ParseError(
            f"truncated PGM payload at byte {len(data)}: expected {need} {unit}, "
            f"found {len(payload) // size}",
            offset=len(data),
        )
    pixels = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    if maxval == 255:
        return ImageGray(width=width, height=height, pixels=pixels.copy())
    over = np.flatnonzero(pixels.ravel() > maxval)
    if over.size:
        at = pos + size * int(over[0])
        raise ParseError(
            f"PGM value {pixels.flat[over[0]]} at byte {at} exceeds maxval {maxval}", offset=at
        )
    pixels = ((pixels.astype(np.uint32) * 255 + maxval // 2) // maxval).astype(np.uint8)
    return ImageGray(width=width, height=height, pixels=pixels)


def save_pgm(img):
    """Serialize to canonical binary PGM; ``load_pgm(save_pgm(img))`` is bit-exact."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def crop(img, rect):
    """Cut ``rect`` out of ``img``; output pixel (i, j) equals input (x+i, y+j)."""
    if rect.x + rect.w > img.width:
        raise BoundsError(
            f"crop right edge {rect.x + rect.w} exceeds image width {img.width}"
        )
    if rect.y + rect.h > img.height:
        raise BoundsError(
            f"crop bottom edge {rect.y + rect.h} exceeds image height {img.height}"
        )
    block = img.pixels[rect.y:rect.y + rect.h, rect.x:rect.x + rect.w].copy()
    return ImageGray(width=rect.w, height=rect.h, pixels=block)


def resize(img, out_w, out_h):
    """Resample to (out_w, out_h).

    When both axes shrink by integer factors the result is the area average
    of each source block (rounded half up); every other geometry uses
    bilinear interpolation at pixel centers. Output stays within [0, 255].
    """
    if out_w < 1 or out_h < 1:
        raise ShapeError(f"resize target must be >= 1, got {out_w}x{out_h}")
    h, w = img.height, img.width
    src = img.pixels.astype(np.float64)
    if w % out_w == 0 and h % out_h == 0:
        fy, fx = h // out_h, w // out_w
        means = src.reshape(out_h, fy, out_w, fx).mean(axis=(1, 3))
        out = np.floor(means + 0.5)
    else:
        ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
        xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
        y0 = np.floor(ys).astype(np.intp)
        x0 = np.floor(xs).astype(np.intp)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        v00 = src[np.ix_(y0, x0)]
        v01 = src[np.ix_(y0, x1)]
        v10 = src[np.ix_(y1, x0)]
        v11 = src[np.ix_(y1, x1)]
        top = v00 * (1.0 - fx) + v01 * fx
        bottom = v10 * (1.0 - fx) + v11 * fx
        out = np.floor(top * (1.0 - fy) + bottom * fy + 0.5)
    out = np.clip(out, 0.0, 255.0).astype(np.uint8)
    return ImageGray(width=out_w, height=out_h, pixels=out)


def normalize(img):
    """Map 8-bit intensities to a unit-range (h, w, 1) float tensor (x / 255)."""
    values = (img.pixels.astype(np.float64) / 255.0)[:, :, None]
    return PixelTensor(values=values)
