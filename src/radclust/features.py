"""The shared sample container: an (n, d) matrix of per-image embeddings."""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError


@dataclass(eq=False)
class FeatureMatrix:
    """Rows of 64-bit features with one string id per row.

    Values must be finite and ids unique; both dimensions must be >= 1.
    """

    rows: np.ndarray
    ids: list = field(default_factory=list)

    def __post_init__(self):
        rows = as_rows(self.rows)
        if not self.ids:
            self.ids = [f"row{i}" for i in range(rows.shape[0])]
        self.ids = [str(i) for i in self.ids]
        if len(self.ids) != rows.shape[0]:
            raise ShapeError(
                f"got {len(self.ids)} ids for {rows.shape[0]} rows"
            )
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            dup = next(i for i in self.ids if i in seen or seen.add(i))
            raise DataError(f"duplicate feature id {dup!r}")
        self.rows = rows

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def d(self):
        return self.rows.shape[1]


def as_rows(x):
    """Coerce a FeatureMatrix or array-like into a checked float64 (n, d) array.

    The single validator for sample matrices: every clustering variant,
    the metrics, :func:`radclust.numerics.pairwise_distances` and
    :class:`FeatureMatrix` itself go through it. Raises
    :class:`~radclust.errors.ShapeError` unless the input is 2-D with
    n >= 1 and d >= 1 and every value is finite; a non-finite value is
    reported with its (row, col).

    The result is C-contiguous (a copy only when the input is not), so
    BLAS computes ``rows @ rows.T`` the same way, and exactly symmetric,
    whatever the caller's memory layout.
    """
    rows = np.ascontiguousarray(getattr(x, "rows", x), dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
        raise ShapeError(f"expected a 2-D (n>=1, d>=1) sample matrix, got shape {rows.shape}")
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ShapeError(f"sample matrix has non-finite value {rows[row, col]} at ({row}, {col})")
    return rows


def as_labels(labels, n, bound, what):
    """Coerce labels into a checked intp (n,) array of cluster ids in [0, bound).

    The single label validator, used by the metrics. A label may be any
    integer or a whole float. Raises :class:`~radclust.errors.ShapeError` on
    a shape other than (n,), else names the first bad row and the exact
    value of its label, which "is not a whole number" or is "out of range
    for {bound} {what}".
    """
    try:
        raw = np.asarray(labels)
    except ValueError:  # ragged nesting
        raise ShapeError(f"expected {n} labels, got a ragged nested sequence") from None
    if raw.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {raw.shape}")
    if raw.dtype.kind in "biuf":
        ok = (raw >= 0) & (raw < bound)
        if raw.dtype.kind == "f":
            ok &= raw == np.floor(raw)
    else:
        # one Python object per label: numpy turns [0, "a"] into two strings
        raw = np.asarray(labels, dtype=object)
        ok = np.array([_is_whole(v) and 0 <= v < bound for v in raw], dtype=bool)
    if not ok.all():
        row = int(np.argmin(ok))
        # from the input itself, since a float64 coercion can round a huge int
        value = np.asarray(labels, dtype=object)[row]
        if isinstance(value, np.generic):
            value = value.item()
        problem = f"out of range for {bound} {what}" if _is_whole(value) else "is not a whole number"
        raise ShapeError(f"label {value!r} at row {row} {problem}")
    return raw.astype(np.intp)


def _is_whole(value):
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, (float, np.floating)) and float(value).is_integer()
