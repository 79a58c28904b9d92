"""Cluster-quality scoring: silhouette plus the SSE diagnostic.

The silhouette of point i is (b - a) / max(a, b), where a is the mean
distance to the rest of its own cluster and b the smallest mean distance to
another cluster. Members of singleton clusters score 0, as do points where
both a and b vanish, so degenerate clusterings still produce a number.

Scoring goes over the rows in blocks of about 2**19 / n rows. Each block's
distances to all n rows are built once and shared by every labeling scored
in the same call, so a sweep builds its distances once, not once per cell.
The labelings' 0/1 cluster-membership columns are packed into column groups
of at most 2**19 / n columns, and each block takes one GEMM per group, from
which every labeling reads its per-cluster distance sums. Only one group's
membership matrix is held at a time; a batch that fits in one group builds
it once, a larger one once per group and block. A block's distances and
the matrix held each have at most 2**19 entries, so together they stay
within 8 MiB of float64: no n x n distance matrix is built. A labeling
with more clusters than a group holds is split into groups of its own, each
chunk's GEMM over the distance columns of its own members only, so with
many clusters the work per block stays n * block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import as_labels, as_rows
from .numerics import pairwise_distances

# Distance entries per silhouette row block, and the most one-hot entries
# built at once: 4 MiB of float64 each, so the two fit in 8 MiB together.
_BLOCK_ELEMENTS = 1 << 19


@dataclass(eq=False)
class SilhouetteReport:
    """Per-point silhouettes in [-1, 1], their mean, and per-cluster means."""

    per_point: np.ndarray
    mean: float
    per_cluster_mean: np.ndarray


def silhouette(x, labels) -> SilhouetteReport:
    """Score a labeling of ``x`` by the mean silhouette over all points.

    Requires at least two distinct labels; distances are Euclidean. Labels
    are cluster ids in [0, n); ids need not be contiguous, and
    ``per_cluster_mean`` is NaN at an unused id below the largest. A bad label
    raises :class:`ShapeError` (see :func:`~radclust.features.as_labels`)
    before any work that scales with the ids.

    This is :func:`silhouette_batch` with one labeling. Inside a batch a
    labeling's distance sums come from a wider GEMM, whose rounding can
    differ in the last bits from that of the labeling scored alone.
    """
    (result,) = silhouette_batch(x, [labels])
    if isinstance(result, Exception):
        raise result
    return result


def silhouette_batch(x, labelings) -> list:
    """Score several labelings of the same rows in one pass over distance blocks.

    Returns one entry per labeling, in order: its :class:`SilhouetteReport`,
    or the :class:`ShapeError` or :class:`ConfigError` that
    :func:`silhouette` would raise for it. A labeling that cannot be scored
    costs the others nothing. Bad rows in ``x`` raise.

    Each block ``pairwise_distances(rows[lo:hi], rows)`` is built once, in
    the original row order; its self entries, like those of any two
    identical rows, are exactly 0. The block then takes one GEMM,
    ``dist @ onehot``, per column group (see the module docstring), and each
    labeling's a and b for those rows follow from its own columns. Scoring
    the same batch twice gives the same bits, and a labeling that cannot be
    scored takes no columns, so it leaves the others' bits unchanged.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    results = []
    for labels in labelings:
        try:
            results.append(_Scorer(labels, n))
        except (ShapeError, ConfigError) as exc:
            results.append(exc)
    scorers = [r for r in results if isinstance(r, _Scorer)]
    if not scorers:
        return results

    step = max(1, _BLOCK_ELEMENTS // n)
    groups = _column_groups(scorers, step)
    built = None  # the group whose one-hot is held; a lone group is built once
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        dist = pairwise_distances(rows[lo:hi], rows)
        for group in groups:
            members, parts = group
            if group is not built:
                onehot = None  # so the next group's never coexists with this one
                onehot = _onehot(members, parts, n)
                built = group
            sums = dist[:, members] @ onehot
            for scorer, c0, c1, col in parts:
                scorer.add_sums(sums[:, col:col + c1 - c0], lo, hi, c0, c1)
        del dist  # so the next block's buffer never coexists with this one
    return [r.report() if isinstance(r, _Scorer) else r for r in results]


def _column_groups(scorers, width):
    """Pack the scorers' cluster columns into groups of at most ``width``.

    Returns ``(members, parts)`` pairs: ``members`` selects the rows whose
    distance columns the group's GEMM reads, and each part
    ``(scorer, c0, c1, col)`` puts the scorer's clusters c0..c1 in columns
    col..col + c1 - c0. A labeling with at most ``width`` clusters joins the
    open group over all rows, or opens the next one when it does not fit;
    one with more is cut into chunks of ``width`` clusters, each a group
    over its own members, in ascending order.
    """
    groups = []
    used = width
    for scorer in scorers:
        k = scorer.counts.size
        if k > width:
            for c0 in range(0, k, width):
                c1 = min(c0 + width, k)
                members = np.flatnonzero((scorer.cluster >= c0) & (scorer.cluster < c1))
                groups.append((members, [(scorer, c0, c1, 0)]))
            continue
        if used + k > width:
            shared, used = [], 0
            groups.append((slice(None), shared))
        shared.append((scorer, 0, k, used))
        used += k
    return groups


def _onehot(members, parts, n):
    """A group's 0/1 matrix: a row per member, a column per cluster of its parts.

    Every member's cluster lies in each part's c0..c1, as
    :func:`_column_groups` selects them, so each part sets one 1 per row.
    """
    size = n if isinstance(members, slice) else members.size
    onehot = np.zeros((size, sum(c1 - c0 for _, c0, c1, _ in parts)))
    at = np.arange(size)
    for scorer, c0, _, col in parts:
        onehot[at, scorer.cluster[members] + (col - c0)] = 1.0
    return onehot


class _Scorer:
    """One labeling's cluster ranks and counts, and its silhouettes as blocks arrive."""

    def __init__(self, labels, n):
        labels = as_labels(labels, n, n, "rows")
        # cluster[i]: the rank of point i's label among the labels in use
        self.used, self.cluster, self.counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        if self.counts.size < 2:
            raise ConfigError("silhouette undefined for one cluster")
        self.values = np.zeros(n)

    def add_sums(self, sums, lo, hi, c0, c1):
        """Take rows lo..hi's distance sums to clusters c0..c1, one column each.

        A block's cluster ranges arrive in ascending order; the first opens
        the block's a and b, and the last turns them into silhouettes.
        ``sums`` is overwritten.
        """
        own = self.cluster[lo:hi]
        if c0 == 0:
            self.a = np.empty(hi - lo)
            self.b = np.full(hi - lo, np.inf)
        mine = (own >= c0) & (own < c1)
        at = (np.flatnonzero(mine), own[mine] - c0)
        self.a[mine] = sums[at] / np.maximum(self.counts[own[mine]] - 1, 1)
        sums /= self.counts[c0:c1]
        sums[at] = np.inf
        np.minimum(self.b, sums.min(axis=1), out=self.b)
        if c1 == self.counts.size:
            a, b = self.a, self.b
            denom = np.maximum(a, b)
            valid = (self.counts[own] > 1) & (denom > 0.0)
            self.values[lo:hi][valid] = (b[valid] - a[valid]) / denom[valid]

    def report(self):
        per_cluster = np.full(int(self.used[-1]) + 1, np.nan)
        per_cluster[self.used] = np.bincount(self.cluster, weights=self.values) / self.counts
        return SilhouetteReport(
            per_point=self.values,
            mean=float(self.values.mean()),
            per_cluster_mean=per_cluster,
        )


def sse(x, labels, centroids) -> float:
    """Sum of squared Euclidean distances from points to assigned centroids.

    Raises ShapeError on mismatched shapes, or on a bad label (one that is
    not a whole number in [0, number of centroids)), naming its row.
    """
    rows = as_rows(x)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"centroid matrix shape {centroids.shape} does not match d={rows.shape[1]}"
        )
    labels = as_labels(labels, rows.shape[0], centroids.shape[0], "centroids")
    diff = rows - centroids[labels]
    return float((diff * diff).sum())
