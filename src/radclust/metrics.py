"""Cluster-quality scoring: silhouette plus the SSE diagnostic.

The silhouette of point i is (b - a) / max(a, b), where a is the mean
distance to the rest of its own cluster and b the smallest mean distance to
another cluster. Members of singleton clusters score 0, as do points where
both a and b vanish, so degenerate clusterings still produce a number.

Scoring goes over the rows in blocks of about 2**17 / n rows. Each block's
distances to all n rows are built once and shared by every labeling scored
in the same call, so a sweep builds its distances once, not once per cell.
The labelings' clusters are numbered in one space over the batch, and their
0/1 membership columns are packed into column groups of at most 2**19 / n
columns. Each block takes one GEMM per group, and every labeling in the
group reads its a and b from that product in one array pass: the own
cluster's column gives a, and a minimum over each labeling's other columns
gives b. Only then are the block's silhouettes written, for all labelings
at once. Only one group's membership matrix is held at a time; a batch
that fits in one group builds it once, a larger one once per group and
block. So two budgets bound the memory: a block's distances hold at most
2**17 float64 entries (1 MiB) and the matrix held at most 2**19 (4 MiB); no
n x n distance matrix is built. A labeling with more clusters than a group
holds is split into groups of its own, each chunk's GEMM over the distance
columns of its own members only, so with many clusters the work per block
stays n * block.

The block height sets only the row count of each GEMM. Where OpenBLAS runs
both heights on the same kernels, it moves no bits. But a GEMM of at most
10**6 multiply-adds runs on its small-matrix kernel, and a larger one's
rounding can depend on how its rows fall into the kernel's tiles and
threads, so a per-point value can move in its last bits with the height.

Finite rows whose largest magnitude lies outside 2**-200..2**200, where a
squared distance could overflow to inf or underflow to 0, are first scaled
by a power of two that brings it into [0.5, 1). Every distance, sum, mean
and ratio then only shifts its exponent, so the silhouettes keep the bits of
the same rows at an in-range scale wherever no entry leaves the normal
float range in the scaling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import as_labels, as_rows
from .numerics import squared_distances

# Distance entries per silhouette row block (1 MiB of float64), and the
# most one-hot entries built at once (4 MiB), which also sets a column
# group's width.
_BLOCK_ELEMENTS = 1 << 17
_GROUP_ELEMENTS = 1 << 19


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

    Each block, the square root of ``squared_distances(rows[lo:hi], rows)``
    taken in place, is built once, in the original row order, from rows
    checked once; its self entries, like those of any two identical rows,
    are exactly 0. The block then takes one GEMM,
    ``dist @ onehot``, per column group (see the module docstring), and the
    a and b of every labeling in the group follow from it in array passes.
    Scoring the same batch twice gives the same bits, and a labeling that
    cannot be scored takes no columns, so it leaves the others' bits
    unchanged. Rows far from unit scale are first scaled by a power of two
    (see the module docstring).
    """
    rows = as_rows(x)
    # a power of two moves the exponent of every distance and not the scores
    exponent = np.frexp(max(rows.max(), -rows.min()))[1]
    if not -200 <= exponent <= 200:
        rows = np.ldexp(rows, -exponent)
    n = rows.shape[0]
    results, ranks, used = [], [], []
    for labels in labelings:
        try:
            # rank[i]: the rank of point i's label among the labels in use
            uniq, rank = np.unique(as_labels(labels, n, n, "rows"), return_inverse=True)
            if uniq.size < 2:
                raise ConfigError("silhouette undefined for one cluster")
        except (ShapeError, ConfigError) as exc:
            results.append(exc)
            continue
        results.append(None)
        used.append(uniq)
        ranks.append(rank)
    if not used:
        return results

    order, starts, groups = _column_groups(ranks, [u.size for u in used],
                                           max(1, _GROUP_ELEMENTS // n))
    cluster = np.stack([ranks[j] for j in order])  # cluster[t, i]: point i's id in order[t]
    del ranks
    cluster += starts[:-1, None]
    counts = np.bincount(cluster.ravel())
    values = np.zeros(cluster.shape)
    built = None  # the group whose one-hot is held; a lone group is built once
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        dist = squared_distances(rows[lo:hi], rows)
        np.sqrt(dist, out=dist)
        a = np.zeros((len(order), hi - lo))
        b = np.full((len(order), hi - lo), np.inf)
        for group in groups:
            members, t0, t1, g0, g1 = group
            if group is not built:
                onehot = None  # so the next group's never coexists with this one
                onehot = _onehot(cluster[t0:t1], group, n)
                built = group
            sums = dist[:, members] @ onehot
            if group is groups[-1]:
                del dist  # so the array passes, and the next block's buffer, never coexist with it
            # each point's own column; a chunk points the rows whose cluster it
            # does not hold at column 0, and undoes their a and their inf there
            own = cluster[t0:t1, lo:hi].T - g0
            r, p = np.nonzero((own < 0) | (own >= g1 - g0))
            own[r, p] = 0
            mean_own = np.take_along_axis(sums, own, axis=1)
            mean_own /= np.maximum(counts[g0:g1] - 1, 1)[own]
            mean_own[r, p] = 0.0
            a[t0:t1] += mean_own.T
            sums /= counts[g0:g1]
            kept = sums[r, 0]
            np.put_along_axis(sums, own, np.inf, axis=1)
            sums[r, 0] = kept
            first = np.maximum(starts[t0:t1], g0) - g0
            np.minimum(b[t0:t1], np.minimum.reduceat(sums, first, axis=1).T, out=b[t0:t1])
        denom = np.maximum(a, b)
        valid = (counts[cluster[:, lo:hi]] > 1) & (denom > 0.0)
        np.subtract(b, a, out=b, where=valid)
        np.divide(b, denom, out=values[:, lo:hi], where=valid)

    means = np.bincount(cluster.ravel(), weights=values.ravel()) / counts
    reports = (_report(used[order[t]], values[t], means[starts[t]:starts[t + 1]])
               for t in np.argsort(order))
    return [next(reports) if result is None else result for result in results]


def _report(used, values, means):
    """A labeling's report from its silhouettes and its clusters' mean silhouettes."""
    per_cluster = np.full(int(used[-1]) + 1, np.nan)
    per_cluster[used] = means
    return SilhouetteReport(values, float(values.mean()), per_cluster)


def _column_groups(ranks, ks, width):
    """Pack the labelings' clusters into column groups of at most ``width``.

    A labeling with at most ``width`` clusters joins the open group over all
    rows, or opens the next one when it does not fit. One with more is cut
    into chunks of ``width`` clusters, in ascending order, each a group over
    its own members (``ranks[j]`` selects them). Returns ``order``, the
    labelings in the order the groups hold them, with the groups over all
    rows first; ``starts``, where each of them begins in one space of
    cluster ids over the batch; and the groups as ``(members, t0, t1, g0,
    g1)``. A group holds labelings ``order[t0:t1]`` and the ids g0..g1 as
    its columns, in order, and ``members`` selects the rows whose distance
    columns its GEMM reads.
    """
    shared, chunked, filled = [], [], width
    for j, k in enumerate(ks):
        if k > width:
            chunked.append(j)
        elif filled + k > width:
            shared.append([j])
            filled = k
        else:
            shared[-1].append(j)
            filled += k
    order = [j for js in shared for j in js] + chunked
    starts = np.cumsum([0] + [ks[j] for j in order])
    ends = np.cumsum([0] + [len(js) for js in shared])
    groups = [(slice(None), t0, t1, starts[t0], starts[t1]) for t0, t1 in zip(ends[:-1], ends[1:])]
    for t, j in enumerate(chunked, start=ends[-1]):
        groups += [(np.flatnonzero((ranks[j] >= c0) & (ranks[j] < c0 + width)), t, t + 1,
                    starts[t] + c0, min(starts[t] + c0 + width, starts[t + 1]))
                   for c0 in range(0, ks[j], width)]
    return order, starts, groups


def _onehot(cluster, group, n):
    """A group's 0/1 matrix: a row per member, a column per cluster it holds.

    ``cluster`` has a row per labeling of the group. Every member's cluster
    lies in the group's columns for each of them, as :func:`_column_groups`
    selects the members, so each labeling sets one 1 per row.
    """
    members, _, _, g0, g1 = group
    size = n if isinstance(members, slice) else members.size
    onehot = np.zeros((size, g1 - g0))
    at = np.arange(size)
    for ids in cluster:
        onehot[at, ids[members] - g0] = 1.0
    return onehot


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
