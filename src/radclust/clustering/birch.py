"""BIRCH: a clustering-feature tree followed by k-means on the leaf entries.

Each leaf entry is the additive triple (count, linear sum, square sum); a
point is absorbed by the closest leaf entry when the merged entry's radius
sqrt(SS/N - ||LS/N||^2) stays within the threshold, and otherwise opens a
new entry. Nodes that outgrow the branching factor split around their
farthest pair. Every node caches its subtree's CF summary (count, linear
sum, centroid), as the non-leaf entries of Zhang, Ramakrishnan & Livny
(SIGMOD 1996) do, so a descent reads one centroid per child instead of
re-summing the subtree. An insert refreshes the summaries along its path,
bottom up, each from its node's items in item order. The global phase runs
seeded k-means on the leaf-entry centroids and maps every point to its
entry's cluster.

The tree keeps these summaries in arrays: leaf entries and nodes are both
items, rows of ``count``, ``ls`` (linear sum), ``centroid`` and, for
entries, ``ss`` (square sum); a node lists its item ids in order.

The threshold and the tree depend on neither k nor the seed, so
:func:`prepare` builds them once and a sweep cuts the same tree for every
k; :func:`birch` is :func:`prepare` followed by the global phase.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..features import as_rows
from ..numerics import RngStream, pairwise_distances, squared_distances
from .base import ClusterConfig, ClusterResult
from .kmeans import refine

_THRESHOLD_SALT = 0x42495243
_GLOBAL_SALT = 0x474C4F42
_BRANCHING = 50


@dataclass(eq=False)
class CfTreeStats:
    """Tree shape summary reported with BIRCH results."""

    node_count: int
    leaf_entry_count: int
    threshold: float


class _CfTree:
    """A CF tree over ``rows``, built by inserting the rows in order.

    ``items[node]`` lists a node's item ids, and an id not in ``items`` is a
    leaf entry. ``entry_of[i]`` is the entry that holds row i. A node's
    summary is a cache, refreshed after any change below it; a root that
    splits gets a new parent, so the tree grows at the top.
    """

    def __init__(self, rows, threshold, branching):
        n, d = rows.shape
        self.rows, self.threshold, self.branching = rows, threshold, branching
        # capacity for n items, doubled when full
        self.count = np.zeros(n, dtype=np.intp)
        self.ls = np.zeros((n, d))
        self.centroid = np.zeros((n, d))
        self.ss = np.zeros(n)
        self.size = 0
        self.items = {}
        self.entry_of = np.empty(n, dtype=np.intp)
        self.root = self._node([self._entry(0)])
        for i in range(1, n):
            self._insert(i)

    def _new_item(self):
        if self.size == self.count.shape[0]:
            self.count, self.ls, self.centroid, self.ss = (
                np.concatenate([a, np.zeros_like(a)])
                for a in (self.count, self.ls, self.centroid, self.ss)
            )
        self.size += 1
        return self.size - 1

    def _entry(self, i):
        """Open a new entry holding row i alone."""
        e = self._new_item()
        x = self.rows[i]
        self.count[e] = 1
        self.ls[e] = x
        self.centroid[e] = x
        self.ss[e] = x @ x
        self.entry_of[i] = e
        return e

    def _node(self, ids):
        node = self._new_item()
        self.items[node] = ids
        self._refresh(node)
        return node

    def _refresh(self, node):
        """Recompute a node's summary from its items, summed left to right."""
        ids = self.items[node]
        self.count[node] = self.count[ids].sum()
        # accumulate adds the rows one after another in item order;
        # a.sum(axis=0) sums a single column pairwise and rounds differently
        self.ls[node] = np.add.accumulate(self.ls[ids])[-1]
        self.centroid[node] = self.ls[node] / self.count[node]

    def _nearest(self, ids, x):
        d2 = ((self.centroid[ids] - x) ** 2).sum(axis=1)
        return ids[int(np.argmin(d2))]

    def _split(self, node):
        """Split a node around its farthest centroid pair; returns the new sibling.

        Each other item joins the nearer of the pair, in item order.
        """
        ids = self.items[node]
        d2 = squared_distances(self.centroid[ids])
        a, b = divmod(int(np.argmax(d2)), len(ids))
        if a == b:  # all centroids coincide; any two-way split works
            a, b = 0, 1
        group_a, group_b = [ids[a]], [ids[b]]
        for j, item in enumerate(ids):
            if j not in (a, b):
                (group_a if d2[j, a] <= d2[j, b] else group_b).append(item)
        self.items[node] = group_a
        self._refresh(node)
        return self._node(group_b)

    def _insert(self, i):
        """Insert row i, then refresh and split back up its path."""
        x = self.rows[i]
        path, e = [], self.root
        while e in self.items:
            path.append(e)
            e = self._nearest(self.items[e], x)
        count = self.count[e] + 1
        ls = self.ls[e] + x
        ss = self.ss[e] + x @ x
        centroid = ls / count
        arg = ss / count - float(centroid @ centroid)
        # float cancellation can push the argument a hair negative; clamp at 0
        if arg < 0.0:
            arg = 0.0
        if np.sqrt(arg) <= self.threshold:
            self.count[e], self.ls[e], self.ss[e], self.centroid[e] = count, ls, ss, centroid
            self.entry_of[i] = e
        else:
            self.items[path[-1]].append(self._entry(i))
        sibling = None
        for node in reversed(path):
            if sibling is not None:
                self.items[node].append(sibling)
            if len(self.items[node]) <= self.branching:
                self._refresh(node)
                sibling = None
            else:
                sibling = self._split(node)
        if sibling is not None:
            self.root = self._node([self.root, sibling])

    def leaf_entries(self):
        """The entry ids, leaves left to right."""
        order, stack = [], [self.root]
        while stack:
            item = stack.pop()
            if item in self.items:
                stack.extend(reversed(self.items[item]))
            else:
                order.append(item)
        return order


def default_threshold(rows):
    """Median nearest-neighbor distance of a subsample (up to 256 rows).

    A local-spacing scale: large enough to absorb near-duplicates, small
    enough that a populous entry cannot swallow points from a distant
    cluster through radius dilution. Above 256 rows the subsample is drawn
    from one fixed stream, so the threshold depends on the rows alone,
    not on a cell's seed or k.

    When that median is 0 (half the sampled rows have an exact duplicate), the
    threshold is a quarter of the smallest positive distance in the sample,
    or 1.0 when every sampled row is identical: duplicates then absorb
    despite the rounding residue of their radius, and no two distinct
    sampled rows share an entry.
    """
    n = rows.shape[0]
    if n < 2:
        return 1.0
    if n > 256:
        idx = np.array(RngStream(_THRESHOLD_SALT).shuffle(list(range(n)))[:256])
        sample = rows[idx]
    else:
        sample = rows
    dist = pairwise_distances(sample)
    np.fill_diagonal(dist, np.inf)
    threshold = float(np.median(dist.min(axis=1)))
    if threshold > 0.0:
        return threshold
    smallest = float(dist[dist > 0.0].min())  # the diagonal's inf when all rows are equal
    return smallest / 4.0 if smallest < np.inf else 1.0


@dataclass(eq=False)
class PreparedTree:
    """The k-independent part of a BIRCH fit.

    ``centroids`` holds the leaf-entry centroids, leaves left to right, and
    ``entry_of[i]`` the index of row i's leaf entry. The tree itself is not
    kept: the global phase reads only these.
    """

    centroids: np.ndarray
    entry_of: np.ndarray
    stats: CfTreeStats


def prepare(x, cfg: ClusterConfig) -> PreparedTree:
    """Pick the threshold and build the CF tree.

    The tree depends on ``cfg`` only through ``birch_threshold``; the seed
    is not read, and k is only checked against n, as every fit checks it.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    threshold = (
        cfg.birch_threshold
        if cfg.birch_threshold is not None
        else default_threshold(rows)
    )
    tree = _CfTree(rows, threshold, _BRANCHING)
    entries = tree.leaf_entries()
    index = np.empty(tree.size, dtype=np.intp)
    index[entries] = np.arange(len(entries))
    return PreparedTree(
        centroids=tree.centroid[entries],
        entry_of=index[tree.entry_of],
        stats=CfTreeStats(
            node_count=len(tree.items),
            leaf_entry_count=len(entries),
            threshold=threshold,
        ),
    )


def birch(x, cfg: ClusterConfig, prepared=None) -> ClusterResult:
    """Build the CF tree, cluster its leaf-entry centroids, map points back.

    ``prepared`` is a :func:`prepare` result for the same rows; when given,
    ``x`` is not read and only the global phase runs. When the tree
    compresses below ``cfg.k`` entries the global phase runs with one
    cluster per entry instead. The global phase is
    :func:`~radclust.clustering.kmeans.refine`; ``diagnostics["polish"]`` is
    its polish record (see :func:`~radclust.clustering.kmeans.kmeans`).
    """
    if prepared is None:
        prepared = prepare(x, cfg)
    cfg.validate_for(prepared.entry_of.shape[0])
    stats = prepared.stats
    inner = refine(prepared.centroids, cfg, min(cfg.k, stats.leaf_entry_count), _GLOBAL_SALT)
    return replace(inner, labels=inner.labels[prepared.entry_of], model=stats, diagnostics={
        "threshold": stats.threshold,
        "leaf_entries": stats.leaf_entry_count,
        "polish": inner.diagnostics["polish"],
    })
