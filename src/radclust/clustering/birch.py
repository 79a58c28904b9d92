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

The threshold and the tree depend on neither k nor the seed, so
:func:`prepare` builds them once and a sweep cuts the same tree for every
k; :func:`birch` is :func:`prepare` followed by the global phase.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from ..features import as_rows
from ..numerics import RngStream, mix_seed, pairwise_distances, squared_distances
from .base import ClusterConfig, ClusterResult
from .kmeans import kmeans

_THRESHOLD_SALT = 0x42495243
_GLOBAL_SALT = 0x474C4F42
_BRANCHING = 50


@dataclass(eq=False)
class CfEntry:
    """Additive cluster summary: point count, linear sum, squared-norm sum.

    ``centroid`` is cached at construction and by :meth:`absorb`; change the
    summary only through those.
    """

    count: int
    linear_sum: np.ndarray
    square_sum: float
    point_ids: list = field(default_factory=list)
    centroid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.centroid = self.linear_sum / self.count

    @classmethod
    def from_point(cls, point, pid):
        point = np.asarray(point, dtype=np.float64)
        return cls(
            count=1,
            linear_sum=point.copy(),
            square_sum=float(point @ point),
            point_ids=[pid],
        )

    @property
    def radius(self):
        return _radius(self.count, self.linear_sum, self.square_sum)

    def merged_with(self, other):
        """Componentwise sum of two entries (CF additivity)."""
        return CfEntry(
            count=self.count + other.count,
            linear_sum=self.linear_sum + other.linear_sum,
            square_sum=self.square_sum + other.square_sum,
            point_ids=self.point_ids + other.point_ids,
        )

    def absorb(self, point, pid):
        point = np.asarray(point, dtype=np.float64)
        self.count += 1
        self.linear_sum = self.linear_sum + point
        self.square_sum += float(point @ point)
        self.point_ids.append(pid)
        self.centroid = self.linear_sum / self.count

    def radius_if_absorbed(self, point):
        point = np.asarray(point, dtype=np.float64)
        return _radius(
            self.count + 1,
            self.linear_sum + point,
            self.square_sum + float(point @ point),
        )


def _radius(count, linear_sum, square_sum):
    centroid = linear_sum / count
    arg = square_sum / count - float(centroid @ centroid)
    # float cancellation can push the argument a hair negative; clamp at 0
    if arg < 0.0:
        arg = 0.0
    return float(np.sqrt(arg))


@dataclass(eq=False)
class CfTreeStats:
    """Tree shape summary reported with BIRCH results."""

    node_count: int
    leaf_entry_count: int
    threshold: float


class _Node:
    """A CF-tree node: ``items`` are CF entries in a leaf, child nodes otherwise.

    ``count``, ``linear_sum`` and ``centroid`` summarise the subtree. They are
    a cache: :meth:`refresh` must run after any change below the node.
    """

    __slots__ = ("leaf", "items", "count", "linear_sum", "centroid")

    def __init__(self, leaf, items):
        self.leaf = leaf
        self.items = items
        self.refresh()

    def refresh(self):
        """Recompute the summary from the items, summed left to right."""
        self.count = sum(it.count for it in self.items)
        # accumulate adds the rows one after another in item order;
        # a.sum(axis=0) sums a single column pairwise and rounds differently
        self.linear_sum = np.add.accumulate([it.linear_sum for it in self.items])[-1]
        self.centroid = self.linear_sum / self.count


def _nearest(items, point):
    centroids = np.array([it.centroid for it in items])
    d2 = ((centroids - point) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def _split(items):
    """Two groups seeded by the farthest centroid pair; others join the nearer seed."""
    d2 = squared_distances(np.array([it.centroid for it in items]))
    a, b = divmod(int(np.argmax(d2)), len(items))
    if a > b:
        a, b = b, a
    if a == b:  # all centroids coincide; any two-way split works
        a, b = 0, 1
    group_a, group_b = [items[a]], [items[b]]
    for i, it in enumerate(items):
        if i in (a, b):
            continue
        (group_a if d2[i, a] <= d2[i, b] else group_b).append(it)
    return group_a, group_b


def _insert(node, point, pid, threshold, branching):
    """Insert a point below ``node`` and refresh the summaries on its path.

    Returns a new sibling node if ``node`` split.
    """
    items = node.items
    nearest = items[_nearest(items, point)]
    if not node.leaf:
        sibling = _insert(nearest, point, pid, threshold, branching)
        if sibling is not None:
            items.append(sibling)
    elif nearest.radius_if_absorbed(point) <= threshold:
        nearest.absorb(point, pid)
    else:
        items.append(CfEntry.from_point(point, pid))
    if len(items) <= branching:
        node.refresh()
        return None
    node.items, group_b = _split(items)
    node.refresh()
    return _Node(leaf=node.leaf, items=group_b)


def _build_tree(rows, threshold, branching):
    """Insert the rows in order into a new CF tree; returns its root.

    A root that splits gets a new parent, so the tree grows at the top.
    """
    root = _Node(leaf=True, items=[CfEntry.from_point(rows[0], 0)])
    for i in range(1, rows.shape[0]):
        sibling = _insert(root, rows[i], i, threshold, branching)
        if sibling is not None:
            root = _Node(leaf=False, items=[root, sibling])
    return root


def _leaf_entries(node):
    """The tree's CF entries, leaves left to right."""
    if node.leaf:
        return list(node.items)
    return [e for child in node.items for e in _leaf_entries(child)]


def _count_nodes(node):
    if node.leaf:
        return 1
    return 1 + sum(_count_nodes(c) for c in node.items)


def default_threshold(rows):
    """Median nearest-neighbor distance of a subsample (up to 256 rows).

    A local-spacing scale: large enough to absorb near-duplicates, small
    enough that a populous entry cannot swallow points from a distant
    cluster through radius dilution. Above 256 rows the subsample is drawn
    from one fixed stream, so the threshold depends on the rows alone,
    not on a cell's seed or k.
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
    nn = dist.min(axis=1)
    threshold = float(np.median(nn))
    return threshold if threshold > 0.0 else 1e-12


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
    """Pick the threshold and build the CF tree; reads no k or seed of ``cfg``."""
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    threshold = (
        cfg.birch_threshold
        if cfg.birch_threshold is not None
        else default_threshold(rows)
    )
    root = _build_tree(rows, threshold, _BRANCHING)
    entries = _leaf_entries(root)
    entry_of = np.empty(n, dtype=np.intp)
    for index, entry in enumerate(entries):
        entry_of[entry.point_ids] = index
    return PreparedTree(
        centroids=np.array([e.centroid for e in entries]),
        entry_of=entry_of,
        stats=CfTreeStats(
            node_count=_count_nodes(root),
            leaf_entry_count=len(entries),
            threshold=threshold,
        ),
    )


def birch(x, cfg: ClusterConfig, prepared=None) -> ClusterResult:
    """Build the CF tree, cluster its leaf-entry centroids, map points back.

    ``prepared`` is a :func:`prepare` result for the same rows; when given,
    ``x`` is not read and only the global phase runs. When the tree
    compresses below ``cfg.k`` entries the global phase runs with one
    cluster per entry instead.
    """
    if prepared is None:
        prepared = prepare(x, cfg)
    cfg.validate_for(prepared.entry_of.shape[0])
    stats = prepared.stats
    inner_cfg = replace(
        cfg,
        k=min(cfg.k, stats.leaf_entry_count),
        seed=mix_seed(cfg.seed, _GLOBAL_SALT),
        init="kmeans++",
        restarts=5,
    )
    inner = kmeans(prepared.centroids, inner_cfg)
    return ClusterResult(
        labels=inner.labels[prepared.entry_of],
        centroids=inner.centroids,
        objective_trace=inner.objective_trace,
        iterations=inner.iterations,
        converged=inner.converged,
        model=stats,
        diagnostics={"threshold": stats.threshold, "leaf_entries": stats.leaf_entry_count},
    )
