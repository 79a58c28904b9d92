"""Lloyd k-means and its mini-batch variant.

A single k-means run and every mini-batch run start from the first k
sample rows as centroids; k-means restarts start from seeded kmeans++
(Arthur & Vassilvitskii, SODA 2007). Assignment ties and every other tie
in this module break toward the lowest index so runs replay exactly.
"""

import math
import numbers
from dataclasses import replace

import numpy as np

from ..errors import ConfigError
from ..features import as_rows
from ..numerics import RngStream, mix_seed, squared_distances
from .base import ClusterConfig, ClusterResult

_MAX_POLISH_PASSES = 200
# Rows screened per step of the polish; bounds the rescan after each move.
_SCREEN_ROWS = 256


def _assign(rows, centers):
    """Nearest-center labels and full squared-distance matrix."""
    d2 = squared_distances(rows, centers)
    return np.argmin(d2, axis=1), d2


def _repair_empty(rows, labels, d2, k):
    """Give each empty cluster the point farthest from its current center."""
    counts = np.bincount(labels, minlength=k)
    own = d2[np.arange(rows.shape[0]), labels].copy()
    for e in np.flatnonzero(counts == 0):
        donor_mask = counts[labels] > 1
        candidates = np.where(donor_mask, own, -np.inf)
        far = int(np.argmax(candidates))
        counts[labels[far]] -= 1
        labels[far] = e
        counts[e] += 1
        own[far] = 0.0
    return labels


def _means(rows, labels, k):
    # Bin labels[i] * d + j takes rows[i, j]. bincount adds in index order over
    # the row-major ravel, so each (cluster, column) bin sums its rows in row
    # order, as np.add.at or a per-column bincount would.
    d = rows.shape[1]
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    centers = np.bincount(bins, weights=rows.ravel(), minlength=k * d).reshape(k, d)
    centers /= np.maximum(np.bincount(labels, minlength=k), 1)[:, None]
    return centers


def _sse(rows, labels, centers):
    diff = rows - centers[labels]
    return float((diff * diff).sum())


def _kmeans_pp(rows, k, stream):
    """Seeded greedy kmeans++: distance-squared-weighted candidate draws,
    keeping the candidate that most reduces the potential (the standard
    local-trials refinement)."""
    n = rows.shape[0]
    trials = 2 + int(math.log(k))
    chosen = [stream.next_below(n)]
    d2 = squared_distances(rows, rows[chosen[0]:chosen[0] + 1])[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = stream.next_below(n)
            best_d2 = np.minimum(d2, squared_distances(rows, rows[idx:idx + 1])[:, 0])
        else:
            cumulative = np.cumsum(d2)
            idx, best_d2, best_total = None, None, np.inf
            for _ in range(trials):
                r = stream.next_uniform() * total
                cand = min(int(np.searchsorted(cumulative, r, side="right")), n - 1)
                cand_d2 = np.minimum(d2, squared_distances(rows, rows[cand:cand + 1])[:, 0])
                cand_total = float(cand_d2.sum())
                if cand_total < best_total:
                    idx, best_d2, best_total = cand, cand_d2, cand_total
        chosen.append(idx)
        d2 = best_d2
    return rows[chosen]


def _lloyd(rows, centers, cfg):
    k = centers.shape[0]
    labels = None
    trace = []
    converged = False
    for _ in range(cfg.max_iters):
        new_labels, d2 = _assign(rows, centers)
        new_labels = _repair_empty(rows, new_labels, d2, k)
        if labels is not None and np.array_equal(labels, new_labels):
            converged = True
            break
        labels = new_labels
        centers = _means(rows, labels, k)
        trace.append(_sse(rows, labels, centers))
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if prev - cur <= cfg.tol * max(prev, 1e-300):
                converged = True
                break
    return ClusterResult(
        labels=labels,
        centroids=centers,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
    )


def _polish(rows, labels, k):
    """Single-point improvement passes over a Lloyd fixed point (Hartigan).

    Sweeps the rows in order, moving each point to whichever other cluster
    lowers the SSE most by the exact size-corrected gain, until a pass moves
    nothing or 200 passes have run. The result is still Voronoi-consistent,
    and strictly fewer local optima survive than under Lloyd alone
    (Telgarsky & Vattani, AISTATS 2010).

    The sweep is replayed exactly without a loop over rows: an (n, k) table
    holds every point-to-centre squared distance, :func:`_first_move`
    screens a block of rows at once against the current centres, and only
    the first row that moves is applied, by the same scalar centre and count
    updates, before the two changed columns are recomputed and the screen
    resumes at the next row. Rows before that hit saw the state the
    sequential sweep would have shown them, so labels and centres are
    bit-for-bit those of the row-by-row loop. Returns the labels, their
    means and ``{"passes", "moves", "capped"}``; ``capped`` is true when the
    last allowed pass still moved a point.
    """
    labels = labels.copy()
    n = rows.shape[0]
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centers = _means(rows, labels, k)
    # Every entry is a sum along the contiguous last axis of its squares, so
    # it adds its d terms in the order a 1-D sum of that row does, here and
    # in the column updates below; and (x - c) ** 2 == (c - x) ** 2 exactly,
    # so dist[i, c] has the bits of ((rows[i] - centers[c]) ** 2).sum().
    dist = ((centers[None] - rows[:, None]) ** 2).sum(axis=2)
    moves = 0
    for passes in range(1, _MAX_POLISH_PASSES + 1):
        moved = False
        i = 0
        while i < n:
            hit = _first_move(dist, labels, counts, i)
            if hit is None:
                i += _SCREEN_ROWS
                continue
            i, c = hit
            a = labels[i]
            centers[a] = (centers[a] * counts[a] - rows[i]) / (counts[a] - 1.0)
            centers[c] = (centers[c] * counts[c] + rows[i]) / (counts[c] + 1.0)
            counts[a] -= 1.0
            counts[c] += 1.0
            labels[i] = c
            for col in (a, c):
                dist[:, col] = ((centers[col] - rows) ** 2).sum(axis=1)
            moves += 1
            moved = True
            i += 1
        if not moved:
            break
    stats = {"passes": passes, "moves": moves, "capped": moved}
    return labels, _means(rows, labels, k), stats


def _first_move(dist, labels, counts, lo):
    """(row, target) of the first row in ``lo:lo + _SCREEN_ROWS`` that moves.

    A row moves when its cluster has another member and the cheapest join
    beats the leave cost by more than 1e-12; the target is the lowest-index
    cheapest other cluster. None when no row of the block moves.
    """
    block = dist[lo:lo + _SCREEN_ROWS]
    own = labels[lo:lo + _SCREEN_ROWS]
    at = np.arange(own.shape[0])
    ca = counts[own]
    with np.errstate(divide="ignore", invalid="ignore"):  # singletons never move
        leave = ca / (ca - 1.0) * block[at, own]
        join = counts / (counts + 1.0) * block
        join[at, own] = np.inf
        target = np.argmin(join, axis=1)
        gain = join[at, target] - leave
    hits = np.flatnonzero((ca > 1) & (gain < -1e-12))
    if hits.size == 0:
        return None
    first = int(hits[0])
    return lo + first, int(target[first])


def kmeans(x, cfg: ClusterConfig, restarts=1) -> ClusterResult:
    """Lloyd iterations; with ``restarts`` above 1, the best of that many.

    Stops when assignments stabilize, when the relative SSE improvement
    drops to ``cfg.tol``, or at ``cfg.max_iters``. Empty clusters are
    repaired deterministically and never surface. One restart (the default)
    starts from the first k rows, reads no seed and records no diagnostics.
    Several restarts each start from kmeans++ on an independent child stream
    of ``cfg.seed``; every restart's fixed point is refined by Hartigan
    single-point moves (:func:`_polish`: a vectorised screen of each block
    of rows, then an exact replay of the first move, so the moves are those
    of a row-by-row sweep) before the lowest final SSE wins (first on ties).
    The winner's ``diagnostics["polish"]`` holds that restart's ``passes``,
    ``moves`` and ``capped`` (the 200-pass limit stopped it). A ``restarts``
    that is not an integer of at least 1 raises a ConfigError.
    """
    if not isinstance(restarts, numbers.Integral) or isinstance(restarts, bool) or restarts < 1:
        raise ConfigError(f"restarts must be an integer >= 1, got {restarts!r}")
    rows = as_rows(x)
    cfg.validate_for(rows.shape[0])
    if restarts == 1:
        return _lloyd(rows, rows[:cfg.k].copy(), cfg)
    stream = RngStream(cfg.seed)
    best = None
    for _ in range(restarts):
        result = _lloyd(rows, _kmeans_pp(rows, cfg.k, stream.spawn()), cfg)
        labels, centers, polish = _polish(rows, result.labels, cfg.k)
        if not np.array_equal(labels, result.labels):
            result = ClusterResult(
                labels=labels,
                centroids=centers,
                objective_trace=result.objective_trace + [_sse(rows, labels, centers)],
                iterations=result.iterations + 1,
                converged=result.converged,
            )
        result.diagnostics["polish"] = polish
        if best is None or result.objective_trace[-1] < best.objective_trace[-1]:
            best = result
    return best


def refine(points, cfg: ClusterConfig, k, salt) -> ClusterResult:
    """The global phase of a two-stage fit: :func:`kmeans` on derived points.

    Spectral clustering runs it on its row-normalized embedding, BIRCH on
    its leaf-entry centroids. It clusters ``points`` into ``k`` groups with
    5 kmeans++ restarts, seeded by mixing ``cfg.seed`` with the caller's
    ``salt``; the other fields of ``cfg`` carry over.
    """
    return kmeans(points, replace(cfg, k=k, seed=mix_seed(cfg.seed, salt)), restarts=5)


def minibatch_kmeans(x, cfg: ClusterConfig) -> ClusterResult:
    """Mini-batch k-means with cumulative per-center learning rates.

    The centers start from the first k rows. Each iteration draws
    ``batch_size`` points by partial Fisher-Yates from the seeded stream and
    assigns them to the centers as of the batch start. Under the rate
    1/count (Sculley, WWW 2010) a center is the mean of every point assigned
    to it so far (its start until it has one). Stops when the largest center
    movement over an iteration is at most ``cfg.tol`` or at
    ``cfg.max_iters``; final labels come from one full assignment pass. The
    trace holds each batch's inertia against the batch-start centers, so it
    need not decrease.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    batch = min(cfg.batch_size or min(n, 100), n)
    stream = RngStream(cfg.seed)
    # The start reads no draw, but every pinned fit's batches come after
    # this one; dropping it moves labels, so it goes with the stop rule in
    # one declared change of results (ROADMAP item 5).
    stream.next_u64()
    centers = rows[:cfg.k].copy()
    totals = np.zeros_like(centers)
    counts = np.zeros(cfg.k, dtype=np.int64)
    trace = []
    converged = False
    for _ in range(cfg.max_iters):
        points = rows[stream.sample(n, batch)]
        snapshot = centers.copy()
        batch_labels, d2 = _assign(points, snapshot)
        trace.append(float(d2[np.arange(batch), batch_labels].sum()))
        np.add.at(totals, batch_labels, points)
        counts += np.bincount(batch_labels, minlength=cfg.k)
        seen = counts > 0
        centers[seen] = totals[seen] / counts[seen, None]
        movement = float(np.sqrt(((centers - snapshot) ** 2).sum(axis=1)).max())
        if movement <= cfg.tol:
            converged = True
            break
    labels, d2 = _assign(rows, centers)
    labels = _repair_empty(rows, labels, d2, cfg.k)
    return ClusterResult(
        labels=labels,
        centroids=centers,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
    )
