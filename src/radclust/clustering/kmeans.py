"""Lloyd k-means and its mini-batch variant.

Initialization defaults to the first k sample rows as centroids; a seeded
kmeans++ mode exists for restart-based searches. Assignment ties and every
other tie in this module break toward the lowest index so runs replay
exactly.
"""

import math

import numpy as np

from ..features import as_rows
from ..numerics import RngStream
from .base import ClusterConfig, ClusterResult


def _assign(rows, centers):
    """Nearest-center labels and full squared-distance matrix."""
    d2 = (
        (rows * rows).sum(axis=1)[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * rows @ centers.T
    )
    np.maximum(d2, 0.0, out=d2)
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
    centers = np.zeros((k, rows.shape[1]))
    counts = np.bincount(labels, minlength=k)
    np.add.at(centers, labels, rows)
    centers /= np.maximum(counts, 1)[:, None]
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
    centers = [rows[stream.next_below(n)]]
    d2 = ((rows - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = stream.next_below(n)
            best_d2 = np.minimum(d2, ((rows - rows[idx]) ** 2).sum(axis=1))
        else:
            cumulative = np.cumsum(d2)
            idx, best_d2, best_total = None, None, np.inf
            for _ in range(trials):
                r = stream.next_uniform() * total
                cand = min(int(np.searchsorted(cumulative, r, side="right")), n - 1)
                cand_d2 = np.minimum(d2, ((rows - rows[cand]) ** 2).sum(axis=1))
                cand_total = float(cand_d2.sum())
                if cand_total < best_total:
                    idx, best_d2, best_total = cand, cand_d2, cand_total
        centers.append(rows[idx])
        d2 = best_d2
    return np.array(centers)


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
    """Single-point improvement passes over a Lloyd fixed point.

    Moves one point at a time to whichever cluster lowers the SSE most
    (weighted by the exact size-corrected gain), sweeping in row order until
    no move helps. The result is still Voronoi-consistent, and strictly
    fewer local optima survive than under Lloyd alone.
    """
    labels = labels.copy()
    n = rows.shape[0]
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centers = _means(rows, labels, k)
    for _ in range(200):
        moved = False
        for i in range(n):
            a = labels[i]
            if counts[a] <= 1:
                continue
            leave = counts[a] / (counts[a] - 1.0) * float(((rows[i] - centers[a]) ** 2).sum())
            join = counts / (counts + 1.0) * ((centers - rows[i]) ** 2).sum(axis=1)
            join[a] = np.inf
            c = int(np.argmin(join))
            if join[c] - leave < -1e-12:
                centers[a] = (centers[a] * counts[a] - rows[i]) / (counts[a] - 1.0)
                centers[c] = (centers[c] * counts[c] + rows[i]) / (counts[c] + 1.0)
                counts[a] -= 1.0
                counts[c] += 1.0
                labels[i] = c
                moved = True
        if not moved:
            break
    return labels, _means(rows, labels, k)


def kmeans(x, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd iterations from first-k or kmeans++ centers; best of ``restarts``.

    Stops when assignments stabilize, when the relative SSE improvement
    drops to ``cfg.tol``, or at ``cfg.max_iters``. Empty clusters are
    repaired deterministically and never surface. With several restarts the
    first uses ``cfg.init`` and the rest use kmeans++, each on an
    independent child stream; every restart's fixed point is refined by
    single-point moves before the lowest final SSE wins (first on ties).
    A single-restart run keeps plain Lloyd mechanics.
    """
    rows = as_rows(x)
    cfg.validate_for(rows.shape[0])
    stream = RngStream(cfg.seed)
    best = None
    for r in range(cfg.restarts):
        sub = stream.spawn()
        if r == 0 and cfg.init == "first_k":
            centers = rows[:cfg.k].copy()
        else:
            centers = _kmeans_pp(rows, cfg.k, sub)
        result = _lloyd(rows, centers, cfg)
        if cfg.restarts > 1:
            labels, centers = _polish(rows, result.labels, cfg.k)
            if not np.array_equal(labels, result.labels):
                result = ClusterResult(
                    labels=labels,
                    centroids=centers,
                    objective_trace=result.objective_trace + [_sse(rows, labels, centers)],
                    iterations=result.iterations + 1,
                    converged=result.converged,
                )
        if best is None or result.objective_trace[-1] < best.objective_trace[-1]:
            best = result
    return best


def minibatch_kmeans(x, cfg: ClusterConfig) -> ClusterResult:
    """Mini-batch k-means with cumulative per-center learning rates.

    Each iteration draws ``batch_size`` points without replacement from the
    seeded stream, assigns them to the centers as of the batch start, and
    applies the running-mean update c += (x - c) / count. Stops when the
    largest center movement over an iteration is at most ``cfg.tol`` or at
    ``cfg.max_iters``; final labels come from one full assignment pass. The
    trace holds each batch's inertia against the centers as of the batch
    start (Sculley, WWW 2010), so it need not decrease.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    batch = min(cfg.batch_size or min(n, 100), n)
    stream = RngStream(cfg.seed)
    sub = stream.spawn()
    if cfg.init == "first_k":
        centers = rows[:cfg.k].copy()
    else:
        centers = _kmeans_pp(rows, cfg.k, sub)
    counts = np.zeros(cfg.k, dtype=np.int64)
    trace = []
    converged = False
    for _ in range(cfg.max_iters):
        order = stream.shuffle(list(range(n)))[:batch]
        snapshot = centers.copy()
        batch_labels, d2 = _assign(rows[order], snapshot)
        trace.append(float(d2[np.arange(batch), batch_labels].sum()))
        for j, i in enumerate(order):
            c = batch_labels[j]
            counts[c] += 1
            centers[c] += (rows[i] - centers[c]) / counts[c]
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
