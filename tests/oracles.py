"""Naive reference implementations the suite checks the library against.

Every oracle here is deliberately slow and literal (plain loops, textbook
formulas) and shares no code with the package under test beyond its
exception types and, for the shuffle, the scalar ``next_below`` draws of
the stream it is handed.
"""

import math

import numpy as np

from radclust.errors import NonConvergenceError


def splitmix64_reference(seed, count):
    """The published splitmix64 generator, transcribed literally."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def fisher_yates_shuffle(stream, items):
    """In-place Fisher-Yates shuffle with one scalar ``stream.next_below`` per swap.

    The loop ``RngStream.shuffle`` ran before it drew in bulk, kept verbatim:
    the bulk form must give the same permutation and leave the stream in the
    same state.
    """
    for i in range(len(items) - 1, 0, -1):
        j = stream.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def naive_pairwise(rows):
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for a, b in zip(rows[i], rows[j]):
                s += (a - b) ** 2
            d[i, j] = math.sqrt(s)
    return d


def charpoly_eigs_by_bisection(a, tol=1e-10):
    """Eigenvalues of a small symmetric matrix as sign-change roots of
    det(A - lam*I), bracketed by a Gershgorin scan and refined by bisection.

    Assumes the eigenvalues are distinct at the scan resolution.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]

    def f(lam):
        return np.linalg.det(a - lam * np.eye(n))

    radius = np.abs(a).sum(axis=1)
    lo = float(np.min(np.diag(a) - radius)) - 1.0
    hi = float(np.max(np.diag(a) + radius)) + 1.0
    grid = np.linspace(lo, hi, 20001)
    vals = [f(x) for x in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            x0, x1 = grid[i], grid[i + 1]
            f0 = vals[i]
            while x1 - x0 > tol:
                xm = 0.5 * (x0 + x1)
                fm = f(xm)
                if fm == 0.0:
                    x0 = x1 = xm
                    break
                if f0 * fm < 0.0:
                    x1 = xm
                else:
                    x0, f0 = xm, fm
            roots.append(0.5 * (x0 + x1))
    return sorted(roots)


def jacobi_eigen(m, max_sweeps=100):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    The input is symmetrized by averaging with its transpose. Returns the
    eigenvalues in ascending order and the orthonormal eigenvectors as
    columns, with no sign convention. Raises NonConvergenceError, carrying
    the remaining off-diagonal norm, if that norm has not vanished after
    ``max_sweeps`` full rotation sweeps.
    """
    a = np.array(m, dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    scale = max(1.0, float(np.max(np.abs(a))))
    # Roundoff floor for the summed off-diagonal magnitude; far below the
    # 1e-8 residual contract.
    stop = n * n * 2.3e-16 * scale

    sweep = 0
    while True:
        off = float(np.sum(np.abs(a)) - np.sum(np.abs(np.diag(a))))
        if off <= stop:
            break
        if sweep >= max_sweeps:
            raise NonConvergenceError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off:.3e})",
                residual=off,
            )
        thresh = 0.2 * off / (n * n) if sweep < 3 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                g = 100.0 * abs(apq)
                # Once rotations are tiny relative to the diagonal, flush the
                # element to zero instead of rotating forever.
                if sweep > 3 and abs(a[p, p]) + g == abs(a[p, p]) \
                        and abs(a[q, q]) + g == abs(a[q, q]):
                    a[p, q] = a[q, p] = 0.0
                    continue
                if abs(apq) <= thresh:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + g == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        sweep += 1

    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def naive_conv2d_same(x, kernels, biases):
    """Six-nested-loop same-padding cross-correlation, stride 1."""
    x = np.asarray(x, dtype=float)
    kernels = np.asarray(kernels, dtype=float)
    biases = np.asarray(biases, dtype=float)
    h, w, cin = x.shape
    cout, _, kh, kw = kernels.shape
    py, px = kh // 2, kw // 2
    out = np.zeros((h, w, cout))
    for c in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = biases[c]
                for ci in range(cin):
                    for dy in range(kh):
                        for dx in range(kw):
                            sy, sx = y + dy - py, xx + dx - px
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += kernels[c, ci, dy, dx] * x[sy, sx, ci]
                out[y, xx, c] = acc
    return out


def naive_maxpool2x2(x):
    x = np.asarray(x, dtype=float)
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    for ci in range(c):
        for y in range(0, h, 2):
            for xx in range(0, w, 2):
                out[y // 2, xx // 2, ci] = max(
                    x[y, xx, ci], x[y, xx + 1, ci],
                    x[y + 1, xx, ci], x[y + 1, xx + 1, ci],
                )
    return out


def naive_dense(v, w, b):
    w = np.asarray(w, dtype=float)
    out = []
    for r in range(w.shape[0]):
        acc = float(b[r])
        for c in range(w.shape[1]):
            acc += w[r, c] * v[c]
        out.append(acc)
    return np.array(out)


def naive_silhouette(rows, labels):
    """Textbook per-point silhouette over Euclidean distances."""
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    n = rows.shape[0]
    d = naive_pairwise(rows)
    values = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_members = [j for j in range(n) if labels[j] == own and j != i]
        if not own_members:
            values[i] = 0.0
            continue
        a = sum(d[i, j] for j in own_members) / len(own_members)
        b = math.inf
        for c in set(labels.tolist()):
            if c == own:
                continue
            members = [j for j in range(n) if labels[j] == c]
            if members:
                b = min(b, sum(d[i, j] for j in members) / len(members))
        denom = max(a, b)
        values[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return values, float(np.mean(values))


def naive_sse(rows, labels, centroids):
    rows = np.asarray(rows, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    total = 0.0
    for i, lab in enumerate(labels):
        total += sum((a - b) ** 2 for a, b in zip(rows[i], centroids[lab]))
    return total


def best_two_partition_sse(rows):
    """Global optimum of the 2-means objective by enumerating assignments."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    best = math.inf
    for mask in range(1, (1 << n) - 1):
        groups = ([], [])
        for i in range(n):
            groups[(mask >> i) & 1].append(i)
        sse = 0.0
        for g in groups:
            pts = rows[g]
            c = pts.mean(axis=0)
            sse += float(((pts - c) ** 2).sum())
        best = min(best, sse)
    return best


def direct_average_linkage(rows, members_a, members_b):
    """Mean pairwise distance between two point-index sets."""
    d = naive_pairwise(rows)
    total = sum(d[i, j] for i in members_a for j in members_b)
    return total / (len(members_a) * len(members_b))


def ward_merge_cost(rows, members_a, members_b):
    """Variance increase of merging two clusters: (na*nb/(na+nb)) * ||ca-cb||^2."""
    rows = np.asarray(rows, dtype=float)
    ca = rows[list(members_a)].mean(axis=0)
    cb = rows[list(members_b)].mean(axis=0)
    na, nb = len(members_a), len(members_b)
    return na * nb / (na + nb) * float(((ca - cb) ** 2).sum())


def greedy_ward_merges(rows):
    """Brute-force Ward agglomeration: recompute every pair cost each step.

    Ties break on the lexicographically smallest pair of current cluster
    member-minima, matching lowest-index tie rules.
    """
    rows = np.asarray(rows, dtype=float)
    clusters = [[i] for i in range(rows.shape[0])]
    heights = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cost = ward_merge_cost(rows, clusters[i], clusters[j])
                if best is None or cost < best[0] - 1e-15:
                    best = (cost, i, j)
        cost, i, j = best
        heights.append(cost)
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])
    return heights
