"""Naive reference implementations the suite checks the library against.

Every oracle here is deliberately slow and literal (plain loops, textbook
formulas) and shares no code with the package under test beyond its
exception types and, for the shuffle and sample draws, the scalar
``next_below`` draws of the stream it is handed. The one-shot draw oracles
read and advance that stream's counter but compute every value themselves.
The mini-batch and polish references are the exceptions: they reuse
k-means' assignment and mean helpers, so that only the center update or
the move sweep differs from the package's. The one-GEMM
convolution is another: it is the package's convolution as it was before
it ran in bands. The eager CSV readers are another: they are the package's
readers as they were before rows were read one at a time, and they share its
number grammar and error messages. The field-by-field weight-file reader is
the last: it is the package's reader as it was before its header became one
constant.
"""

import csv
import io
import math
import numbers
import struct
import zlib

import numpy as np

from radclust.clustering.base import ClusterResult
from radclust.clustering.kmeans import _assign, _means, _repair_empty
from radclust.cnn import LAYERS, WEIGHTS_MAGIC, WEIGHTS_VERSION, WeightSet
from radclust.errors import NonConvergenceError, ParseError
from radclust.features import FeatureMatrix, as_rows
from radclust.numerics import RngStream
from radclust.pipeline import _numbers, _row_error


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


def one_shot_u64s(stream, count):
    """``count`` raw draws of ``stream`` in one vectorized pass over the whole range.

    Advances the stream's state as ``RngStream.u64s`` must. The SplitMix
    constants are the ones transcribed in :func:`splitmix64_reference`.
    """
    mask, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15
    z = np.uint64(stream._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(gamma)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    stream._state = (stream._state + count * gamma) & mask
    return z


def one_shot_gaussians(stream, count):
    """``count`` Box-Muller values (cosine branch) from ``2 * count`` one-shot draws.

    Draw 2i gives u1 in (0, 1], draw 2i + 1 gives u2 in [0, 1), and value i
    is sqrt(-2 log u1) cos(2 pi u2).
    """
    u = one_shot_u64s(stream, 2 * count)
    u1 = (np.asarray(u[0::2] >> np.uint64(11), dtype=np.float64) + 1.0) * 2.0**-53
    u2 = np.asarray(u[1::2] >> np.uint64(11), dtype=np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)


# Each bulk draw of RngStream by name: its one-shot oracle and raw draws per value.
ONE_SHOT_DRAWS = {
    "u64s": (one_shot_u64s, 1),
    "gaussians": (one_shot_gaussians, 2),
}


def fisher_yates_shuffle(stream, items):
    """In-place Fisher-Yates shuffle with one scalar ``stream.next_below`` per swap.

    ``RngStream.shuffle`` must give the same permutation and leave the stream
    in the same state.
    """
    for i in range(len(items) - 1, 0, -1):
        j = stream.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def partial_fisher_yates(stream, n, m):
    """The first ``m`` slots of range(n) after ``m`` forward swaps.

    Swap ``i`` exchanges slots ``i`` and ``i + stream.next_below(n - i)``;
    ``RngStream.sample`` must return the same list and leave the stream in
    the same state. Slot ``j`` holds ``j`` until a swap writes it, so only
    written slots are stored and n may exceed memory.
    """
    items = {}
    for i in range(m):
        j = i + stream.next_below(n - i)
        items[i], items[j] = items.get(j, j), items.get(i, i)
    return [items[i] for i in range(m)]


# ClusterConfig's fields as (name, annotated type, default); k has none.
CLUSTER_CONFIG_FIELDS = [
    ("k", int, "required"),
    ("seed", int, 0),
    ("max_iters", int, 100),
    ("tol", float, 1e-4),
    ("batch_size", int, None),
    ("rbf_sigma", float, None),
    ("birch_threshold", float, None),
]


def cluster_config_error(values):
    """The message of the ConfigError a ClusterConfig of ``values`` must raise, or None.

    ``values`` maps every field name to its value. This is the body of
    ``ClusterConfig.validate()`` from before a config checked itself when
    built, kept verbatim apart from reading ``values`` and
    :data:`CLUSTER_CONFIG_FIELDS` and returning the message, and without
    its ``init`` and ``restarts`` checks, which left with those fields.
    """
    number_types = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}
    for name, kind_of, default in CLUSTER_CONFIG_FIELDS:
        value = values[name]
        if kind_of not in number_types or (value is None and default is None):
            continue
        kind, noun = number_types[kind_of]
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"{name} must be {noun}, got {value!r}"
        if kind_of is float and not math.isfinite(value):
            return f"{name} must be finite, got {value!r}"
    if values["max_iters"] < 1:
        return f"max_iters must be >= 1, got {values['max_iters']}"
    if not values["tol"] > 0:
        return f"tol must be positive, got {values['tol']}"
    if values["batch_size"] is not None and values["batch_size"] < 1:
        return f"batch_size must be >= 1, got {values['batch_size']}"
    if values["rbf_sigma"] is not None and not values["rbf_sigma"] > 0:
        return f"rbf_sigma must be positive, got {values['rbf_sigma']}"
    if values["birch_threshold"] is not None and not values["birch_threshold"] > 0:
        return f"birch_threshold must be positive, got {values['birch_threshold']}"
    return None


def add_at_means(rows, labels, k):
    """Per-cluster means with the rows added by ``np.add.at``, in row order.

    ``kmeans._means`` must return the same bits; an empty cluster's mean is 0.
    """
    centers = np.zeros((k, rows.shape[1]))
    np.add.at(centers, labels, rows)
    centers /= np.maximum(np.bincount(labels, minlength=k), 1)[:, None]
    return centers


def sequential_minibatch_kmeans(x, cfg):
    """Mini-batch k-means that moves one center per point, in batch order.

    The per-point update c += (x - c) / count that ``minibatch_kmeans`` ran
    before it took each center as the mean of its points in closed form,
    kept verbatim apart from drawing each batch with ``RngStream.sample``.
    """
    rows = as_rows(x)
    n = rows.shape[0]
    cfg.validate_for(n)
    batch = min(cfg.batch_size or min(n, 100), n)
    stream = RngStream(cfg.seed)
    stream.next_u64()  # the draw ``minibatch_kmeans`` takes before its batches
    centers = rows[:cfg.k].copy()
    counts = np.zeros(cfg.k, dtype=np.int64)
    trace = []
    converged = False
    for _ in range(cfg.max_iters):
        order = stream.sample(n, batch)
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


def sequential_polish(rows, labels, k):
    """Hartigan single-point passes, one row at a time: ``kmeans._polish``
    as it was before its screen over blocks of rows, kept verbatim.

    ``_polish`` must return the same labels and centres, bit for bit.
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
    columns, with no sign convention. Raises NonConvergenceError, whose
    message gives the remaining off-diagonal norm, if that norm has not
    vanished after ``max_sweeps`` full rotation sweeps.
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
                f"(off-diagonal norm {off:.3e})"
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


def builtin_number(kind, text):
    """``kind`` (int or float) of ``text`` as the readers took it before the number grammar.

    ASCII without underscores, then Python's own ``int()`` or ``float()``,
    which also take padding, a ``+`` sign, ``nan`` and ``inf``; ValueError
    for anything else.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not ASCII decimal: {text!r}")
    return kind(text)


def eager_read_csv(data, what):
    """The header row and a list of (line, fields) of every non-blank row, all parsed at once.

    Any csv-structure fault in the file is raised before the caller sees a
    row, so it wins over a bad value on an earlier line.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} file is not UTF-8: invalid byte at offset {exc.start}",
                             offset=exc.start) from None
    reader = csv.reader(io.StringIO(data), strict=True)
    rows, end = [], 0
    try:
        header, end = next(reader, None), reader.line_num
        for row in reader:
            if row and row != [""]:
                rows.append((end + 1, row))
            end = reader.line_num
    except csv.Error as exc:
        raise _row_error(what, end + 1, str(exc).partition(" - ")[0]) from None
    return header, rows


def eager_read_features(data):
    """A feature CSV read by :func:`eager_read_csv`, every row's floats listed before the matrix."""
    header, rows = eager_read_csv(data, "feature")
    if header is None:
        raise ParseError("empty feature file", line=1)
    d = len(header) - 1
    if d < 1 or header != ["id", *(f"f{i}" for i in range(d))]:
        raise ParseError("feature header must be id,f0,...,f{d-1}", line=1)
    ids, values, seen = [], [], set()
    for lineno, row in rows:
        if len(row) != d + 1:
            raise ParseError(f"feature line {lineno} has {len(row) - 1} values, expected {d}",
                             line=lineno)
        row_id = row[0]
        if row_id in seen:
            raise ParseError(f"duplicate feature id {row_id!r}", line=lineno)
        seen.add(row_id)
        vec = _numbers(float, row[1:], "feature", lineno, "non-numeric value")
        if not all(map(math.isfinite, vec)):
            raise _row_error("feature", lineno, "non-finite value")
        ids.append(row_id)
        values.append(vec)
    if not ids:
        raise ParseError("feature file has no data rows", line=2)
    return FeatureMatrix(rows=np.array(values, dtype=np.float64), ids=ids)


def scan_pgm_token(data, pos):
    """Byte-at-a-time PGM header lexer: (token, start, end), or None if only
    whitespace and '#' comments (each up to CR or LF) are left from ``pos``."""
    whitespace = b" \t\n\r\x0b\x0c"
    n = len(data)
    while pos < n:
        if data[pos] in whitespace:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        return None
    start = pos
    while pos < n and data[pos] not in whitespace and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], start, pos


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


def one_gemm_conv2d(x, kernels, biases):
    """Same-padding conv as one GEMM over the whole im2col matrix, made by one copy.

    ``cnn._conv_block``, the package's only convolution, must match this
    pooled and clamped, byte for byte wherever its bands run on the same BLAS
    kernels as the whole matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    h, w, cin = x.shape
    cout, _, kh, kw = kernels.shape
    py, px = kh // 2, kw // 2
    padded = np.zeros((cin, h + 2 * py, w + 2 * px))
    padded[:, py:py + h, px:px + w] = x.transpose(2, 0, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, h * w)
    out = kernels.reshape(cout, -1) @ cols
    out += biases[:, None]
    return out.reshape(cout, h, w).transpose(1, 2, 0)


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


def _take(data, pos, count, what):
    if pos + count > len(data):
        raise ParseError(
            f"truncated weight stream at byte {len(data)} while reading {what}",
            offset=len(data),
        )
    return data[pos:pos + count], pos + count


def fieldwise_load_weights(data):
    """The weight-file reader as it was before its header became one constant.

    It parses the header field by field (magic, version, layer count, then
    each layer's ndim and dims) and refuses at the first field that differs
    from :data:`cnn.LAYERS`, with ``offset`` at that field's first byte.
    ``cnn.load_weights`` must accept and refuse the same files, each refusal
    at an offset inside the same field.
    """
    data = bytes(data)
    if data[:4] != WEIGHTS_MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}, expected {WEIGHTS_MAGIC!r}", offset=0)
    raw, pos = _take(data, 4, 1, "version")
    version = raw[0]
    if version != WEIGHTS_VERSION:
        raise ParseError(f"unsupported weight file version {version}", offset=4)
    raw, pos = _take(data, pos, 4, "layer count")
    (count,) = struct.unpack("<I", raw)
    expected = [shape for _, shape in LAYERS]
    if count != len(expected):
        raise ParseError(
            f"shape table declares {count} layers, expected {len(expected)}", offset=5
        )
    for i, shape in enumerate(expected):
        raw, pos = _take(data, pos, 4, f"layer {i} ndim")
        (ndim,) = struct.unpack("<I", raw)
        if ndim != len(shape):
            raise ParseError(
                f"shape table: layer {i} has {ndim} dims, expected {len(shape)}",
                offset=pos - 4,
            )
        raw, pos = _take(data, pos, 4 * ndim, f"layer {i} dims")
        dims = struct.unpack(f"<{ndim}I", raw)
        if dims != shape:
            raise ParseError(
                f"shape table: layer {i} shape {dims} does not match {shape}",
                offset=pos - 4 * ndim,
            )
    # each layer's weight tensor, then its bias
    ends = np.cumsum([n for shape in expected for n in (math.prod(shape), shape[0])])
    start = pos
    payload, pos = _take(data, pos, 4 * int(ends[-1]), "payload")
    raw, pos = _take(data, pos, 4, "checksum")
    if pos < len(data):
        raise ParseError(f"unexpected data after the checksum at byte {pos}", offset=pos)
    (crc,) = struct.unpack("<I", raw)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ParseError("payload checksum mismatch", offset=pos - 4)
    floats = np.frombuffer(payload, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        layer = int(np.searchsorted(ends, bad[0], side="right")) // 2
        offset = start + 4 * int(bad[0])
        raise ParseError(
            f"layer {layer} holds a non-finite float32 at byte {offset}", offset=offset
        )
    parts = np.split(floats.copy(), ends[:-1])
    pairs = zip(parts[0::2], parts[1::2], expected)
    return WeightSet([(w.reshape(shape), b) for w, b, shape in pairs])


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
