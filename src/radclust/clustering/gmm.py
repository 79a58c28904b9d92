"""Gaussian mixture models fit by EM, with tied, diagonal, or full covariances.

Means start from one k-means run from the first k rows, which reads no
seed; weights start uniform, and every covariance starts from the global
sample covariance restricted to the mode.
The covariance mode enters in two places only:

- the E-step whitens every component with the inverse of a Cholesky factor
  from numpy's LAPACK. Full mode factors each of its k covariances, tied
  mode factors its one matrix, and diag mode writes the closed form
  ``diag(1 / sqrt(var))``. The rows are centred once per fit and get a
  ones column, so one stacked GEMM whitens them for all k components at
  once, each component's mean folded into its whitening matrix;
- the M-step is one loop that builds each component's centred scatter
  matrix, and :func:`_covariances` pools them per mode. Fed the global
  scatter, the same helper gives the initial covariances.

Per-sample arrays are component-major, (k, n). The E-step works in log
space through log-sum-exp over components; every covariance gets
``_COVARIANCE_REG`` (1e-6) on its diagonal, and a factor that needs more
is reported in ``diagnostics["interventions"]``. The objective is the mean
per-sample log-likelihood and never decreases.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateComponentError, NonConvergenceError
from ..features import as_rows
from .base import ClusterConfig, ClusterResult
from .kmeans import kmeans

COVARIANCE_MODES = ("tied", "diag", "full")
_LOG_2PI = math.log(2.0 * math.pi)
_COVARIANCE_REG = 1e-6


@dataclass(eq=False)
class GmmModel:
    """Fitted mixture: simplex weights, means, and per-mode covariances.

    ``covariances`` is (k, d, d) for full mode, (k, d) positive variances
    for diag, and a single shared (d, d) matrix for tied.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    mode: str


def _whitening(cov, reg, component):
    """Log-determinant of cov, the inverse of its Cholesky factor L, and the shift used.

    With ``y = inv(L) @ (x - mean)``, ``y @ y`` is the Mahalanobis form
    ``(x - mean) @ inv(cov) @ (x - mean)``. A diag mode's variance vector
    takes the closed form ``(sum(log(var)), diag(1 / sqrt(var)), 0.0)``. A
    matrix is factored as it stands by ``np.linalg.cholesky`` (LAPACK reads
    its lower triangle). When that raises, or gives a non-finite factor
    (numpy does not raise on NaN), it is retried on ``cov + extra*I``,
    ``extra`` rising from ``reg`` by 10x, and past 1e-2 a
    DegenerateComponentError names ``component``. The third value is the
    ``extra`` that factored, 0.0 when none was needed.
    """
    if cov.ndim == 1:
        return float(np.log(cov).sum()), np.diag(1.0 / np.sqrt(cov)), 0.0
    extra = 0.0
    while True:
        try:
            L = np.linalg.cholesky(cov if extra == 0.0 else cov + extra * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(L).all():
                break
        extra = reg if extra == 0.0 else extra * 10.0
        if extra > 1e-2:
            raise DegenerateComponentError(
                f"degenerate component {component}: covariance stayed "
                "non-positive-definite after regularization up to 1e-02",
                component=component,
            )
    return 2.0 * float(np.log(np.diag(L)).sum()), np.linalg.inv(L), extra


def _factors(covariances, mode, reg):
    """Every component's log-determinant and whitening matrix, and the escalations.

    Returns ``(logdet, w, escalations)``: ``logdet`` is (k,) and ``w`` is
    (k, d, d) with ``w[c] = inv(L_c)``, or (1,) and (1, d, d) for the one
    tied factor; ``escalations`` lists ``(component, extra)`` for each
    factor that needed ``extra*I``. Every component goes through
    :func:`_whitening`, whose ladder regularizes a failing factor and names
    a degenerate one.
    """
    if mode == "tied":
        covariances = covariances[None]
    logdet, w, extra = zip(*(_whitening(cov, reg, c) for c, cov in enumerate(covariances)))
    return np.array(logdet), np.stack(w), [(c, e) for c, e in enumerate(extra) if e]


def _log_density(aug, offsets, covariances, mode, reg):
    """Log N(x | mean_c, cov_c) for every component and row, (k, n), and the escalations.

    ``aug`` is ``[rows - centre | 1]``, (n, d + 1), for one centre per fit,
    and ``offsets`` is ``means - centre``, (k, d). Component c's whitened
    rows are ``[w_c | -w_c @ offset_c] @ aug.T`` with ``w_c = inv(L_c)``
    from :func:`_factors`, so one stacked ``np.matmul`` over (k, d, d + 1)
    gives all k at once, and no pass subtracts a mean from the rows.
    Centring keeps the folded offset small, so a translated data set gives
    the same densities to roundoff. The escalations are those of
    :func:`_factors`.
    """
    logdet, w, escalations = _factors(covariances, mode, reg)
    k, d = offsets.shape
    wt = np.empty((k, d, d + 1))
    wt[:, :, :d] = w
    wt[:, :, d] = -np.matmul(w, offsets[:, :, None])[:, :, 0]
    y = np.matmul(wt, aug.T)
    np.square(y, out=y)
    out = y.sum(axis=1)
    out += (d * _LOG_2PI + logdet)[:, None]
    out *= -0.5
    return out, escalations


def _e_step(aug, weights, offsets, covariances, mode, reg):
    """Responsibilities (k, n), mean log-likelihood and escalations under these parameters."""
    weighted, escalations = _log_density(aug, offsets, covariances, mode, reg)
    weighted += np.log(np.maximum(weights, 1e-300))[:, None]
    top = weighted.max(axis=0)
    log_norm = top + np.log(np.exp(weighted - top).sum(axis=0))
    weighted -= log_norm
    return np.exp(weighted, out=weighted), float(log_norm.mean()), escalations


def _covariances(scatter, counts, total, mode, reg):
    """Pool centred scatter matrices into the mode's covariances, plus reg*I.

    ``scatter`` is (k, d, d), or one (1, d, d) matrix that all ``counts.size``
    components share. Full divides each by its count, diag keeps the diagonal
    of that, and tied sums them and divides by ``total``, the sample count.
    """
    cov = scatter.sum(axis=0) / total if mode == "tied" else scatter / counts[:, None, None]
    diag = np.arange(cov.shape[-1])
    cov[..., diag, diag] += reg
    return cov[..., diag, diag] if mode == "diag" else cov


def gmm(x, cfg: ClusterConfig, mode="full") -> ClusterResult:
    """Fit a k-component Gaussian mixture and hard-assign by responsibility.

    Stops once the mean log-likelihood improves by at most ``cfg.tol``
    (default 1e-4) or at ``cfg.max_iters``. Ties in the final argmax break
    toward the lowest component index. ``mode`` picks the covariance
    structure: ``"tied"``, ``"diag"`` or ``"full"`` (the default). A
    log-likelihood that is not finite (rows whose squares overflow) raises
    NonConvergenceError. ``diagnostics["interventions"]`` lists every
    factor that needed more than the 1e-6 ridge as ``{"iteration",
    "component", "extra"}``: ``iteration`` indexes the E-step (the trace
    entry, or ``max_iters`` for the closing E-step of a capped fit), tied
    mode's one factor is component 0, and ``extra`` is the shift that
    factored. It is empty on a clean fit.
    """
    if mode not in COVARIANCE_MODES:
        raise ConfigError(f"covariance mode must be one of {COVARIANCE_MODES}, got {mode!r}")
    rows = as_rows(x)
    n, d = rows.shape
    cfg.validate_for(n)
    k = cfg.k
    reg = _COVARIANCE_REG

    means = kmeans(rows, cfg).centroids.copy()
    weights = np.full(k, 1.0 / k)
    centre = rows.mean(axis=0)
    centred = rows - centre
    covariances = _covariances((centred.T @ centred)[None], np.full(k, float(n)), n, mode, reg)
    aug = np.hstack([centred, np.ones((n, 1))])

    trace, interventions = [], []
    tiny = 10.0 * np.finfo(np.float64).eps
    for iteration in range(cfg.max_iters + 1):
        resp, mean_ll, escalations = _e_step(aug, weights, means - centre, covariances, mode, reg)
        if not math.isfinite(mean_ll):
            raise NonConvergenceError(f"EM step {iteration}: log-likelihood {mean_ll} (overflow)")
        interventions += (
            {"iteration": iteration, "component": c, "extra": extra} for c, extra in escalations
        )
        if iteration == cfg.max_iters:
            break  # the last M-step moved the parameters: label the rows by the returned ones
        converged = bool(trace) and mean_ll - trace[-1] <= cfg.tol
        trace.append(mean_ll)
        if converged:
            break

        nk = resp.sum(axis=1)
        nk_safe = np.maximum(nk, tiny)
        weights = nk / n
        means = (resp @ rows) / nk_safe[:, None]
        scatter = np.empty((k, d, d))
        for c in range(k):
            diff = rows - means[c]
            scatter[c] = (diff * resp[c][:, None]).T @ diff
        covariances = _covariances(scatter, nk_safe, n, mode, reg)
    labels = np.argmax(resp, axis=0)
    model = GmmModel(weights=weights, means=means, covariances=covariances, mode=mode)
    return ClusterResult(
        labels=labels,
        centroids=means,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
        model=model,
        diagnostics={"interventions": interventions},
    )
