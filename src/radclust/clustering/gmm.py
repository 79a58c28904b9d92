"""Gaussian mixture models fit by EM, with tied, diagonal, or full covariances.

Means start from a seeded k-means run, weights start uniform, and every
covariance starts from the global sample covariance restricted to the mode.
The E-step works in log space through log-sum-exp; each M-step adds
``_COVARIANCE_REG`` (1e-6) to the covariance diagonals. The objective is the
mean per-sample log-likelihood and never decreases.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateComponentError, NotPositiveDefiniteError
from ..features import as_rows
from ..numerics import cholesky
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


def _solve_lower(L, b):
    """Forward substitution: solve L @ y = b for lower-triangular L.

    ``b`` has shape (d, m); loops over d only, so it stays cheap for the
    small dimensions used here.
    """
    d = L.shape[0]
    y = np.empty_like(b)
    for i in range(d):
        y[i] = (b[i] - L[i, :i] @ y[:i]) / L[i, i]
    return y


def _chol_with_escalation(cov, reg, component):
    """Cholesky of cov + extra*I, escalating extra from 0 by 10x up to 1e-2."""
    extra = 0.0
    while True:
        try:
            shifted = cov if extra == 0.0 else cov + extra * np.eye(cov.shape[0])
            return cholesky(shifted), shifted
        except NotPositiveDefiniteError:
            extra = reg if extra == 0.0 else extra * 10.0
            if extra > 1e-2:
                raise DegenerateComponentError(
                    f"degenerate component {component}: covariance stayed "
                    "non-positive-definite after regularization up to 1e-02",
                    component=component,
                ) from None


def _log_density(rows, means, covariances, mode, reg):
    """Log N(x | mean_c, cov_c) for every row and component: (n, k)."""
    n, d = rows.shape
    k = means.shape[0]
    out = np.empty((n, k))
    if mode == "diag":
        for c in range(k):
            var = covariances[c]
            diff = rows - means[c]
            q = ((diff * diff) / var[None, :]).sum(axis=1)
            out[:, c] = -0.5 * (d * _LOG_2PI + np.log(var).sum() + q)
        return out
    if mode == "tied":
        L, _ = _chol_with_escalation(covariances, reg, 0)
        logdet = 2.0 * float(np.log(np.diag(L)).sum())
        for c in range(k):
            y = _solve_lower(L, (rows - means[c]).T)
            out[:, c] = -0.5 * (d * _LOG_2PI + logdet + (y * y).sum(axis=0))
        return out
    for c in range(k):
        L, _ = _chol_with_escalation(covariances[c], reg, c)
        logdet = 2.0 * float(np.log(np.diag(L)).sum())
        y = _solve_lower(L, (rows - means[c]).T)
        out[:, c] = -0.5 * (d * _LOG_2PI + logdet + (y * y).sum(axis=0))
    return out


def _e_step(rows, weights, means, covariances, mode, reg):
    """Responsibilities and mean log-likelihood under the current parameters."""
    log_prob = _log_density(rows, means, covariances, mode, reg)
    weighted = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
    top = weighted.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(weighted - top).sum(axis=1))
    resp = np.exp(weighted - log_norm[:, None])
    return resp, float(log_norm.mean())


def _initial_covariances(rows, mode, reg, k):
    d = rows.shape[1]
    diff = rows - rows.mean(axis=0)
    cov = diff.T @ diff / rows.shape[0] + reg * np.eye(d)
    if mode == "full":
        return np.repeat(cov[None, :, :], k, axis=0)
    if mode == "diag":
        return np.repeat(np.diag(cov)[None, :], k, axis=0)
    return cov


def gmm(x, cfg: ClusterConfig, mode="full") -> ClusterResult:
    """Fit a k-component Gaussian mixture and hard-assign by responsibility.

    Stops once the mean log-likelihood improves by at most ``cfg.tol``
    (default 1e-4) or at ``cfg.max_iters``. Ties in the final argmax break
    toward the lowest component index. ``mode`` picks the covariance
    structure: ``"tied"``, ``"diag"`` or ``"full"`` (the default).
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
    covariances = _initial_covariances(rows, mode, reg, k)

    trace = []
    converged = False
    tiny = 10.0 * np.finfo(np.float64).eps
    for _ in range(cfg.max_iters):
        resp, mean_ll = _e_step(rows, weights, means, covariances, mode, reg)
        if trace and mean_ll - trace[-1] <= cfg.tol:
            trace.append(mean_ll)
            converged = True
            break
        trace.append(mean_ll)

        nk = resp.sum(axis=0)
        nk_safe = np.maximum(nk, tiny)
        weights = nk / n
        means = (resp.T @ rows) / nk_safe[:, None]
        if mode == "full":
            covariances = np.empty((k, d, d))
            for c in range(k):
                diff = rows - means[c]
                covariances[c] = (diff * resp[:, c:c + 1]).T @ diff / nk_safe[c]
                covariances[c][np.diag_indices(d)] += reg
        elif mode == "diag":
            covariances = np.empty((k, d))
            for c in range(k):
                diff = rows - means[c]
                covariances[c] = (resp[:, c:c + 1] * diff * diff).sum(axis=0) / nk_safe[c] + reg
        else:
            pooled = np.zeros((d, d))
            for c in range(k):
                diff = rows - means[c]
                pooled += (diff * resp[:, c:c + 1]).T @ diff
            covariances = pooled / n
            covariances[np.diag_indices(d)] += reg

    # final E-step so labels always reflect the returned parameters (a no-op
    # numerically when the loop broke on convergence)
    resp, _ = _e_step(rows, weights, means, covariances, mode, reg)
    labels = np.argmax(resp, axis=1)
    model = GmmModel(weights=weights, means=means, covariances=covariances, mode=mode)
    return ClusterResult(
        labels=labels,
        centroids=means,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
        model=model,
    )
