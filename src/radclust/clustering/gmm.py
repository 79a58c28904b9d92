"""Gaussian mixture models fit by EM, with tied, diagonal, or full covariances.

Means start from a seeded k-means run, weights start uniform, and every
covariance starts from the global sample covariance restricted to the mode.
The covariance mode enters in two places only:

- the E-step is one per-component loop for every mode. Each component
  whitens its centred rows with the transposed inverse of a Cholesky factor
  from numpy's LAPACK, which tied mode factors once for all components and
  diag mode writes in closed form, ``diag(1 / sqrt(var))``;
- the M-step is one loop that builds each component's centred scatter
  matrix, and :func:`_covariances` pools them per mode. Fed the global
  scatter, the same helper gives the initial covariances.

The E-step works in log space through log-sum-exp; every covariance gets
``_COVARIANCE_REG`` (1e-6) on its diagonal. The objective is the mean
per-sample log-likelihood and never decreases.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateComponentError
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
    """Log-determinant of cov and the transposed inverse of its Cholesky factor L.

    With ``y = (x - mean) @ inv(L).T``, ``y @ y`` is the Mahalanobis form
    ``(x - mean) @ inv(cov) @ (x - mean)``. A diag mode's variance vector
    takes the closed form ``(sum(log(var)), diag(1 / sqrt(var)))``. A matrix
    is factored as it stands by ``np.linalg.cholesky`` (LAPACK reads its
    lower triangle). When that raises, or gives a non-finite factor (numpy
    does not raise on NaN), it is retried on ``cov + extra*I``, ``extra``
    rising from ``reg`` by 10x, and past 1e-2 a DegenerateComponentError
    names ``component``.
    """
    if cov.ndim == 1:
        return float(np.log(cov).sum()), np.diag(1.0 / np.sqrt(cov))
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
    return 2.0 * float(np.log(np.diag(L)).sum()), np.linalg.inv(L).T


def _log_density(rows, means, covariances, mode, reg):
    """Log N(x | mean_c, cov_c) for every row and component: (n, k).

    One loop serves every mode: each component whitens its centred rows with
    its :func:`_whitening` factor, which tied mode computes once for all.
    """
    n, d = rows.shape
    k = means.shape[0]
    out = np.empty((n, k))
    tied = _whitening(covariances, reg, 0) if mode == "tied" else None
    for c in range(k):
        logdet, linv_t = tied if tied is not None else _whitening(covariances[c], reg, c)
        y = (rows - means[c]) @ linv_t
        out[:, c] = -0.5 * (d * _LOG_2PI + logdet + np.einsum("nd,nd->n", y, y))
    return out


def _e_step(rows, weights, means, covariances, mode, reg):
    """Responsibilities and mean log-likelihood under the current parameters."""
    log_prob = _log_density(rows, means, covariances, mode, reg)
    weighted = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
    top = weighted.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(weighted - top).sum(axis=1))
    resp = np.exp(weighted - log_norm[:, None])
    return resp, float(log_norm.mean())


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
    centred = rows - rows.mean(axis=0)
    covariances = _covariances((centred.T @ centred)[None], np.full(k, float(n)), n, mode, reg)

    trace = []
    tiny = 10.0 * np.finfo(np.float64).eps
    for _ in range(cfg.max_iters):
        resp, mean_ll = _e_step(rows, weights, means, covariances, mode, reg)
        converged = bool(trace) and mean_ll - trace[-1] <= cfg.tol
        trace.append(mean_ll)
        if converged:
            break

        nk = resp.sum(axis=0)
        nk_safe = np.maximum(nk, tiny)
        weights = nk / n
        means = (resp.T @ rows) / nk_safe[:, None]
        scatter = np.empty((k, d, d))
        for c in range(k):
            diff = rows - means[c]
            scatter[c] = (diff * resp[:, c:c + 1]).T @ diff
        covariances = _covariances(scatter, nk_safe, n, mode, reg)
    else:
        # the last M-step moved the parameters: label the rows by the returned ones
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
