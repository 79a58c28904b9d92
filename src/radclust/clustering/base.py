"""Configuration and result records shared by all clustering variants."""

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ConfigError

INIT_MODES = ("first_k", "kmeans++")
# What a field annotated int or float accepts; one that defaults to None may be None.
# bool is an Integral, but True is no count or tolerance, so no number field takes one.
_NUMBER_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


@dataclass
class ClusterConfig:
    """Knobs for one clustering run.

    ``tol`` is interpreted by each algorithm's own stopping rule: relative
    SSE change for k-means, maximum center movement for mini-batch k-means,
    and absolute mean log-likelihood improvement for Gaussian mixtures.
    Values no caller varies are constants in their algorithm's module.
    """

    k: int
    seed: int = 0
    max_iters: int = 100
    tol: float = 1e-4
    init: str = "first_k"
    restarts: int = 1
    batch_size: int = None
    rbf_sigma: float = None
    birch_threshold: float = None

    def validate_for(self, n):
        """Check every field, and k against the sample count ``n``."""
        self.validate()
        if not 1 <= self.k <= n:
            raise ConfigError(f"k must satisfy 1 <= k <= n={n}, got {self.k}")

    def validate(self):
        """Check what does not depend on the data; a ConfigError names the field."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in _NUMBER_TYPES or (value is None and f.default is None):
                continue
            kind, noun = _NUMBER_TYPES[f.type]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.init not in INIT_MODES:
            raise ConfigError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.rbf_sigma is not None and not self.rbf_sigma > 0:
            raise ConfigError(f"rbf_sigma must be positive, got {self.rbf_sigma}")
        if self.birch_threshold is not None and not self.birch_threshold > 0:
            raise ConfigError(f"birch_threshold must be positive, got {self.birch_threshold}")


@dataclass(eq=False)
class ClusterResult:
    """Labels plus whatever the algorithm can say about how it got them.

    ``objective_trace`` is per-iteration and monotone per the owning
    algorithm's contract (non-increasing SSE for k-means, non-decreasing
    merge heights for agglomerative, non-decreasing log-likelihood for
    mixtures); mini-batch k-means records batch inertia, which is not.
    ``model`` holds the richer fitted object when one exists.
    """

    labels: np.ndarray
    centroids: np.ndarray = None
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    model: object = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
