"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage and configuration problems exit
with 1, data and parse problems with 2, numeric failures with 3.
"""


class RadclustError(Exception):
    """Base class for every error raised by this package."""


class UsageError(RadclustError):
    """Bad command-line usage: unknown subcommand, flag, or flag value."""


class ConfigError(RadclustError):
    """A configuration value is inconsistent with the data (e.g. k > n)."""


class ParseError(RadclustError):
    """Malformed input bytes or text.

    Carries the byte ``offset`` (binary formats) or the 1-based ``line``
    number (text formats) of the failure when known.
    """

    def __init__(self, message, *, offset=None, line=None):
        super().__init__(message)
        self.offset = offset
        self.line = line


class DataError(RadclustError):
    """Input parses but is unusable: missing file, id mismatch, and so on."""


class BoundsError(RadclustError):
    """A rectangle or index falls outside its container."""


class ShapeError(RadclustError):
    """Tensor or matrix dimensions do not line up."""


class NonConvergenceError(RadclustError):
    """A solver hit its iteration cap, failed, or was given non-finite input.

    ``residual`` holds the remaining off-diagonal norm (or equivalent
    convergence measure) at the point of failure, or None when the solver
    reports none.
    """

    def __init__(self, message, *, residual=None):
        super().__init__(message)
        self.residual = residual


class NotPositiveDefiniteError(RadclustError):
    """Cholesky failed; ``pivot`` is the index of the failing pivot."""

    def __init__(self, message, *, pivot):
        super().__init__(message)
        self.pivot = pivot


class DegenerateComponentError(RadclustError):
    """A mixture component stayed non positive definite after regularization."""

    def __init__(self, message, *, component):
        super().__init__(message)
        self.component = component
