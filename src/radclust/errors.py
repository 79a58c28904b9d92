"""Exception taxonomy shared across the package.

Each class carries the CLI's ``exit_code`` for it: usage and configuration
problems exit with 1, data and parse problems with 2, numeric failures
with 3. Every class survives ``pickle`` and ``copy.deepcopy`` with its
message and attributes.
"""


def _rebuild(cls, args, attributes):
    """A ``cls`` with ``args`` and ``attributes``, made without calling its ``__init__``."""
    error = cls.__new__(cls, *args)
    error.__dict__.update(attributes)
    return error


class RadclustError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 2

    def __reduce__(self):
        # Exception's own reduce calls cls(*args), which drops keyword-only attributes
        return _rebuild, (type(self), self.args, self.__dict__)


class UsageError(RadclustError):
    """Bad command-line usage: unknown subcommand, flag, or flag value."""
    exit_code = 1


class ConfigError(RadclustError):
    """A configuration value is invalid or inconsistent with the data (e.g. k > n)."""
    exit_code = 1


class ParseError(RadclustError):
    """Malformed input bytes or text.

    Carries the byte ``offset`` (binary formats, and text that is not
    UTF-8) or the 1-based ``line`` number (text formats) of the failure
    when known.
    """
    exit_code = 2

    def __init__(self, message, *, offset=None, line=None):
        super().__init__(message)
        self.offset = offset
        self.line = line


class DataError(RadclustError):
    """Input parses but is unusable: missing file, id mismatch, and so on."""
    exit_code = 2


class BoundsError(RadclustError):
    """A rectangle or index falls outside its container."""
    exit_code = 2


class ShapeError(RadclustError):
    """Tensor or matrix dimensions do not line up."""
    exit_code = 2


class NonConvergenceError(RadclustError):
    """A solver hit its iteration cap, failed, or was given non-finite input."""
    exit_code = 3


class DegenerateComponentError(RadclustError):
    """A mixture component stayed non positive definite after regularization."""
    exit_code = 3

    def __init__(self, message, *, component):
        super().__init__(message)
        self.component = component
