"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
data problems exit 2, numeric failures exit 3.  It also maps Python's
``MemoryError`` and a broken process pool (``BrokenExecutor``, raised
when a worker dies) onto exit 2.
"""


class GcmiError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(GcmiError, ValueError):
    """Array dimensions are incompatible with the requested operation."""


class NumericError(GcmiError, ArithmeticError):
    """Non-finite values appeared where finite arithmetic was required."""


class DataError(GcmiError, ValueError):
    """Input data is malformed or unusable (parse errors, empty input, ...)."""


class UnimputableColumnError(DataError):
    """A column has no observed values to learn or fill from."""


class InsufficientDataError(DataError):
    """Too few observations/imputations for the requested operation."""


class ConfigError(GcmiError, ValueError):
    """Bad configuration file or option combination."""
