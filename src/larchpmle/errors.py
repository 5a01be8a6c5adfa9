"""Exception hierarchy for the larchpmle package.

All package errors derive from :class:`LarchError` so callers (and the CLI)
can distinguish numeric/domain failures from programming errors.
"""


class LarchError(Exception):
    """Base class for all larchpmle errors."""


class DomainError(LarchError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """A requested infinite sum or norm does not converge."""


class ValidationError(LarchError, ValueError):
    """A parameter vector violates the parameter-space constraints."""


class UnsupportedError(LarchError):
    """A coefficient-family / derivative-order combination is not implemented."""


class WindowError(LarchError):
    """The evaluation window is degenerate (too few time points)."""


class NumericError(LarchError):
    """A non-finite intermediate value was produced."""


class MissingMomentError(LarchError, KeyError):
    """A required innovation moment was not supplied."""


class SingularityError(LarchError):
    """A matrix required to be positive definite is (near-)singular."""


class DataError(LarchError, ValueError):
    """An input file or series could not be parsed or is invalid."""


class InsufficientDataError(LarchError):
    """Too few usable data points for the requested fit or summary."""
