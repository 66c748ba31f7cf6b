"""Exception hierarchy shared across the package.

The CLI maps each top-level class to exactly one exit code (see
``greycast.cli.main``); library code raises the most specific subclass
that applies.
"""


class GreycastError(Exception):
    """Base class for all package errors."""


class ConfigError(GreycastError):
    """Invalid configuration value, unknown key, or malformed flag."""


class MissingInputError(GreycastError):
    """An input file does not exist or cannot be read."""


class CsvParseError(GreycastError):
    """A CSV input could not be parsed; the message names the offending row."""


class DataError(GreycastError):
    """Input data violates a precondition (length, sign, alignment, ...)."""


class EmptySeriesError(DataError):
    """An operation received an empty series."""


class InsufficientDataError(DataError):
    """The series is too short for the requested operation."""


class PositivityError(DataError):
    """A method requiring strictly positive values received a non-positive one."""


class DegeneracyError(DataError):
    """Zero denominator, zero variance, or otherwise degenerate input."""


class NumericError(GreycastError):
    """Numeric failure while fitting, simulating, or training."""


class SingularSystemError(NumericError):
    """A linear system required by a fit is rank deficient."""


class RecursionOverflowError(NumericError):
    """A model recursion left the representable range."""


class DivergenceError(NumericError):
    """Training diverged (non-finite loss)."""
