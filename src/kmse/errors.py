"""Exception types shared across the package, and its one parameter check."""

import math


class KmseError(Exception):
    """Base class for all package errors."""


class InputError(KmseError):
    """Invalid argument or malformed input data."""


def require_positive(name: str, value: float) -> None:
    """Refuse a parameter that is nan, zero, negative or infinite."""
    if not 0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, got {value}")


class ConfigurationError(KmseError):
    """Estimator or filter configuration incompatible with the problem,
    e.g. a Landweber step size exceeding the spectrum bound."""


class DefinitenessError(KmseError):
    """A solve required a positive definite matrix and hit a non-positive pivot."""


class ConvergenceError(KmseError):
    """An iterative routine failed to converge or diverged."""


class DegenerateBandwidthError(InputError):
    """The median heuristic produced a zero bandwidth."""


class CsvParseError(InputError):
    """CSV input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ReplicationError(KmseError):
    """A Monte-Carlo replication failed; carries the replication index and
    the estimator whose fit failed (None when a step shared by every
    estimator failed: the draw, the sample, the Gram matrix or the truth)."""

    def __init__(self, index: int, cause: Exception, estimator: str | None = None):
        where = "" if estimator is None else f" ({estimator})"
        super().__init__(f"replication {index} failed{where}: {cause}")
        self.index = index
        self.cause = cause
        self.estimator = estimator
