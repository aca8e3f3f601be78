"""Exception types shared across the library, and its one finiteness rule."""
import math

import numpy as np

__all__ = ["LevyRiskError", "DomainError", "NoStationaryPointError", "QuadratureBudgetError",
           "ConfigError"]


class LevyRiskError(Exception):
    """Base class for library errors."""


class DomainError(LevyRiskError, ValueError):
    """An argument lies outside the admissible domain of a Laplace exponent."""


class NoStationaryPointError(LevyRiskError):
    """The stationary root lies outside the solver's range [1e-300, 1e300].

    Raised only for a root below 1e-300, or for one above 1e300 when a
    Brownian factor makes the s -> inf limit infinite; the other boundary
    limits are values, not errors.  ``boundary`` records the end of the range
    beyond which the root lies.
    """

    def __init__(self, message, boundary):
        super().__init__(message)
        self.boundary = boundary


class QuadratureBudgetError(LevyRiskError):
    """Adaptive quadrature exhausted its evaluation budget.

    ``partial`` holds the best estimate accumulated before giving up.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigError(LevyRiskError, ValueError):
    """A portfolio configuration file failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def finite(value, what: str):
    """``value`` if it is finite (a float, or every entry of an array); DomainError otherwise."""
    if not (math.isfinite(value) if isinstance(value, float)
            else np.count_nonzero(np.isfinite(value)) == value.size):
        raise DomainError(f"{what} is not finite: the inputs leave float range")
    return value
