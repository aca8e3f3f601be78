"""Exception types shared across the library."""

__all__ = ["LevyRiskError", "DomainError", "NoStationaryPointError", "QuadratureBudgetError",
           "ConfigError"]


class LevyRiskError(Exception):
    """Base class for library errors."""


class DomainError(LevyRiskError, ValueError):
    """An argument lies outside the admissible domain of a Laplace exponent."""


class NoStationaryPointError(LevyRiskError):
    """The stationarity equation has no positive root.

    ``boundary`` records which end of (0, inf) carries the infimum.
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
