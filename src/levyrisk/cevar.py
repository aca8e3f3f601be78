"""Cumulative EVaR: the weighted time-integral of EVaR over [0, T]."""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ._quad import adaptive_simpson
from .evar import WarmStart, evar_at, limit_onset
from .factors import FactorCombination

__all__ = [
    "WeightFunction",
    "CevarQuery",
    "cevar",
]


@dataclass(frozen=True)
class WeightFunction:
    """Weight density omega on [0, T] with unit mass.

    ``uniform`` is omega(t) = 1/T.  ``table`` interpolates linearly between
    knots (t_k, w_k) that must span [0, T]; normalisation is checked when the
    weight is bound to a horizon.
    """

    kind: str = "uniform"
    knots: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "table"):
            raise ValueError(f"weight kind must be 'uniform' or 'table', got {self.kind!r}")
        if self.kind == "table":
            if len(self.knots) < 2:
                raise ValueError("table weight needs at least two knots")
            ts = [t for t, _ in self.knots]
            ws = [w for _, w in self.knots]
            if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
                raise ValueError("table knot times must be strictly increasing")
            if any(w < 0 for w in ws):
                raise ValueError("table weight values must be nonnegative")

    @classmethod
    def table(cls, knots: Sequence[Tuple[float, float]]) -> "WeightFunction":
        return cls(kind="table", knots=tuple((float(t), float(w)) for t, w in knots))

    def check_span(self, T: float, tol: float = 1e-9) -> None:
        if self.kind == "table":
            ts = [t for t, _ in self.knots]
            if abs(ts[0]) > tol * (1 + T) or abs(ts[-1] - T) > tol * (1 + T):
                raise ValueError(
                    f"table weight knots span [{ts[0]}, {ts[-1]}] but the horizon is [0, {T}]"
                )
            mass = self.mass(T)
            if abs(mass - 1.0) > tol:
                raise ValueError(f"weight is not normalised: integral = {mass!r}")

    def density(self, t: float, T: float) -> float:
        if self.kind == "uniform":
            return 1.0 / T
        ts = [k[0] for k in self.knots]
        ws = [k[1] for k in self.knots]
        if t <= ts[0]:
            return ws[0]
        if t >= ts[-1]:
            return ws[-1]
        i = bisect.bisect_right(ts, t) - 1
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        return ws[i] + frac * (ws[i + 1] - ws[i])

    def mass(self, T: float) -> float:
        """Integral of omega over [0, T]; trapezoid is exact for table kind."""
        if self.kind == "uniform":
            return 1.0
        acc = 0.0
        for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
            acc += 0.5 * (w0 + w1) * (t1 - t0)
        return acc

    def time_moment(self, T: float) -> float:
        """Integral of t*omega(t) over [0, T]; exact per linear segment."""
        if self.kind == "uniform":
            return T / 2.0
        acc = 0.0
        for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
            dt = t1 - t0
            c1 = (w1 - w0) / dt
            c0 = w0 - c1 * t0
            acc += c0 * (t1 * t1 - t0 * t0) / 2.0 + c1 * (t1 ** 3 - t0 ** 3) / 3.0
        return acc

    def breakpoints(self, T: float) -> list:
        if self.kind == "uniform":
            return []
        return [t for t, _ in self.knots]

    def normalized(self, T: float) -> "WeightFunction":
        if self.kind == "uniform":
            return self
        mass = self.mass(T)
        if not (mass > 0.0):
            raise ValueError("table weight has zero mass and cannot be normalised")
        return WeightFunction.table([(t, w / mass) for t, w in self.knots])


@dataclass(frozen=True)
class CevarQuery:
    """Position, horizon T > 0, beta in (0, 1], weight and quadrature tolerance."""

    combination: FactorCombination
    T: float
    beta: float
    weight: WeightFunction = field(default_factory=WeightFunction)
    quad_tol: Optional[float] = None

    def __post_init__(self):
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise ValueError(f"T must be a positive finite real, got {self.T}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


def horizon_integral(combination: FactorCombination, beta: float, weight: WeightFunction,
                     T: float, tol: Optional[float], point):
    """integral_0^T point(t, s*(t), omega(t)) dt along the warm-started path s*(t).

    ``point`` maps a horizon, its point from :func:`solve_stationary` and the
    weight density there to the weighted integrand: a float, a sequence of
    floats or a numpy array.  The segments break at the weight knots and at
    the compound-Poisson onset, where the integrands have kinks; ``tol=None``
    asks the quadrature for its relative default.
    """
    weight.check_span(T)
    path = WarmStart(combination, beta)
    onset = limit_onset(combination, beta)
    breaks = weight.breakpoints(T) + ([onset] if onset is not None and onset < T else [])

    def integrand(t):
        return point(t, path(t), weight.density(t, T))

    return adaptive_simpson(integrand, 0.0, T, tol, breakpoints=breaks)


def cevar(query: CevarQuery) -> float:
    """Adaptive-quadrature value of integral_0^T EVaR_{1-beta}(X_t) omega(t) dt."""
    comb, beta = query.combination, query.beta
    return horizon_integral(comb, beta, query.weight, query.T, query.quad_tol,
                            lambda t, s, w: evar_at(comb, t, beta, s) * w)
