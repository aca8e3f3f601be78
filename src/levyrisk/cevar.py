"""Cumulative EVaR: the weighted time-integral of EVaR over [0, T]."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._quad import adaptive_simpson
from .errors import DomainError, finite
from .evar import X_MAX, X_MIN, evar_at, solve_stationary
from .factors import FactorCombination

__all__ = [
    "WeightFunction",
    "CevarQuery",
    "cevar",
]

# The horizon integral in x = ln(s) ends at s*(EPS * T) when that point is
# interior (see horizon_integral); the dropped part of [0, T] is ~EPS of it.
EPS = 1e-18
_SPAN_TOL = 1e-9  # slack of a table weight's span (relative to 1 + T) and mass


def _inverse_horizon(T: float) -> float:
    """1/T for a horizon T > 0.  DomainError where it leaves float range (T below
    ~5.6e-309): no weight on [0, T] has unit mass there."""
    if not T > 0.0:
        raise ValueError(f"the horizon T must be positive, got {T!r}")
    return finite(1.0 / T, f"1/T at the horizon T = {T!r}")


@dataclass(frozen=True)
class WeightFunction:
    """Weight density omega on [0, T] with unit mass, linear between knots
    (t_k, w_k) that must span [0, T]: ``check_span``, called when a
    ``FactorPortfolio`` or a ``CevarQuery`` is built.  The default weight is
    ``uniform(T)``, the two knots (0, 1/T) and (T, 1/T).  The knot times and
    values are also kept as two arrays, built once, for ``density``.
    """

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("table weight needs at least two knots")
        ts = [t for t, _ in self.knots]
        ws = [w for _, w in self.knots]
        if not all(math.isfinite(v) for v in ts + ws):
            raise ValueError("table knot times and values must be finite")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("table knot times must be strictly increasing")
        if any(w < 0 for w in ws):
            raise ValueError("table weight values must be nonnegative")
        object.__setattr__(self, "_times", np.array(ts, dtype=float))
        object.__setattr__(self, "_values", np.array(ws, dtype=float))

    @classmethod
    def table(cls, knots: Sequence[Tuple[float, float]]) -> "WeightFunction":
        return cls(tuple((float(t), float(w)) for t, w in knots))

    @classmethod
    def uniform(cls, T: float) -> "WeightFunction":
        """omega = 1/T on [0, T]: the knots (0, 1/T) and (T, 1/T)."""
        w = _inverse_horizon(T)
        return cls.table([(0.0, w), (T, w)])

    def check_span(self, T: float) -> None:
        _inverse_horizon(T)
        # Each test is written as "not within", so that a NaN fails it.
        ts, slack = [t for t, _ in self.knots], _SPAN_TOL * (1 + T)
        if not (abs(ts[0]) <= slack and abs(ts[-1] - T) <= slack):
            raise ValueError(
                f"table weight knots span [{ts[0]}, {ts[-1]}] but the horizon is [0, {T}]"
            )
        mass = self.mass()
        if not abs(mass - 1.0) <= _SPAN_TOL:
            raise ValueError(f"weight is not normalised: integral = {mass!r}")

    def density(self, t):
        """omega at t, a float or a numpy array of horizons."""
        return np.interp(t, self._times, self._values)

    def mass(self) -> float:
        """Integral of omega over its knots; the trapezoid is exact per linear
        segment, and each time x weight product stays in float range."""
        acc = 0.0
        for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
            acc += (t1 - t0) * (0.5 * w0 + 0.5 * w1)
        return acc

    def time_moment(self, upper: Optional[float] = None) -> float:
        """Integral of t*omega(t) up to ``upper`` (over all knots by default),
        exact per linear segment; DomainError where it is not finite."""
        acc = 0.0
        for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
            if upper is not None and t0 >= upper:
                break
            if upper is not None and upper < t1:
                # The segment ends at upper, with its weight there.
                t1, w1 = upper, w0 + (w1 - w0) * ((upper - t0) / (t1 - t0))
            # dt * ((2 t0 + t1) w0 + (t0 + 2 t1) w1) / 6 with the times quartered:
            # time x weight products, no t^2 (which overflows for knots beyond
            # ~5.6e102) and no time sum above 3/4 of a knot (none overflows).
            acc += (t1 - t0) * ((0.5 * t0 + 0.25 * t1) * w0 + (0.25 * t0 + 0.5 * t1) * w1) / 1.5
        return finite(acc, "the weight's time moment")

    def breakpoints(self) -> list:
        return [t for t, _ in self.knots]

    def normalized(self, T: float) -> "WeightFunction":
        """The weight divided by its mass.  ``T`` is unused: it is kept for
        the callers that pass it (``bench/workloads.py``)."""
        mass = self.mass()
        if not 0.0 < mass < math.inf:
            raise ValueError(f"table weight has mass {mass!r}, not a positive finite "
                             "number, and cannot be normalised")
        return WeightFunction.table([(t, w / mass) for t, w in self.knots])


@dataclass(frozen=True)
class CevarQuery:
    """Position, horizon T > 0, beta in (0, 1] and a weight that spans [0, T];
    ``weight=None`` is ``WeightFunction.uniform(T)``."""

    combination: FactorCombination
    T: float
    beta: float
    weight: Optional[WeightFunction] = None

    def __post_init__(self):
        # As Python floats, for the reason given in EvarQuery.
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "beta", float(self.beta))
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise ValueError(f"T must be a positive finite real, got {self.T}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.weight is None:
            object.__setattr__(self, "weight", WeightFunction.uniform(self.T))
        self.weight.check_span(self.T)


def horizon_integral(combination: FactorCombination, beta: float, weight: WeightFunction,
                     T: float):
    """The factor shares C_j = integral_0^T -t * d_j * phi_j'(s*(t) d_j) omega(t) dt
    of the CEVaR along the stationary curve, one per active factor, for
    beta < 1, a nonzero position and a weight that spans [0, T] (checked when
    its portfolio or query was built).

    -t * phi_j'(s*(t) d_j) is factor j's term (``combination.slopes``), and
    -t * slope_j where the infimum sits at s -> inf.  EVaR is linear in the
    terms, so the CEVaR is sum_j C_j, and the Euler allocation of a
    portfolio is L^i = sum_j (a_ij / D_j) C_j plus its premium term
    (:func:`levyrisk.allocation.allocate`): the integral has m rows
    whatever the number of departments.

    The stationarity equation t * gap(s) = -ln(beta) is linear in t, so the
    curve has the explicit inverse tau(s) = -ln(beta) / gap(s), decreasing in
    s, and the integral runs in x = ln(s), where dt = -tau * F'(x) dx with
    F'(x) = -s^2 phi''(s) / gap(s) in (0, 2]: every node is one explicit
    evaluation on an array of points, and the only solves are s*(T), the end
    of the range and s*(t_k) at the interior weight knots, whose kinks break
    the range into segments.  The last two start from the tangent of the
    curve at x_T = ln s*(T), x_T + (ln T - ln t) / F'(x_T), in [X_MIN, X_MAX];
    from the cold start instead where t underflows to 0 (EPS * T, for T
    below ~2.5e-306) or F'(x_T) is not in (0, inf).  The range ends at
    ln s*(EPS * T) when that point is interior, and the rest of [0, T], at
    most ~EPS of the integral, is dropped.  Otherwise it ends at X_MAX, and
    on [0, tau(e^X_MAX)] the infimum is the s -> inf limit of
    :mod:`levyrisk.evar`, linear in t and integrated exactly by the weight's
    truncated time moment.  A horizon
    whose s*(T) is that limit takes no nodes.  A range whose end overflows
    s^2 phi'' or t*gap raises DomainError: that is a Brownian factor at T
    below ~3e-290, where s*(EPS * T) nears 1e154.  So does an integral that
    is not finite: at T near 1e308 the node value tau * F'(x) overflows, and
    a huge drift overflows the linear part.
    One more break at x = ln(s*(T) / EPS) parts the steep head of a long
    range from its slow tail: as one segment, a gamma range up to X_MAX met
    the absolute floor of the default tolerance at its first level with only
    ~1e-8 relative accuracy for a tiny position.  The quadrature runs at
    its relative default tolerance, ``_quad.DEFAULT_REL_TOL``, in the max norm
    over the shares.

    Returns ``(C, points)``: C, of shape (m,) for the m active factors, and
    ``points``, which holds (x, tau, F'(x)) of the nodes (exact curve points)
    and of (x_T, T), for :func:`levyrisk.evar.solve_curve`.
    """
    d = np.array([w for _, w in combination.active])

    def limit(upper=None):
        with np.errstate(over="ignore"):
            return d * -combination.slopes(math.inf) * weight.time_moment(upper)

    s_T = solve_stationary(combination, T, beta)[0]
    if s_T == math.inf:
        return finite(limit(), "the horizon integral"), ((), (), ())
    budget = -math.log(beta)
    x_T = math.log(s_T)
    fprime_T = -combination.s2d2phi(s_T) / combination.phi_gap(s_T)

    def solve_from_tangent(t):
        if not (t > 0.0 and 0.0 < fprime_T < math.inf):
            return solve_stationary(combination, t, beta)[0]
        x = x_T + (math.log(T) - math.log(t)) / fprime_T
        return solve_stationary(combination, t, beta, s0=math.exp(min(max(x, X_MIN), X_MAX)))[0]

    t_lo = EPS * T
    s_hi = solve_from_tangent(t_lo)
    at_limit = s_hi == math.inf
    if at_limit:
        s_hi = math.exp(X_MAX)
        t_lo = budget / combination.phi_gap(s_hi)
    if not math.isfinite(combination.s2d2phi(s_hi)):
        # Only a Brownian factor gets here: sigma^2 s^2 overflows near the end of
        # the range, and its s -> inf limit is infinite.
        raise DomainError(
            f"T = {T!r} is too short: s^2 phi''(s) is not finite at s = {s_hi:.4g}, "
            "the end of the horizon integral"
        )
    linear = limit(t_lo) if at_limit else 0.0
    breaks = [x_T - math.log(EPS)] + [math.log(solve_from_tangent(t))
                                      for t in weight.breakpoints() if t_lo < t < T]
    points = [([x_T], [T], [fprime_T])]

    def integrand(x):
        s = np.exp(x)
        gap, curvature = combination.gap_and_s2d2phi(s)
        tau = budget / gap
        fprime = -curvature / gap  # F'(x), so dt = -tau * F' dx
        points.append((x, tau, fprime))
        terms = -combination.slopes(s)  # k / t
        # tau * omega ~ 1 and tau * F' ~ tau: tau * tau would underflow below 1e-154.
        return terms * d[:, None] * ((tau * weight.density(tau)) * (tau * fprime))

    with np.errstate(over="ignore", invalid="ignore"):
        shares = finite(linear + adaptive_simpson(integrand, x_T, math.log(s_hi), None,
                                                  breakpoints=breaks), "the horizon integral")
    return shares, tuple(np.concatenate(arrays) for arrays in zip(*points))


def cevar(query: CevarQuery) -> float:
    """Adaptive-quadrature value of integral_0^T EVaR_{1-beta}(X_t) omega(t) dt.

    On the stationary curve EVaR is -t * phi'(s*), and the CEVaR the sum of
    the factor shares of :func:`horizon_integral`; at beta = 1 it is -t * mean
    and for a zero position 0, linear in t with no quadrature.  A value that
    leaves float range raises DomainError.
    """
    comb, beta = query.combination, query.beta
    if beta == 1.0 or comb.is_degenerate():
        # solve_stationary returns the s -> 0+ or s -> inf point; evar_at raises
        # DomainError at beta = 1 for an active stable factor (infinite mean).
        s = solve_stationary(comb, 1.0, beta)[0]
        return finite(evar_at(comb, 1.0, beta, s) * query.weight.time_moment(), "CEVaR")
    shares = horizon_integral(comb, beta, query.weight, query.T)[0]
    with np.errstate(over="ignore"):  # finite shares whose sum overflows: finite raises
        return finite(float(shares.sum()), "CEVaR")
