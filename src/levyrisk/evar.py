"""Entropic value-at-risk of a Levy position given by a Laplace exponent.

EVaR at confidence 1-beta of the time-t marginal X_t of a factor combination
is ``inf_{s>0} g(s)`` with ``g(s) = (-t*phi(s) - ln(beta)) / s`` where phi is
the combined Laplace exponent.  Since -phi is convex, the derivative numerator

    h(s) = -s*t*phi'(s) + t*phi(s) + ln(beta)

is nondecreasing in s, so the interior minimiser (when it exists) is the
unique root of h = t*gap(s) + ln(beta), with gap = phi - s*phi'.
:func:`solve_stationary` finds it by safeguarded Newton steps in x = ln(s)
on [1e-300, 1e300], with one slope path: s^2 phi''(s) from each factor's
``s2d2phi`` stays in float range at every x.  The returned s* is one Newton
step past the accepted point, because the Euler contributions are first order
in the error of s* (EVaR, being stationary in s, is not).

Boundary limits.  :func:`solve_stationary` is the one place that decides
where the infimum sits; :func:`evar`, the CEVaR integrand and the Euler
allocation all read its answer, and :func:`solve_curve` hands it every point
it does not accept.  For beta < 1, h(0+) = ln(beta) < 0, so h has
a root unless t*gap stays below -ln(beta) for every s:

* s* -> inf: t = 0, a zero position, or h(1e300) <= 0, that is
  t <= tau(1e300) = -ln(beta) / gap(1e300).  One rule covers a gamma position
  at small t, whose root lies above 1e300, and a compound-Poisson-only
  position at t <= -ln(beta) / sum(lambda), where gap(s) rises only to
  sum(lambda) and h has no root at all.  EVaR is -t * slope with
  slope = lim phi(s)/s, the combined drift, and the Euler contributions are
  K^i = -t * sum_j a_ij * slope_j.  A Brownian factor makes g grow without
  bound as s -> inf, so with one a root above 1e300 (only for exposures near
  1e-300) raises :class:`NoStationaryPointError`.
* s* -> 0+ only at beta = 1, where h >= 0 everywhere: EVaR is -t * mean, the
  negative mean.  With an active stable factor the mean is infinite and EVaR
  diverges (:class:`DomainError`, a ``ValueError``).
* A root below 1e-300 raises :class:`NoStationaryPointError`.  A root beyond
  the point where t*gap overflows (a Brownian position at t near 1e-308)
  raises :class:`DomainError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NoStationaryPointError, finite
from .factors import FactorCombination

__all__ = [
    "EvarQuery",
    "EvarResult",
    "evar",
    "evar_closed_form_brownian",
    "solve_stationary",
    "evar_at",
    "solve_curve",
]

# The solve runs in x = ln(s) on [X_MIN, X_MAX].  A root above X_MAX stands for
# the s -> inf limit; one below X_MIN raises (see solve_stationary).
X_MIN = math.log(1e-300)
X_MAX = math.log(1e300)
# The residual stop of the solves: |h| <= RESIDUAL_EPS * |ln(beta)|.
RESIDUAL_EPS = 1e-10
# Lockstep rounds of solve_curve before its open points go to solve_stationary.
CURVE_ROUNDS = 8

INTERIOR = "interior"
LIMIT_AT_ZERO = "limit_at_zero"
LIMIT_AT_INFINITY = "limit_at_infinity"


@dataclass(frozen=True)
class EvarQuery:
    """A position (factor combination), horizon t >= 0 and beta in (0, 1]."""

    combination: FactorCombination
    t: float
    beta: float

    def __post_init__(self):
        # Python floats: numpy scalars warn where the solver's arithmetic meets inf or nan.
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "beta", float(self.beta))
        if not (self.t >= 0.0) or not math.isfinite(self.t):
            raise ValueError(f"t must be a finite nonnegative real, got {self.t}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class EvarResult:
    """EVaR value with solver diagnostics.

    ``attained`` is "interior" when a stationary point was located, otherwise
    the boundary whose limit supplies the infimum.  ``s_star`` is the solver's
    Newton-corrected point, one step past the last point at which it evaluated
    the stationarity function h; ``residual`` is h at that evaluated point (0.0
    for boundary limits).  A ``value`` that is not finite raises DomainError.
    """

    value: float
    s_star: Optional[float]
    attained: str
    iterations: int
    residual: float

    def __post_init__(self):
        finite(self.value, "EVaR")


def solve_stationary(
    combination: FactorCombination,
    t: float,
    beta: float,
    *,
    s0: Optional[float] = None,
):
    """The point s in [0, inf] that carries ``inf_{s>0} g(s)``.

    An interior s* is the root of the stationarity function h, found by
    Newton's method on F(x) = ln(t*gap(e^x)) - ln(-ln(beta)) in x = ln(s),
    whose slope F'(x) = -s^2 phi''(s) / gap(s) lies in (0, 2] for every
    combination of the factor kinds (their exponentially tilted laws are never
    left-skewed); it is 2 for a Brownian position and alpha for a stable one,
    where one step is exact.
    A bracket [lo, hi] in x holds the root.  A step that would leave it, or
    that is longer than half the step before the last, goes instead to the
    end of [X_MIN, X_MAX] on the root's side if h is not known there (one
    evaluation decides a root beyond it), and otherwise bisects.  ``s0`` is
    a warm start; the cold start is s = 1.

    Every evaluation takes h and the slope the same way at every x: phi_gap
    and s^2 phi'' of each kind stay in float range up to an inf, so there is
    one slope path.  Stops when |h| <= RESIDUAL_EPS * |ln(beta)|, returning
    the Newton-corrected point exp(x - F/F') from F and F' at the accepted x
    (K is first order in the error of s*, EVaR is not), or when the next step
    is a few ulps of x, returning the evaluated point.
    Returns ``(s, iterations, residual)``, where ``iterations`` counts every
    evaluation of h and ``residual`` is h at the last evaluated point.  At a
    boundary limit (see the module docstring) ``s`` is ``math.inf`` or, only
    at beta = 1, ``0.0``, with zero iterations and residual; :func:`evar_at`
    turns the point into an EVaR value.  Raises
    :class:`NoStationaryPointError` with the boundary beyond which the root
    lies: LIMIT_AT_ZERO when h > 0 at s = 1e-300, LIMIT_AT_INFINITY when
    h < 0 at s = 1e300 and a Brownian factor is active.  Raises
    :class:`DomainError` when the ulps stop is reached next to a point where
    t*gap overflowed: the root lies in the overflow.
    """
    if t == 0.0 or combination.is_degenerate():
        return math.inf, 0, 0.0
    budget = -math.log(beta)
    if budget == 0.0:
        return 0.0, 0, 0.0
    tol = RESIDUAL_EPS * budget
    log_budget = math.log(budget)
    lo, hi = X_MIN, X_MAX
    lo_seen = hi_seen = False  # whether h was evaluated at lo / hi
    hi_inf = False  # whether t*gap overflowed at hi
    x = min(max(math.log(s0), X_MIN), X_MAX) if s0 is not None and s0 > 0.0 else 0.0
    step = older_step = hi - lo
    iterations = 0
    # The loop ends: each end of [X_MIN, X_MAX] is evaluated at most once, a
    # bisection halves the bracket, and Newton steps shrink by half every two
    # steps until they reach the ulps stop or give way to a bisection.
    while True:
        s = math.exp(x)
        tgap = t * combination.phi_gap(s)
        h = tgap - budget
        iterations += 1
        # Newton's target for F and F'(x) = -s^2 phi''(s) / gap(s).  F' <= 2 holds
        # for the factor kinds, so a larger value is round-off; for a plug-in
        # exponent with a left-skewed tilt the cap only lengthens the step.  Where
        # gap underflows to 0 there is no target and the safeguard below decides.
        target = math.nan
        if tgap > 0.0:
            slope = -t * combination.s2d2phi(s) / tgap
            if 0.0 < slope < math.inf:
                target = x - (math.log(tgap) - log_budget) / min(slope, 2.0)
        if abs(h) <= tol:
            return (math.exp(target) if lo < target < hi else s), iterations, h
        if h < 0.0:
            if x == X_MAX:
                # A root above 1e300 stands for the s -> inf limit, unless a
                # Brownian factor makes g grow without bound there.
                if not math.isinf(combination.slope_at_infinity()):
                    return math.inf, 0, 0.0
                raise NoStationaryPointError(
                    "h < 0 up to s = 1e300: the root lies above the solver's range",
                    boundary=LIMIT_AT_INFINITY,
                )
            lo, lo_seen = x, True
        else:
            if x == X_MIN:
                raise NoStationaryPointError(
                    "h > 0 down to s = 1e-300: the root lies below the solver's range",
                    boundary=LIMIT_AT_ZERO,
                )
            hi, hi_seen, hi_inf = x, True, tgap == math.inf
        if lo < target < hi and abs(target - x) <= 0.5 * older_step:
            x_next = target
        elif h < 0.0 and not hi_seen:
            x_next = X_MAX
        elif h > 0.0 and not lo_seen:
            x_next = X_MIN
        else:
            x_next = 0.5 * (lo + hi)
        if abs(x_next - x) <= 1e-15 * (1.0 + abs(x)):  # a few ulps of x
            if hi_inf:
                # The bracket closed on the overflow edge, not on a root.
                raise DomainError(
                    f"the stationary root at t = {t!r} lies beyond float range: "
                    f"t*gap(s) is not finite at s = {math.exp(hi):.4g}"
                )
            return s, iterations, h
        older_step, step = step, abs(x_next - x)
        x = x_next


def evar_at(combination: FactorCombination, t: float, beta: float, s: float) -> float:
    """EVaR at the point ``s`` returned by :func:`solve_stationary`."""
    if 0.0 < s < math.inf:
        return (-t * combination.phi(s) - math.log(beta)) / s
    if t == 0.0 or combination.is_degenerate():
        # g(s) = -ln(beta)/s: infimum 0 approached as s -> inf.
        return 0.0
    if s == math.inf:
        return -t * combination.slope_at_infinity()
    mean = combination.mean_rate()
    if math.isinf(mean):
        raise DomainError(
            "EVaR diverges at the s -> 0+ boundary: an active stable factor "
            "has infinite mean"
        )
    return -t * mean


def solve_curve(combination: FactorCombination, t, beta: float, points):
    """s*(t) at an array of horizons (beta < 1, a nonzero position), solved in
    lockstep from ``points``, the arrays (x, tau, F'(x)) of exact curve points:
    in ``allocate``, its one caller, the nodes of the horizon integral and
    (x_T, T).

    t <= tau(1e300), from one evaluation of gap at 1e300, is the s -> inf
    limit, unsolved; with an active Brownian factor that limit is infinite
    and only t = 0 takes it.  As dx/d ln(tau) = -1/F', any other horizon
    starts from the cubic Hermite interpolant of x in ln(tau) through the
    points, or the tangent line of the nearest one outside them; for a
    Brownian or stable position, where x is linear in ln(tau), the seed is
    the root.  A round evaluates t*gap and s^2 phi'' at the open points as
    one array, in one call of ``combination.gap_and_s2d2phi``, and accepts by
    :func:`solve_stationary`'s residual stop and Newton-corrected s.  A point
    whose step is not finite or leaves (X_MIN, X_MAX), or open after
    CURVE_ROUNDS rounds, goes to :func:`solve_stationary`.  The rounds run
    under one ``np.errstate``, and a round that hands no point over does no
    hand-off work.
    """
    t = np.asarray(t, dtype=float)
    s = np.full(t.shape, math.inf)
    budget = -math.log(beta)
    log_budget, tol = math.log(budget), RESIDUAL_EPS * budget
    cutoff = 0.0 if math.isinf(combination.slope_at_infinity()) \
        else budget / combination.phi_gap(math.exp(X_MAX))
    todo = (t > cutoff).nonzero()[0]
    tt = t[todo]
    x = _curve_seeds(np.log(tt), *points)
    handoff = []
    with np.errstate(all="ignore"):
        for _ in range(CURVE_ROUNDS):
            if not todo.size:
                break
            gap, curvature = combination.gap_and_s2d2phi(np.exp(x))
            tgap = tt * gap
            slope = -tt * curvature / tgap
            target = x - (np.log(tgap) - log_budget) / np.minimum(slope, 2.0)
            # tgap <= 0 needs no test of its own: its log, -inf or nan, puts
            # the target outside (X_MIN, X_MAX).
            ok = (0.0 < slope) & (slope < math.inf) & (X_MIN < target) & (target < X_MAX)
            done = ok & (np.abs(tgap - budget) <= tol)
            s[todo[done]] = np.exp(target[done])
            if not ok.all():
                handoff += zip(todo[~ok].tolist(), x[~ok].tolist())
            ok &= ~done
            todo, tt, x = todo[ok], tt[ok], target[ok]
    for i, xi in sorted(handoff + list(zip(todo.tolist(), x.tolist()))):
        s[i] = solve_stationary(combination, float(t[i]), beta, s0=math.exp(xi))[0]
    return s


def _curve_seeds(u, x, tau, fprime):
    """The seeds of :func:`solve_curve` at u = ln(t); x = 0 without a usable point.

    The Hermite knots are the distinct ln(tau) of the points, ascending, each
    with the first point that has it and a finite slope -1/F'.  The horizon
    integral hands over its points in ascending x, so ln(tau) does not rise:
    reversed, the points serve as they are, less the later ones of a run of
    equal tau (where a compound-Poisson gap has levelled off).  Otherwise (a
    second level of nodes, an infinite tau or slope, an F' of 0) the usable
    points are sorted by ``np.unique``, which keeps the same first points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        knots, slopes = np.log(tau), -1.0 / np.asarray(fprime, dtype=float)
    x = np.asarray(x, dtype=float)
    if not knots.size:
        return np.zeros(u.shape)
    falls = knots[1:] < knots[:-1]
    strictly = falls.all()
    if (-math.inf < knots[-1] and knots[0] < math.inf and np.isfinite(slopes).all()
            and (strictly or (knots[1:] <= knots[:-1]).all())):
        if not strictly:
            first = np.insert(falls, 0, True)  # the first point of each run
            knots, x, slopes = knots[first], x[first], slopes[first]
        knots, x, slopes = knots[::-1], x[::-1], slopes[::-1]
    else:
        usable = np.isfinite(knots) & np.isfinite(slopes)
        knots, first = np.unique(knots[usable], return_index=True)  # sorted, no repeats
        if not knots.size:
            return np.zeros(u.shape)
        x, slopes = x[usable][first], slopes[usable][first]
    k = knots.searchsorted(u)
    end = np.minimum(k, knots.size - 1)
    seed = x[end] + slopes[end] * (u - knots[end])
    inside = (k > 0) & (k < knots.size)
    a, b = k[inside] - 1, k[inside]
    w = knots[b] - knots[a]
    p = (u[inside] - knots[a]) / w
    q = 1.0 - p
    seed[inside] = (q * q * ((1.0 + 2.0 * p) * x[a] + p * w * slopes[a])
                    + p * p * ((3.0 - 2.0 * p) * x[b] - q * w * slopes[b]))
    return np.minimum(np.maximum(seed, X_MIN), X_MAX)


def evar(query: EvarQuery) -> EvarResult:
    """EVaR_{1-beta}(X_t) as the infimum of the objective over s in (0, inf)."""
    comb, t, beta = query.combination, query.t, query.beta
    s, iters, residual = solve_stationary(comb, t, beta)
    value = evar_at(comb, t, beta, s)
    if s == math.inf:
        return EvarResult(value, None, LIMIT_AT_INFINITY, 0, 0.0)
    if s == 0.0:
        return EvarResult(value, None, LIMIT_AT_ZERO, 0, 0.0)
    return EvarResult(value, s, INTERIOR, iters, residual)


def evar_closed_form_brownian(mu: float, sigma: float, t: float, beta: float) -> float:
    """-mu*t + sigma*sqrt(-2*t*ln(beta)) for Brownian motion with drift."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (0.0 <= t < math.inf):
        raise ValueError(f"t must be a finite nonnegative real, got {t}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return -mu * t + sigma * math.sqrt(-2.0 * t * math.log(beta))
