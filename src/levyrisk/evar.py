"""Entropic value-at-risk of a Levy position given by a Laplace exponent.

EVaR at confidence 1-beta of the time-t marginal X_t of a factor combination
is ``inf_{s>0} g(s)`` with ``g(s) = (-t*phi(s) - ln(beta)) / s`` where phi is
the combined Laplace exponent.  Since -phi is convex, the derivative numerator

    h(s) = -s*t*phi'(s) + t*phi(s) + ln(beta)

is nondecreasing in s, so the interior minimiser (when it exists) is the
unique root of h.

Boundary limits.  :func:`infimum_point` is the one place that decides where
the infimum sits; :func:`evar`, the CEVaR integrand and the Euler allocation
all read its answer.  When h has no root the infimum is a limit:

* s* -> inf (t = 0, a zero position, or a jump-only position at small t,
  where t*(phi - s*phi') < -ln(beta) for every s, see :func:`limit_onset`):
  EVaR is -t * slope with slope = lim phi(s)/s, the combined drift, and the
  Euler contributions are K^i = -t * sum_j a_ij * slope_j;
* s* -> 0+ (beta = 1, where h >= 0 everywhere, or h > 0 already at
  s = 1e-12): EVaR is -t * mean, the negative mean.  With an active stable
  factor the mean is infinite: EVaR diverges (``ValueError``) and Euler
  contributions do not exist (:class:`NoStationaryPointError`).

A Brownian factor makes g grow without bound as s -> inf, so its root always
exists; if it lies beyond the scan (s > 1e300, only for exposures near
1e-300) the solve fails with :class:`NoStationaryPointError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy.optimize import brentq

from .errors import NoStationaryPointError
from .factors import FactorCombination, LevyFactor

__all__ = [
    "EvarQuery",
    "EvarResult",
    "DualCheck",
    "evar",
    "evar_objective",
    "evar_closed_form_brownian",
    "dual_feasibility_check",
    "solve_stationary",
    "infimum_point",
    "evar_at",
    "WarmStart",
]

S_MIN = 1e-12
S_MAX = 1e12

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
        if not (self.t >= 0.0) or not math.isfinite(self.t):
            raise ValueError(f"t must be a finite nonnegative real, got {self.t}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")

    @classmethod
    def of_factor(cls, factor: LevyFactor, t: float, beta: float) -> "EvarQuery":
        return cls(FactorCombination.single(factor), t, beta)


@dataclass(frozen=True)
class EvarResult:
    """EVaR value with solver diagnostics.

    ``attained`` is "interior" when a stationary point was located, otherwise
    the boundary whose limit supplies the infimum.  ``residual`` is the value
    of the stationarity function h at ``s_star`` (0.0 for boundary limits).
    """

    value: float
    s_star: Optional[float]
    attained: str
    iterations: int
    residual: float


@dataclass(frozen=True)
class DualCheck:
    """Tilted-density entropy against the dual feasibility budget."""

    entropy: float
    bound: float
    ok: bool


def default_residual_tol(beta: float) -> float:
    return 1e-10 * (1.0 + abs(math.log(beta)))


def evar_objective(query: EvarQuery, s: float) -> float:
    """g(s) = (-t*phi(s) - ln(beta)) / s for s > 0."""
    if not (s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    return (-query.t * query.combination.phi(s) - math.log(query.beta)) / s


def stationarity(combination: FactorCombination, t: float, beta: float, s: float) -> float:
    """h(s) = -s*t*phi'(s) + t*phi(s) + ln(beta); g'(s) = h(s)/s^2.

    Evaluated through the drift-free gap phi(s) - s*phi'(s) so that the
    linear drift terms cancel exactly instead of catastrophically.
    """
    return t * combination.phi_gap(s) + math.log(beta)


def solve_stationary(
    combination: FactorCombination,
    t: float,
    beta: float,
    tol: Optional[float] = None,
    s0: Optional[float] = None,
    max_iter: int = 200,
):
    """Root of the stationarity function h on (0, inf).

    Returns ``(s_star, iterations, residual)``.  ``s0`` is an optional warm
    start (Newton with a bisection safeguard); without it the root is
    bracketed on a geometric grid and handed to Brent's method.  Raises
    :class:`NoStationaryPointError` when h has no sign change, carrying the
    boundary at which the infimum of the objective lives.
    """
    if tol is None:
        tol = default_residual_tol(beta)
    log_beta = math.log(beta)

    def h(s):
        return t * combination.phi_gap(s) + log_beta

    def hp(s):
        return -s * t * combination.d2phi(s)

    iters = 0

    if s0 is not None and S_MIN < s0 < S_MAX:
        # Newton on the monotone h, falling back to the bracketed path on any
        # sign of trouble (step out of range, slow progress).
        s = s0
        lo, hi = 0.0, math.inf
        for _ in range(30):
            hs = h(s)
            iters += 1
            if abs(hs) <= tol:
                return s, iters, hs
            if hs > 0.0:
                hi = s
            else:
                lo = s
            dh = hp(s)
            if dh <= 0.0 or not math.isfinite(dh):
                break
            step = hs / dh
            s_new = s - step
            if not (lo < s_new < hi) or not math.isfinite(s_new):
                s_new = 0.5 * (lo + min(hi, 4.0 * s)) if math.isinf(hi) else 0.5 * (lo + hi)
            if s_new <= 0.0:
                break
            s = s_new

    # Geometric scan for a sign change of the nondecreasing h.  The scan runs
    # far past any practical s* because jump-dominated positions at small t
    # place the root at extreme scales; pure compound-Poisson positions with
    # sup h = t*lambda + ln(beta) < 0 terminate with a boundary infimum.
    s_lo = 1e-12
    h_prev = h(s_lo)
    iters += 1
    if h_prev > tol:
        raise NoStationaryPointError(
            "stationarity function is positive down to s = %g; infimum at s -> 0+" % s_lo,
            boundary=LIMIT_AT_ZERO,
        )
    bracket = None
    for k in range(-11, 301):
        s_hi = 10.0 ** k
        h_hi = h(s_hi)
        iters += 1
        if h_hi >= 0.0:
            bracket = (s_hi / 10.0, s_hi, h_prev, h_hi)
            break
        h_prev = h_hi
    if bracket is None:
        raise NoStationaryPointError(
            "stationarity function stays negative for all practical s; "
            "infimum at s -> inf",
            boundary=LIMIT_AT_INFINITY,
        )

    lo, hi, h_lo, h_hi = bracket
    # Shrink hi geometrically until h(hi) is finite (phi can overflow at
    # extreme s); the invariant h(lo) < 0 is maintained throughout.
    for _ in range(200):
        if math.isfinite(h_hi):
            break
        mid = math.sqrt(lo * hi)
        h_mid = h(mid)
        iters += 1
        if not math.isfinite(h_mid) or h_mid >= 0.0:
            hi, h_hi = mid, h_mid
        else:
            lo, h_lo = mid, h_mid
    if abs(h_lo) <= tol:
        return lo, iters, h_lo
    if abs(h_hi) <= tol:
        return hi, iters, h_hi
    s, brent = brentq(h, lo, hi, xtol=1e-300, rtol=8.882e-16, maxiter=max_iter,
                      full_output=True)
    hs = h(s)
    iters += brent.function_calls + 1
    for _ in range(10):
        if abs(hs) <= tol:
            break
        dh = hp(s)
        if dh <= 0.0 or not math.isfinite(dh):
            break
        s_new = s - hs / dh
        if not (lo <= s_new <= hi):
            break
        s = s_new
        hs = h(s)
        iters += 1
    return s, iters, hs


def infimum_point(
    combination: FactorCombination,
    t: float,
    beta: float,
    s0: Optional[float] = None,
    tol: Optional[float] = None,
):
    """The point s in [0, inf] that carries ``inf_{s>0} g(s)``.

    Returns ``(s, iterations, residual)`` as :func:`solve_stationary` does
    when h has a root.  Otherwise ``s`` is ``math.inf`` or ``0.0``, standing
    for the limit s -> inf or s -> 0+, with zero iterations and residual.
    The module docstring lists the boundary cases; :func:`evar_at` turns the
    point into an EVaR value.
    """
    if t == 0.0 or combination.is_degenerate():
        return math.inf, 0, 0.0
    if beta == 1.0:
        return 0.0, 0, 0.0
    try:
        return solve_stationary(combination, t, beta, tol, s0)
    except NoStationaryPointError as exc:
        if exc.boundary == LIMIT_AT_ZERO:
            return 0.0, 0, 0.0
        if math.isinf(combination.slope_at_infinity()):
            raise NoStationaryPointError(
                "no root of the stationarity function up to s = 1e300; an "
                "active Brownian factor puts s* beyond the scan",
                boundary=LIMIT_AT_INFINITY,
            ) from exc
        return math.inf, 0, 0.0


def limit_onset(combination: FactorCombination, beta: float) -> Optional[float]:
    """t0 = -ln(beta) / lim phi_gap(s), up to which h < 0 for every s and EVaR is
    linear; None unless every active factor is compound Poisson."""
    gap = sum(f.gap_at_infinity() for f, d in zip(combination.factors, combination.weights) if d)
    if not (0.0 < gap < math.inf) or beta == 1.0:
        return None
    return -math.log(beta) / gap


def evar_at(combination: FactorCombination, t: float, beta: float, s: float) -> float:
    """EVaR at the point ``s`` returned by :func:`infimum_point`."""
    if 0.0 < s < math.inf:
        return (-t * combination.phi(s) - math.log(beta)) / s
    if t == 0.0 or combination.is_degenerate():
        # g(s) = -ln(beta)/s: infimum 0 approached as s -> inf.
        return 0.0
    if s == math.inf:
        return -t * combination.slope_at_infinity()
    mean = combination.mean_rate()
    if math.isinf(mean):
        raise ValueError(
            "EVaR diverges at the s -> 0+ boundary: an active stable factor "
            "has infinite mean"
        )
    return -t * mean


class WarmStart:
    """Infimum points along a sequence of horizons, warm-started in turn.

    The stationary point s*(t) varies smoothly in t, so each interior s*
    seeds the safeguarded Newton iteration of the next call; a boundary
    limit leaves the seed unchanged.
    """

    def __init__(self, combination: FactorCombination, beta: float):
        self.combination = combination
        self.beta = beta
        self.tol = default_residual_tol(beta)
        self.s0 = None

    def __call__(self, t: float) -> float:
        s, _, _ = infimum_point(self.combination, t, self.beta, self.s0, self.tol)
        if 0.0 < s < math.inf:
            self.s0 = s
        return s


def evar(query: EvarQuery, tol: Optional[float] = None) -> EvarResult:
    """EVaR_{1-beta}(X_t) as the infimum of the objective over s in (0, inf)."""
    comb, t, beta = query.combination, query.t, query.beta
    s, iters, residual = infimum_point(comb, t, beta, tol=tol)
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
    if not (t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return -mu * t + sigma * math.sqrt(-2.0 * t * math.log(beta))


def dual_feasibility_check(query: EvarQuery, s: float, tol: float = 1e-8) -> DualCheck:
    """Exponential-tilt spot check of the dual (robust) representation.

    The tilted density f_s = exp(-s*X_t)/E[exp(-s*X_t)] has relative entropy
    ``-s*t*phi'(s) + t*phi(s)`` and dual candidate value ``-t*phi'(s)``.  When
    the entropy fits the budget -ln(beta), the candidate must not exceed EVaR.
    """
    if not (s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    comb, t = query.combination, query.t
    entropy = t * comb.phi_gap(s)
    bound = -t * comb.dphi(s)
    if entropy <= -math.log(query.beta):
        ok = bound <= evar(query).value + tol
    else:
        ok = True
    return DualCheck(entropy=entropy, bound=bound, ok=ok)
