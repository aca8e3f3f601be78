"""Euler capital allocation for multi-department portfolios of Levy factors.

Departments hold exposures a_ij to m independent claim factors.  At each time
t the portfolio EVaR is minimised at a stationary point s*, the Euler
contribution of department i is

    K_t^i = -t * sum_j a_ij * phi_j'(s* * D_j),     D_j = sum_k a_kj,

and the allocation over [0, T] integrates K_t^i against the weight density,
plus the premium term c^i * integral(t * omega(t) dt).  Closed-form
specialisations (driftless Brownian and common-alpha stable factors) are
provided for cross-checking the generic numerical path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cevar import WeightFunction, horizon_integral
from .errors import finite
from .evar import solve_curve, solve_stationary
from .factors import FactorCombination, LevyFactor

__all__ = [
    "FactorPortfolio",
    "AllocationReport",
    "euler_contributions",
    "allocate",
    "brownian_s_star",
    "brownian_contributions",
    "brownian_allocation",
    "stable_contributions",
    "stable_allocation",
]


# Horizons of the K-curve in an AllocationReport, equally spaced over [0, T].
CURVE_POINTS = 65


@dataclass(frozen=True)
class FactorPortfolio:
    """n departments exposed to m independent factors through a_ij >= 0;
    ``weight=None`` is ``WeightFunction.uniform(T)``."""

    A: np.ndarray
    factors: tuple
    premiums: np.ndarray
    T: float
    beta: float
    weight: WeightFunction

    def __init__(self, A, factors: Sequence[LevyFactor], premiums, T: float,
                 beta: float, weight: Optional[WeightFunction] = None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"exposure matrix must be 2-D, got shape {A.shape}")
        n, m = A.shape
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 departments and m >= 1 factors, got {n}x{m}")
        if len(factors) != m:
            raise ValueError(f"matrix has {m} columns but {len(factors)} factors given")
        if not np.all(np.isfinite(A) & (A >= 0)):
            raise ValueError("exposures a_ij must be finite and nonnegative")
        with np.errstate(over="ignore"):
            col = A.sum(axis=0)
        if not np.all(np.isfinite(col)):
            raise ValueError("the exposures to one factor sum beyond float range")
        if np.any(col <= 0):
            dead = [j for j in range(m) if col[j] <= 0]
            raise ValueError(f"factor column(s) {dead} have zero total exposure")
        premiums = np.asarray(premiums, dtype=float)
        if premiums.shape != (n,):
            raise ValueError(
                f"premiums length {premiums.size} does not match {n} departments"
            )
        if not np.all(np.isfinite(premiums) & (premiums >= 0)):
            raise ValueError("premium rates must be finite and nonnegative")
        if not (T > 0) or not math.isfinite(T):
            raise ValueError(f"T must be a positive finite real, got {T}")
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        weight = weight if weight is not None else WeightFunction.uniform(T)
        weight.check_span(T)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "premiums", premiums)
        object.__setattr__(self, "T", float(T))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "weight", weight)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.A.sum(axis=0)

    def combination(self, u=None) -> FactorCombination:
        """Aggregate claims as a factor combination with d_j = sum_k u_k a_kj."""
        if u is None:
            d = self.column_sums()
        else:
            u = np.asarray(u, dtype=float)
            if u.shape != (self.n,):
                raise ValueError(f"u must have length {self.n}, got {u.size}")
            if np.any(u < 0):
                raise ValueError("u must be componentwise nonnegative")
            d = u @ self.A
        return FactorCombination(self.factors, d.tolist())


@dataclass(frozen=True)
class AllocationReport:
    """Per-department allocations with full-allocation diagnostics.

    ``grid`` holds the CURVE_POINTS horizons of the K-curve; row k of
    ``K_curve`` (shape (CURVE_POINTS, n)) holds K_1, ..., K_n at grid[k], and
    ``s_star_curve`` the pairs (t, s_star), s_star None at the s -> inf limit.
    The gap is sum(L) minus (CEVaR of aggregate claims + total premium term).
    Both come from the same factor shares C_j of the horizon integral, whose
    curve points also seed the K-curve's lockstep solve: L = (A / D) @ C plus
    the premium terms and the CEVaR sum(C).  Each column of A / D sums to 1,
    so the gap measures round-off only; it is no check of accuracy.  The
    independent checks are acceptance criterion 3 (``euler_contributions``
    against ``evar`` pointwise in t), the t-space CEVaR of ``bench/checks.py``
    and the mpmath ``allocation_oracle`` of the tests.  A report whose ``L``,
    ``K_curve``, ``total_cevar`` or ``full_allocation_gap`` is not finite raises
    DomainError.
    """

    L: np.ndarray
    grid: np.ndarray
    K_curve: np.ndarray
    s_star_curve: list
    total_cevar: float
    full_allocation_gap: float

    def __post_init__(self):
        for name in ("L", "K_curve", "total_cevar", "full_allocation_gap"):
            finite(getattr(self, name), name)


def _factor_terms(comb: FactorCombination, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The factor terms -t * phi_j'(s D_j) of K_t = A @ terms, shape (len(t), m),
    at arrays t and s: -t * slope_j at s = inf and zeros at t = 0 (beta < 1, so
    s is never 0).  A portfolio's columns have positive sums: every factor is active.
    Callers run it under np.errstate(over="ignore", invalid="ignore") and check."""
    return np.where(t[:, None] > 0.0, -t[:, None] * comb.slopes(s).T, 0.0)


def _curve_grid(T: float) -> np.ndarray:
    """The K-curve's horizons: np.linspace(0.0, T, CURVE_POINTS) bit for bit
    (the step T / (CURVE_POINTS - 1) times 0, 1, ..., and T last), without the
    fixed cost of its Python wrapper."""
    grid = np.arange(float(CURVE_POINTS)) * (T / (CURVE_POINTS - 1))
    grid[-1] = T
    return grid


def euler_contributions(portfolio: FactorPortfolio, t: float) -> np.ndarray:
    """K_t^i = -t * sum_j a_ij phi_j'(s* D_j) at u = (1, ..., 1).

    Boundary limits follow :mod:`levyrisk.evar`: when the aggregate EVaR
    infimum sits at s -> inf the contributions take their drift limit.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be a positive finite real, got {t}")
    t = float(t)  # as in EvarQuery
    comb = portfolio.combination(None)
    s, _, _ = solve_stationary(comb, t, portfolio.beta)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, inf - inf in the matmul
        return finite(portfolio.A @ _factor_terms(comb, np.array([t]), np.array([s]))[0], "K_t")


def allocate(portfolio: FactorPortfolio) -> AllocationReport:
    """Integrate the Euler contributions into the allocation L^i.

    L^i = integral_0^T K_t^i omega(t) dt + c^i * integral_0^T t omega(t) dt.
    K_t = A @ k(t) with the factor terms k_j(t) = -t * phi_j'(s* D_j), and the
    aggregate EVaR is D @ k(t).  So :func:`levyrisk.cevar.horizon_integral`
    integrates the m factor shares C_j = integral D_j k_j(t) omega(t) dt, once
    whatever n is, and L = (A / D) @ C plus the premium terms, with the
    CEVaR sum(C).  The quadrature's error estimate and default relative
    tolerance are in the max norm over the shares; since a_ij / D_j <= 1,
    each L^i's error is at most m times it.  The report's K-curve holds
    CURVE_POINTS equally spaced horizons.
    """
    T, A, comb = portfolio.T, portfolio.A, portfolio.combination(None)
    D = np.array(comb.weights)  # the column sums, taken once
    shares, points = horizon_integral(comb, portfolio.beta, portfolio.weight, T)

    # The K-curve, solved from the integral's curve points; all factor terms meet A at once.
    grid = _curve_grid(T)
    s = solve_curve(comb, grid, portfolio.beta, points)
    tmom = portfolio.weight.time_moment()
    # Overflow, and -0 * (-inf) from a Brownian slope at t = 0: AllocationReport checks.
    with np.errstate(over="ignore", invalid="ignore"):
        L = (A / D) @ shares + portfolio.premiums * tmom
        total = float(shares.sum()) + float(portfolio.premiums.sum()) * tmom
        return AllocationReport(
            L=L,
            grid=grid,
            K_curve=_factor_terms(comb, grid, s) @ A.T,
            s_star_curve=[(t, None if si == math.inf else si)
                          for t, si in zip(grid.tolist(), s.tolist())],
            total_cevar=total,
            full_allocation_gap=float(L.sum() - total),
        )


# ---------------------------------------------------------------------------
# Closed-form specialisations (oracles for the generic numerical path)
# ---------------------------------------------------------------------------

def brownian_s_star(sigmas, d, t: float, beta: float) -> float:
    """s* = sqrt(-2 ln(beta) / (t sum_j d_j^2 sigma_j^2)) for driftless Brownians."""
    sigmas = np.asarray(sigmas, dtype=float)
    d = np.asarray(d, dtype=float)
    return math.sqrt(-2.0 * math.log(beta) / (t * float(np.sum(d * d * sigmas * sigmas))))


def brownian_contributions(A, sigmas, t: float, beta: float) -> np.ndarray:
    """K_t^i = t * s* * (A @ sigma^2 D) for driftless Brownian factors (closed
    form), taken as sqrt(t) * s*(1), which equals t * s*(t) and stays finite
    at t = 0 and at subnormal t."""
    A = np.asarray(A, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    D = A.sum(axis=0)
    return math.sqrt(t) * brownian_s_star(sigmas, D, 1.0, beta) * (A @ (sigmas ** 2 * D))


def brownian_allocation(A, sigmas, premiums, T: float, beta: float) -> np.ndarray:
    """L^i for driftless Brownian factors under the uniform weight: K_t grows
    as sqrt(t), so its mean over [0, T] is (2/3) K_T."""
    return ((2.0 / 3.0) * brownian_contributions(A, sigmas, T, beta)
            + np.asarray(premiums, dtype=float) * T / 2.0)


def stable_contributions(A, alpha: float, t: float, beta: float) -> np.ndarray:
    """K_t^i for driftless common-alpha stable factors (closed form)."""
    A = np.asarray(A, dtype=float)
    D = A.sum(axis=0)
    core = (-math.log(beta) / ((1.0 - alpha) * float(np.sum(D ** alpha)))) ** (
        (alpha - 1.0) / alpha
    )
    return -(t ** (1.0 / alpha)) * alpha * core * (A @ (D ** (alpha - 1.0)))


def stable_allocation(A, alpha: float, premiums, T: float, beta: float) -> np.ndarray:
    """L^i for driftless common-alpha stable factors under the uniform weight:
    K_t grows as t^(1/alpha), so its mean over [0, T] is alpha/(alpha+1) K_T."""
    return ((alpha / (alpha + 1.0)) * stable_contributions(A, alpha, T, beta)
            + np.asarray(premiums, dtype=float) * T / 2.0)
