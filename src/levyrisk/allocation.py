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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._quad import adaptive_simpson
from .cevar import CevarQuery, WeightFunction, cevar, kinks
from .errors import NoStationaryPointError
from .evar import LIMIT_AT_ZERO, EvarQuery, WarmStart, evar, infimum_point, solve_stationary
from .factors import FactorCombination, LevyFactor

__all__ = [
    "FactorPortfolio",
    "AllocationReport",
    "solve_s_star",
    "euler_contributions",
    "allocate",
    "directional_derivative_check",
    "diversification_check",
    "brownian_s_star",
    "brownian_contributions",
    "brownian_allocation",
    "stable_contributions",
    "stable_allocation",
]


@dataclass(frozen=True)
class FactorPortfolio:
    """n departments exposed to m independent factors through a_ij >= 0."""

    A: np.ndarray
    factors: tuple
    premiums: np.ndarray
    T: float
    beta: float
    weight: WeightFunction = field(default_factory=WeightFunction)

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
        if np.any(A < 0):
            raise ValueError("exposures a_ij must be nonnegative")
        col = A.sum(axis=0)
        if np.any(col <= 0):
            dead = [j for j in range(m) if col[j] <= 0]
            raise ValueError(f"factor column(s) {dead} have zero total exposure")
        premiums = np.asarray(premiums, dtype=float)
        if premiums.shape != (n,):
            raise ValueError(
                f"premiums length {premiums.size} does not match {n} departments"
            )
        if np.any(premiums < 0):
            raise ValueError("premium rates must be nonnegative")
        if not (T > 0) or not math.isfinite(T):
            raise ValueError(f"T must be a positive finite real, got {T}")
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "premiums", premiums)
        object.__setattr__(self, "T", float(T))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "weight", weight if weight is not None else WeightFunction())

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

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

    ``K_curve`` holds rows (t, s_star, K_1, ..., K_n) on ``grid``; the gap is
    sum(L) minus (CEVaR of aggregate claims + total premium term), computed
    through an independent quadrature of the aggregate EVaR.
    """

    L: np.ndarray
    grid: np.ndarray
    K_curve: np.ndarray
    s_star_curve: list
    total_cevar: float
    full_allocation_gap: float

    def to_dict(self) -> dict:
        return {
            "schema_version": "1",
            "L": self.L.tolist(),
            "total_cevar": self.total_cevar,
            "full_allocation_gap": self.full_allocation_gap,
            "grid": self.grid.tolist(),
            "K_curve": self.K_curve.tolist(),
            "s_star_curve": [
                [t, s] for t, s in self.s_star_curve
            ],
        }

    def curve_rows(self):
        """Rows (t, s_star, K_1, ..., K_n) for CSV output."""
        rows = []
        for (t, s), krow in zip(self.s_star_curve, self.K_curve):
            rows.append([t, s] + list(krow))
        return rows


def solve_s_star(portfolio: FactorPortfolio, u, t: float,
                 tol: Optional[float] = None, s0: Optional[float] = None) -> float:
    """Stationary point of the EVaR objective for exposures u at time t."""
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    comb = portfolio.combination(u)
    if comb.is_degenerate():
        raise ValueError("all effective weights d_j are zero")
    s_star, _, _ = solve_stationary(comb, t, portfolio.beta, tol=tol, s0=s0)
    return s_star


class _EulerKernel:
    """K_t^i = -t * sum_j a_ij phi_j'(s D_j) at the point s from infimum_point.

    D_j = sum_k a_kj and the drift slopes are fixed per portfolio, so they
    are computed once.  At s -> inf phi_j' tends to the slope of phi_j, which
    gives the drift limit -t * A @ slopes; t = 0 gives zeros.
    """

    def __init__(self, portfolio: FactorPortfolio):
        self.A = portfolio.A
        self.factors = portfolio.factors
        self.D = portfolio.column_sums()
        self.slopes = np.array([f.slope_at_infinity() for f in portfolio.factors])

    def __call__(self, t: float, s: float) -> np.ndarray:
        if t == 0.0:
            return np.zeros(self.A.shape[0])
        if s == math.inf:
            return -t * (self.A @ self.slopes)
        if s == 0.0:
            raise NoStationaryPointError(
                "Euler contributions need a stationary point, but the EVaR "
                "infimum sits at s -> 0+",
                boundary=LIMIT_AT_ZERO,
            )
        dphi = np.array([f.dphi(s * Dj) for f, Dj in zip(self.factors, self.D)])
        return -t * (self.A @ dphi)


def euler_contributions(portfolio: FactorPortfolio, t: float) -> np.ndarray:
    """K_t^i = -t * sum_j a_ij phi_j'(s* D_j) at u = (1, ..., 1).

    Boundary limits follow :mod:`levyrisk.evar`: when the aggregate EVaR
    infimum sits at s -> inf the contributions take their drift limit.
    """
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    s, _, _ = infimum_point(portfolio.combination(None), t, portfolio.beta)
    return _EulerKernel(portfolio)(t, s)


def allocate(portfolio: FactorPortfolio, grid_points: int = 65,
             quad_tol: Optional[float] = None, max_evals: int = 400_000) -> AllocationReport:
    """Integrate the Euler contributions into the allocation L^i.

    L^i = integral_0^T K_t^i omega(t) dt + c^i * integral_0^T t omega(t) dt.
    """
    T, beta, weight = portfolio.T, portfolio.beta, portfolio.weight
    weight.check_span(T)
    n = portfolio.n
    comb = portfolio.combination(None)
    kernel = _EulerKernel(portfolio)
    path = WarmStart(comb, beta)

    def k_vector(t):
        return kernel(t, path(t)) * weight.density(t, T)

    # quad_tol=None asks the quadrature for its relative default.
    k_integral = adaptive_simpson(k_vector, 0.0, T, quad_tol,
                                  breakpoints=kinks(comb, beta, weight, T), max_evals=max_evals)

    tmom = weight.time_moment(T)
    L = k_integral + portfolio.premiums * tmom

    # Independent check: the aggregate CEVaR plus the premium term must match
    # the allocated total (full allocation).
    aggregate = CevarQuery(comb, T, beta, weight=weight)
    total = cevar(aggregate, max_evals=max_evals) + float(portfolio.premiums.sum()) * tmom
    gap = float(L.sum() - total)

    grid = np.linspace(0.0, T, grid_points)
    K_curve = np.zeros((grid_points, n))
    s_star_curve = []
    curve = WarmStart(comb, beta)
    for idx, t in enumerate(grid):
        s = curve(t)
        K_curve[idx] = kernel(t, s)
        s_star_curve.append((float(t), None if s == math.inf else s))

    return AllocationReport(
        L=L,
        grid=grid,
        K_curve=K_curve,
        s_star_curve=s_star_curve,
        total_cevar=total,
        full_allocation_gap=gap,
    )


def directional_derivative_check(portfolio: FactorPortfolio, i: int, t: float,
                                 epsilon: float = 1e-6):
    """Analytic K_t^i against the one-sided finite difference of EVaR in e_i."""
    if not (0 <= i < portfolio.n):
        raise ValueError(f"department index {i} out of range")
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    analytic = float(euler_contributions(portfolio, t)[i])
    u0 = np.ones(portfolio.n)
    u1 = u0.copy()
    u1[i] += epsilon
    base = evar(EvarQuery(portfolio.combination(u0), t, portfolio.beta)).value
    bumped = evar(EvarQuery(portfolio.combination(u1), t, portfolio.beta)).value
    finite_diff = (bumped - base) / epsilon
    return analytic, finite_diff


def diversification_check(portfolio: FactorPortfolio, h, t: float, tol: float = 1e-9):
    """sum_i h_i K_t^i <= EVaR of the h-weighted aggregate (linear diversification)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (portfolio.n,):
        raise ValueError(f"h must have length {portfolio.n}")
    if np.any(h < 0):
        raise ValueError("h must be componentwise nonnegative")
    K = euler_contributions(portfolio, t)
    lhs = float(h @ K)
    comb = portfolio.combination(h)
    if comb.is_degenerate():
        rhs = 0.0
    else:
        rhs = evar(EvarQuery(comb, t, portfolio.beta)).value
    return lhs, rhs, lhs <= rhs + tol


# ---------------------------------------------------------------------------
# Closed-form specialisations (oracles for the generic numerical path)
# ---------------------------------------------------------------------------

def brownian_s_star(sigmas, d, t: float, beta: float) -> float:
    """s* = sqrt(-2 ln(beta) / (t sum_j d_j^2 sigma_j^2)) for driftless Brownians."""
    sigmas = np.asarray(sigmas, dtype=float)
    d = np.asarray(d, dtype=float)
    return math.sqrt(-2.0 * math.log(beta) / (t * float(np.sum(d * d * sigmas * sigmas))))


def brownian_contributions(A, sigmas, t: float, beta: float) -> np.ndarray:
    """K_t^i for driftless Brownian factors (closed form)."""
    A = np.asarray(A, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    D = A.sum(axis=0)
    root = math.sqrt(-2.0 * math.log(beta) / float(np.sum(sigmas ** 2 * D ** 2)))
    return math.sqrt(t) * root * (A @ (sigmas ** 2 * D))


def brownian_allocation(A, sigmas, premiums, T: float, beta: float) -> np.ndarray:
    """L^i for driftless Brownian factors under the uniform weight."""
    A = np.asarray(A, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    premiums = np.asarray(premiums, dtype=float)
    D = A.sum(axis=0)
    root = math.sqrt(-2.0 * math.log(beta) / float(np.sum(sigmas ** 2 * D ** 2)))
    return (2.0 / 3.0) * math.sqrt(T) * root * (A @ (sigmas ** 2 * D)) + premiums * T / 2.0


def stable_contributions(A, alpha: float, t: float, beta: float) -> np.ndarray:
    """K_t^i for driftless common-alpha stable factors (closed form)."""
    A = np.asarray(A, dtype=float)
    D = A.sum(axis=0)
    core = (-math.log(beta) / ((1.0 - alpha) * float(np.sum(D ** alpha)))) ** (
        (alpha - 1.0) / alpha
    )
    return -(t ** (1.0 / alpha)) * alpha * core * (A @ (D ** (alpha - 1.0)))


def stable_allocation(A, alpha: float, premiums, T: float, beta: float) -> np.ndarray:
    """L^i for driftless common-alpha stable factors under the uniform weight."""
    A = np.asarray(A, dtype=float)
    premiums = np.asarray(premiums, dtype=float)
    D = A.sum(axis=0)
    core = (-math.log(beta) / ((1.0 - alpha) * float(np.sum(D ** alpha)))) ** (
        (alpha - 1.0) / alpha
    )
    lead = -(alpha ** 2 / (alpha + 1.0)) * T ** (1.0 / alpha)
    return lead * core * (A @ (D ** (alpha - 1.0))) + premiums * T / 2.0
