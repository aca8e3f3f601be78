"""Monte Carlo oracle: simulation-based checks of the analytic machinery.

Provides exact-marginal increment sampling for every factor kind, an
empirical (plug-in) EVaR based on the log-sum-exp of simulated positions,
and classical Cramer-Lundberg ruin estimates with the Lundberg bound for the
compound-Poisson-exponential reserve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import logsumexp

from .evar import evar_closed_form_brownian
from .factors import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    FactorCombination,
    GammaSubordinator,
    LevyFactor,
)

__all__ = [
    "SimulationConfig",
    "RuinEstimate",
    "sample_increments",
    "empirical_evar",
    "empirical_exponent_check",
    "adjustment_coefficient",
    "ruin_probability",
    "var_inf_bound_check",
    "validation_report",
]

_BLOCK = 10_000  # paths per RNG substream; fixes serial/parallel agreement


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible simulation size: fixed seed implies identical output."""

    seed: int = 0
    n_paths: int = 100_000
    n_steps: int = 1
    horizon: float = 1.0

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be at least 1")
        if not (self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class RuinEstimate:
    """Finite-horizon ruin probability estimate with the Lundberg bound."""

    u: float
    psi_hat: float
    ci_half_width: float
    lundberg_bound: float
    R: float
    horizon: float

    @property
    def bound_ok(self) -> bool:
        return self.psi_hat <= self.lundberg_bound + self.ci_half_width


def _rng(seed, stream: int = 0):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _stable_positive(alpha: float, n: int, rng) -> np.ndarray:
    # Kanter's representation of the one-sided stable law with Laplace
    # transform exp(-s^alpha).
    theta = rng.uniform(0.0, np.pi, n)
    w = rng.exponential(1.0, n)
    a = (
        np.sin(alpha * theta) ** (alpha / (1.0 - alpha))
        * np.sin((1.0 - alpha) * theta)
        / np.sin(theta) ** (1.0 / (1.0 - alpha))
    )
    return (a / w) ** ((1.0 - alpha) / alpha)


def _draw_increments(factor: LevyFactor, dt: float, n: int, rng) -> np.ndarray:
    if isinstance(factor, BrownianWithDrift):
        return rng.normal(factor.mu * dt, factor.sigma * math.sqrt(dt), n)
    if isinstance(factor, GammaSubordinator):
        return factor.mu * dt + rng.gamma(factor.a * dt, 1.0 / factor.b, n)
    if isinstance(factor, AlphaStableSubordinator):
        scale = dt ** (1.0 / factor.alpha)
        return factor.mu * dt + scale * _stable_positive(factor.alpha, n, rng)
    if isinstance(factor, CompoundPoissonExp):
        counts = rng.poisson(factor.lam * dt, n)
        total = np.zeros(n)
        mask = counts > 0
        if mask.any():
            total[mask] = rng.gamma(counts[mask].astype(float), 1.0 / factor.eta)
        return factor.mu * dt + total
    raise TypeError(f"unsupported factor type {type(factor).__name__}")


def sample_increments(factor: LevyFactor, dt: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. increments of W over steps of length dt, deterministic in seed."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    return _draw_increments(factor, dt, n, _rng(seed))


def _sample_position(target, t: float, n: int, seed: int) -> np.ndarray:
    """Samples of X_t for a factor or weighted combination (exact marginals)."""
    if isinstance(target, LevyFactor):
        target = FactorCombination.single(target)
    x = np.zeros(n)
    for j, (factor, d) in enumerate(zip(target.factors, target.weights)):
        if d == 0.0:
            continue
        x += d * _draw_increments(factor, t, n, _rng(seed, j))
    return x


def empirical_evar(
    target: Union[LevyFactor, FactorCombination],
    t: float,
    beta: float,
    config: SimulationConfig,
) -> float:
    """Plug-in EVaR from the empirical Laplace transform of simulated X_t.

    Minimises (ln (1/N) sum exp(-s X) - ln beta)/s over s > 0; the empirical
    transform is evaluated through log-sum-exp so large s cannot overflow.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    x = _sample_position(target, t, config.n_paths, config.seed)
    log_n = math.log(config.n_paths)
    log_beta = math.log(beta)

    def objective(log_s):
        s = math.exp(log_s)
        return (logsumexp(-s * x) - log_n - log_beta) / s

    grid = np.linspace(math.log(1e-4), math.log(1e4), 61)
    vals = [objective(ls) for ls in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return float(min(res.fun, vals[i]))


def empirical_exponent_check(
    factor: LevyFactor,
    dt: float,
    s_values,
    config: SimulationConfig,
    n_sigma: float = 4.0,
):
    """Empirical -ln(Laplace transform)/dt against phi(s) on a grid of s.

    Returns a list of dicts {s, estimate, analytic, stderr, pass} where pass
    means agreement within ``n_sigma`` standard errors.
    """
    x = sample_increments(factor, dt, config.n_paths, config.seed)
    out = []
    for s in s_values:
        z = -s * x
        shift = z.max()
        w = np.exp(z - shift)
        mean_w = w.mean()
        log_mean = shift + math.log(mean_w)
        estimate = -log_mean / dt
        stderr = w.std(ddof=1) / (mean_w * math.sqrt(config.n_paths)) / dt
        analytic = factor.phi(s)
        out.append(
            {
                "s": float(s),
                "estimate": float(estimate),
                "analytic": float(analytic),
                "stderr": float(stderr),
                "pass": bool(abs(estimate - analytic) <= n_sigma * stderr),
            }
        )
    return out


def adjustment_coefficient(cp: CompoundPoissonExp, premium: float) -> float:
    """Smallest positive root R of Lundberg's equation lam + c*r = lam*eta/(eta-r).

    The effective premium nets out the factor's deterministic drift.
    """
    c_eff = premium - cp.mu
    if not (c_eff > cp.lam / cp.eta):
        raise ValueError(
            f"net profit condition violated: premium {premium} must exceed "
            f"expected claims rate {cp.mu + cp.lam / cp.eta}"
        )

    def lundberg(r):
        return cp.lam + c_eff * r - cp.lam * cp.eta / (cp.eta - r)

    lo = 1e-12 * cp.eta
    hi = cp.eta * (1.0 - 1e-13)
    if lundberg(lo) <= 0.0 or lundberg(hi) >= 0.0:
        raise RuntimeError("failed to bracket the adjustment coefficient")
    return brentq(lundberg, lo, hi, xtol=1e-300, rtol=8.882e-16, maxiter=200)


def _path_infima(cp: CompoundPoissonExp, premium: float, horizon: float,
                 n_paths: int, seed: int) -> np.ndarray:
    """Per-path inf over [0, horizon] of C_t = c_eff*t - (compound Poisson).

    C increases between jumps, so the infimum is attained immediately after a
    jump: inf = min(0, min_k(c_eff*t_k - S_k)).
    """
    c_eff = premium - cp.mu
    infima = np.zeros(n_paths)
    pos = 0
    block = 0
    while pos < n_paths:
        size = min(_BLOCK, n_paths - pos)
        rng = _rng(seed, 1000 + block)
        counts = rng.poisson(cp.lam * horizon, size)
        kmax = int(counts.max()) if size else 0
        if kmax > 0:
            # Conditional on the count, jump times are sorted uniforms; pad
            # the unused slots with +inf before sorting so each row keeps
            # exactly its own count of draws.
            mask = np.arange(kmax)[None, :] < counts[:, None]
            times = rng.uniform(0.0, horizon, (size, kmax))
            times = np.sort(np.where(mask, times, np.inf), axis=1)
            jumps = rng.exponential(1.0 / cp.eta, (size, kmax))
            cum = np.cumsum(jumps, axis=1)
            drawdown = np.where(mask, c_eff * times - cum, np.inf)
            infima[pos:pos + size] = np.minimum(0.0, drawdown.min(axis=1))
        pos += size
        block += 1
    return infima


def _ruin_horizon(R: float) -> float:
    return max(50.0, 30.0 / R)


def _ruin_estimate(infima: np.ndarray, u: float, R: float, horizon: float) -> RuinEstimate:
    """psi_hat(u) and its 95% half-width from simulated per-path infima."""
    p = float((infima < -u).mean())
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-12) / infima.size)
    return RuinEstimate(
        u=float(u),
        psi_hat=p,
        ci_half_width=half,
        lundberg_bound=math.exp(-R * u),
        R=R,
        horizon=horizon,
    )


def ruin_probability(cp: CompoundPoissonExp, premium: float, u: float,
                     config: SimulationConfig,
                     horizon: Optional[float] = None) -> RuinEstimate:
    """MC estimate of ruin before a long finite horizon, with Lundberg bound.

    The infinite horizon is truncated at max(50, 30/R); the neglected tail is
    itself bounded by the Lundberg term at that depth.
    """
    if u < 0:
        raise ValueError(f"initial reserve must be nonnegative, got {u}")
    R = adjustment_coefficient(cp, premium)
    if horizon is None:
        horizon = _ruin_horizon(R)
    infima = _path_infima(cp, premium, horizon, config.n_paths, config.seed)
    return _ruin_estimate(infima, u, R, horizon)


def _var_inf_estimate(infima: np.ndarray, beta: float, R: float):
    """(var_est, bound, ok) for VaR_beta of the infimum from simulated per-path infima.

    The acceptance slack is the width of the order-statistic confidence band
    around the empirical beta-quantile.
    """
    infima = np.sort(infima)
    n = infima.size
    k = beta * n
    spread = 4.0 * math.sqrt(n * beta * (1.0 - beta))
    k_lo = max(int(k - spread), 0)
    k_hi = min(int(k + spread), n - 1)
    var_est = -float(infima[int(k)])
    slack = float(infima[k_hi] - infima[k_lo])
    bound = -math.log(beta) / R
    return var_est, bound, bool(var_est <= bound + slack)


def var_inf_bound_check(cp: CompoundPoissonExp, premium: float, beta: float,
                        config: SimulationConfig, horizon: float = 50.0):
    """Check VaR_beta(inf_{0<=t<=T} C_t) <= -ln(beta)/R on simulated paths.

    Returns (var_est, bound, ok); see :func:`_var_inf_estimate`.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    R = adjustment_coefficient(cp, premium)
    infima = _path_infima(cp, premium, horizon, config.n_paths, config.seed)
    return _var_inf_estimate(infima, beta, R)


def validation_report(config: SimulationConfig, beta: float = 0.05) -> list:
    """Deterministic suite of MC-vs-analytic checks for the CLI.

    Each entry is {check_name, analytic, estimate, ci, pass}.
    """
    checks = []

    kinds = [
        BrownianWithDrift(mu=0.1, sigma=1.0),
        GammaSubordinator(a=2.0, b=3.0, mu=0.0),
        AlphaStableSubordinator(alpha=0.5, mu=0.0),
        CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0),
    ]
    for factor in kinds:
        rows = empirical_exponent_check(factor, 1.0, [0.5, 1.0, 2.0], config)
        worst = max(rows, key=lambda r: abs(r["estimate"] - r["analytic"]) / r["stderr"])
        checks.append(
            {
                "check_name": f"laplace_exponent_{factor.kind}",
                "analytic": worst["analytic"],
                "estimate": worst["estimate"],
                "ci": 4.0 * worst["stderr"],
                "pass": all(r["pass"] for r in rows),
            }
        )

    brownian = BrownianWithDrift(mu=0.0, sigma=1.0)
    analytic = evar_closed_form_brownian(0.0, 1.0, 1.0, beta)
    estimate = empirical_evar(brownian, 1.0, beta, config)
    # The plug-in estimator's error scales like 1/sqrt(N); the tolerance is
    # anchored at 1% relative for 10^6 paths.
    rel_tol = 0.01 * math.sqrt(1e6 / config.n_paths)
    checks.append(
        {
            "check_name": "empirical_evar_brownian",
            "analytic": analytic,
            "estimate": estimate,
            "ci": rel_tol * analytic,
            "pass": bool(abs(estimate - analytic) <= rel_tol * abs(analytic)),
        }
    )

    cp = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0)
    premium = 1.5
    R = adjustment_coefficient(cp, premium)
    checks.append(
        {
            "check_name": "lundberg_adjustment_coefficient",
            "analytic": cp.eta - cp.lam / premium,
            "estimate": R,
            "ci": 1e-10,
            "pass": bool(abs(R - (cp.eta - cp.lam / premium)) <= 1e-10),
        }
    )

    # One set of ruin paths serves every reserve level u and the VaR check.
    horizon = _ruin_horizon(R)
    infima = _path_infima(cp, premium, horizon, config.n_paths, config.seed)

    # psi(0) = lam/(c*eta) exactly for exponential jumps.
    est0 = _ruin_estimate(infima, 0.0, R, horizon)
    psi0 = cp.lam / (premium * cp.eta)
    checks.append(
        {
            "check_name": "ruin_probability_at_zero",
            "analytic": psi0,
            "estimate": est0.psi_hat,
            "ci": est0.ci_half_width,
            "pass": bool(abs(est0.psi_hat - psi0) <= 2.0 * est0.ci_half_width),
        }
    )

    for u in (3.0, 9.0):
        est = _ruin_estimate(infima, u, R, horizon)
        checks.append(
            {
                "check_name": f"lundberg_bound_u{u:g}",
                "analytic": est.lundberg_bound,
                "estimate": est.psi_hat,
                "ci": est.ci_half_width,
                "pass": est.bound_ok,
            }
        )

    var_est, bound, ok = _var_inf_estimate(infima, beta, R)
    checks.append(
        {
            "check_name": "var_inf_bound",
            "analytic": bound,
            "estimate": var_est,
            "ci": 0.0,
            "pass": ok,
        }
    )
    return checks
