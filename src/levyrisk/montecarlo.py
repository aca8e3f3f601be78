"""Monte Carlo oracle: simulation-based checks of the analytic machinery.

Provides exact-marginal increment sampling for every factor kind, a plug-in
EVaR solved on the empirical Laplace exponent of simulated positions, and
classical Cramer-Lundberg ruin estimates with the Lundberg bound for the
compound-Poisson-exponential reserve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .evar import EvarQuery, evar, evar_closed_form_brownian
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

# Paths per RNG substream: one substream per 10k paths, so the draws do not
# depend on how the work is split.
_BLOCK = 10_000
_N_SIGMA = 4.0  # standard errors within which an empirical Laplace exponent passes


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible simulation size: fixed seed implies identical output."""

    seed: int = 0
    n_paths: int = 100_000

    def __post_init__(self):
        if self.n_paths < 2:  # a standard error needs two paths
            raise ValueError(f"n_paths must be at least 2, got {self.n_paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


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


def sample_increments(target: Union[LevyFactor, FactorCombination], dt: float, n: int,
                      seed: int) -> np.ndarray:
    """n i.i.d. increments over steps of length dt of a factor or a weighted
    combination (exact marginals), deterministic in seed: factor j of a
    combination draws from substream j, and a lone factor is substream 0."""
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be a positive finite real, got {dt}")
    if isinstance(target, LevyFactor):
        return _draw_increments(target, dt, n, _rng(seed))
    x = np.zeros(n)
    for j, (factor, d) in enumerate(zip(target.factors, target.weights)):
        if d == 0.0:
            continue
        x += d * _draw_increments(factor, dt, n, _rng(seed, j))
    return x


class _EmpiricalExponent(LevyFactor):
    """phi(s) = -ln mean exp(-s*X) of samples X, as one factor for the EVaR solver.

    With Y = X - min X >= 0 the weights exp(-s*Y) lie in [0, 1] (the max-shift
    of a log-sum-exp) and phi_gap carries no drift.  phi'' is minus the tilted
    variance of Y.  As s -> inf only the ties at min X keep weight, so
    phi(s)/s -> min X (its own ``slope_at_infinity``: it has no dphi) and
    phi_gap -> ln(N / #ties).
    """

    def __init__(self, x: np.ndarray):
        self.low = float(x.min())
        self.y = x - self.low
        self._s = None

    def weights(self, s):
        """w = exp(-s*Y) in [0, 1].  The solver asks for phi_gap and phi'' at
        one s, so w and its tilted moments are kept for the last s."""
        if s != self._s:
            self._s, self._w, self._tilt = s, np.exp(-(s * self.y)), None
        return self._w

    def _moments(self, s):
        """(ln mean w, tilted mean and variance of Y)."""
        w = self.weights(s)
        if self._tilt is None:
            p = w / w.sum()
            mean = float(p @ self.y)
            self._tilt = math.log(w.mean()), mean, float(p @ (self.y - mean) ** 2)
        return self._tilt

    def phi(self, s):
        return s * self.low - math.log(self.weights(s).mean())

    def d2phi(self, s):
        return -self._moments(s)[2]

    def phi_gap(self, s):
        log_mean, mean, _ = self._moments(s)
        return -log_mean - s * mean

    def slope_at_infinity(self):
        return self.low


def empirical_evar(
    target: Union[LevyFactor, FactorCombination],
    t: float,
    beta: float,
    config: SimulationConfig,
) -> float:
    """Plug-in EVaR inf_s (ln (1/N) sum exp(-s X) - ln beta)/s of simulated X_t,
    t > 0 (X_t is drawn by :func:`sample_increments` with dt = t).

    :func:`evar.evar` solves it on the empirical exponent, with the stationary
    solve and boundary limits of the analytic EVaR.  At beta <= #ties/N (so
    at every beta <= 1/N) the infimum is the s -> inf limit -min X.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be a positive finite real, got {t}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    x = sample_increments(target, t, config.n_paths, config.seed)
    plug_in = FactorCombination.single(_EmpiricalExponent(x))
    return evar(EvarQuery(plug_in, 1.0, beta)).value


def empirical_exponent_check(
    factor: LevyFactor,
    dt: float,
    s_values,
    config: SimulationConfig,
):
    """Empirical -ln(Laplace transform)/dt against phi(s) on a grid of s.

    Returns a list of dicts {s, estimate, analytic, stderr, pass} where pass
    means agreement within _N_SIGMA (4) standard errors.
    """
    plug_in = _EmpiricalExponent(sample_increments(factor, dt, config.n_paths, config.seed))
    out = []
    for s in s_values:
        w = plug_in.weights(s)
        estimate = plug_in.phi(s) / dt
        stderr = w.std(ddof=1) / (w.mean() * math.sqrt(config.n_paths)) / dt
        analytic = factor.phi(s)
        out.append(
            {
                "s": float(s),
                "estimate": float(estimate),
                "analytic": float(analytic),
                "stderr": float(stderr),
                "pass": bool(abs(estimate - analytic) <= _N_SIGMA * stderr),
            }
        )
    return out


def adjustment_coefficient(cp: CompoundPoissonExp, premium: float) -> float:
    """The positive root R of Lundberg's equation lam + c*r = lam*eta/(eta-r).

    Times eta - r, the equation for exponential jumps reads
    r * (c*eta - lam - c*r) = 0, so R = eta - lam/c in closed form; the
    effective premium c nets out the factor's deterministic drift.  R > 0 is
    the net profit condition c > lam/eta.
    """
    c_eff = premium - cp.mu
    R = cp.eta - cp.lam / c_eff if c_eff > 0.0 else math.nan
    if not R > 0.0:
        raise ValueError(
            f"net profit condition violated: premium {premium} must exceed "
            f"expected claims rate {cp.mu + cp.lam / cp.eta}"
        )
    return R


def _path_infima(cp: CompoundPoissonExp, premium: float, horizon: float,
                 n_paths: int, seed: int) -> np.ndarray:
    """Per-path inf over [0, horizon] of C_t = c_eff*t - (compound Poisson).

    C increases between jumps, so the infimum is attained immediately after a
    jump: inf = min(0, min_k(c_eff*t_k - S_k)).  Each block of _BLOCK paths
    draws from its own substream, so the draws depend only on the seed and
    the path's block, and a block's arrays are released before the next block
    draws.  A path draws no exponential claims: its sorted jump times and
    claim partial sums come from sorted uniforms, the latter scaled by one
    gamma total per path (see :func:`_block_infima` for the order and why it
    is exact in law).
    """
    c_eff = premium - cp.mu
    infima = np.zeros(n_paths)
    for block, pos in enumerate(range(0, n_paths, _BLOCK)):
        _block_infima(_rng(seed, 1000 + block), cp, c_eff, horizon,
                      infima[pos:pos + _BLOCK])
    return infima


def _block_infima(rng, cp: CompoundPoissonExp, c_eff: float, horizon: float,
                  out: np.ndarray) -> None:
    """Write the infima of one block's paths into ``out`` (zeros on entry).

    The block draws its Poisson counts, then walks its paths grouped by jump
    count: for each count k > 0 in ascending order, the n_k paths with that
    count (in block order) draw one (2, n_k, k) array of uniforms, sort its
    rows, and draw n_k standard_gamma(k) totals S.  Row 0 gives the jump
    times horizon * U_(i).  Row 1, reflected to (0, 1] by 1 - V so that
    V_(k) > 0, gives the claim partial sums H_i = (S / eta) * V_(i) / V_(k).

    This is exact in law (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. V).  Given its count, a path's sorted times are the order
    statistics of k i.i.d. uniforms on [0, horizon].  Its claims are i.i.d.
    exponential(1 / eta), so their total H_k is gamma(k, 1 / eta) and the
    ratios H_i / H_k, i < k, are the order statistics of k - 1 uniforms,
    independent of H_k.  V_(i) / V_(k), i < k, have that same law and are
    independent of V_(k), so no exponential is drawn and no cumsum is taken.
    With reach = c_eff * horizon > 0 (the net profit condition), the
    infimum is min(0, reach * min_i(U_(i) - H_i / reach)).
    """
    counts = rng.poisson(cp.lam * horizon, out.size)
    # A stable sort is unique; in the smallest integer type that holds the
    # counts (uint8 at lam*horizon = 90) numpy sorts them by radix.
    order = np.argsort(counts.astype(np.min_scalar_type(counts.max())), kind="stable")
    sizes = np.bincount(counts)
    # The paths with count k are order[ends[k - 1]:ends[k]], in block order.
    ends = np.cumsum(sizes)
    # One buffer, sized for the uniforms of the largest group, serves every
    # group in turn.  Arrays per count (~70 counts at lam*horizon = 90) of
    # varying sizes fragmented the heap: the peak RSS of a process that also
    # makes large arrays rose by ~8 MB in some runs.
    room = int((sizes * np.arange(sizes.size)).max())
    buffer = np.empty(2 * room)
    reach = c_eff * horizon
    claim_scale = 1.0 / (cp.eta * reach)
    for k in range(1, ends.size):
        rows = order[ends[k - 1]:ends[k]]
        if rows.size == 0:
            continue
        uniforms = buffer[:2 * rows.size * k].reshape(2, rows.size, k)
        rng.random(out=uniforms)
        times, claims = uniforms
        np.subtract(1.0, claims, out=claims)
        uniforms.sort(axis=2)
        # Per path, H_i / reach = (S / V_(k) * claim_scale) * V_(i).
        scale = rng.standard_gamma(k, rows.size)
        scale /= claims[:, -1]
        scale *= claim_scale
        claims *= scale[:, None]
        times -= claims
        out[rows] = np.minimum(0.0, reach * times.min(axis=1))


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
                     config: SimulationConfig) -> RuinEstimate:
    """MC estimate of ruin before a long finite horizon, with Lundberg bound.

    The infinite horizon is truncated at max(50, 30/R); the neglected tail is
    itself bounded by the Lundberg term at that depth.
    """
    if u < 0:
        raise ValueError(f"initial reserve must be nonnegative, got {u}")
    R = adjustment_coefficient(cp, premium)
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
                        config: SimulationConfig):
    """Check VaR_beta(inf_{0<=t<=T} C_t) <= -ln(beta)/R on paths to T = max(50, 30/R).

    Returns (var_est, bound, ok); see :func:`_var_inf_estimate`.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    R = adjustment_coefficient(cp, premium)
    infima = _path_infima(cp, premium, _ruin_horizon(R), config.n_paths, config.seed)
    return _var_inf_estimate(infima, beta, R)


def _z_score(row) -> float:
    """|estimate - analytic| in standard errors: at a zero standard error (all
    draws equal), inf if the two differ and 0 if they agree."""
    diff = abs(row["estimate"] - row["analytic"])
    return diff / row["stderr"] if row["stderr"] > 0.0 else (math.inf if diff else 0.0)


def validation_report(config: SimulationConfig, beta: float = 0.05) -> list:
    """Deterministic suite of MC-vs-analytic checks for the CLI.

    Each entry is {check_name, analytic, estimate, ci, pass}.
    """
    checks = []

    def check(name, analytic, estimate, ci, ok):
        checks.append({"check_name": name, "analytic": analytic, "estimate": estimate,
                       "ci": ci, "pass": bool(ok)})

    kinds = [
        BrownianWithDrift(mu=0.1, sigma=1.0),
        GammaSubordinator(a=2.0, b=3.0, mu=0.0),
        AlphaStableSubordinator(alpha=0.5, mu=0.0),
        CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0),
    ]
    for factor in kinds:
        rows = empirical_exponent_check(factor, 1.0, [0.5, 1.0, 2.0], config)
        worst = max(rows, key=_z_score)
        check(f"laplace_exponent_{factor.kind}", worst["analytic"], worst["estimate"],
              _N_SIGMA * worst["stderr"], all(r["pass"] for r in rows))

    brownian = BrownianWithDrift(mu=0.0, sigma=1.0)
    analytic = evar_closed_form_brownian(0.0, 1.0, 1.0, beta)
    estimate = empirical_evar(brownian, 1.0, beta, config)
    # The plug-in estimator's error scales like 1/sqrt(N); the tolerance is
    # anchored at 1% relative for 10^6 paths.
    rel_tol = 0.01 * math.sqrt(1e6 / config.n_paths)
    check("empirical_evar_brownian", analytic, estimate, rel_tol * analytic,
          abs(estimate - analytic) <= rel_tol * abs(analytic))

    cp = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0)
    premium = 1.5
    R = adjustment_coefficient(cp, premium)
    # The formula of R itself: the row keeps the report's set of check names.
    exact_R = cp.eta - cp.lam / premium
    check("lundberg_adjustment_coefficient", exact_R, R, 1e-10, abs(R - exact_R) <= 1e-10)

    # One set of ruin paths serves every reserve level u and the VaR check.
    horizon = _ruin_horizon(R)
    infima = _path_infima(cp, premium, horizon, config.n_paths, config.seed)

    # psi(0) = lam/(c*eta) exactly for exponential jumps.
    est0 = _ruin_estimate(infima, 0.0, R, horizon)
    psi0 = cp.lam / (premium * cp.eta)
    check("ruin_probability_at_zero", psi0, est0.psi_hat, est0.ci_half_width,
          abs(est0.psi_hat - psi0) <= 2.0 * est0.ci_half_width)

    for u in (3.0, 9.0):
        est = _ruin_estimate(infima, u, R, horizon)
        check(f"lundberg_bound_u{u:g}", est.lundberg_bound, est.psi_hat, est.ci_half_width,
              est.bound_ok)

    var_est, bound, ok = _var_inf_estimate(infima, beta, R)
    check("var_inf_bound", bound, var_est, 0.0, ok)
    return checks
