"""Reference computations and check helpers shared by the tests.

The mpmath oracles and the whole-block ruin-path reference share no code with
the library.  The helpers at the end (the one-factor query, the EVaR
objective, the dual spot check, the directional-derivative and
diversification checks) build queries or call ``evar`` and
``euler_contributions``: they test properties of the library's results
rather than recompute them.
"""
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from levyrisk import EvarQuery, FactorCombination, FactorPortfolio, euler_contributions, evar


def composite_simpson(f, a, b, n: int):
    """Fixed-grid composite Simpson with n subintervals (n even); oracle use."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    xs = np.linspace(a, b, n + 1)
    h = (b - a) / n
    vals = [f(x) for x in xs]
    acc = vals[0] + vals[-1]
    acc = acc + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-1:2])
    return acc * h / 3.0


def _closed_form(factor, d):
    """(kind, parameters, d) of one factor held with weight d, the parameters
    converted to mpf once, at the working precision (exact from 53 bits up)."""
    return factor.kind, {name: mp.mpf(value) for name, value in vars(factor).items()}, d


def _exponent(kind, p, s):
    """phi(s) of one factor in closed form, s an mpf."""
    if kind == "brownian":
        return p["mu"] * s - p["sigma"] ** 2 * s * s / 2
    if kind == "gamma":
        return p["mu"] * s + p["a"] * mp.log1p(s / p["b"])
    if kind == "stable":
        return p["mu"] * s + s ** p["alpha"]
    if kind == "compound_poisson_exp":
        return p["mu"] * s + p["lam"] * (s / (p["eta"] + s))
    raise ValueError(f"no closed form for factor kind {kind!r}")


def _gap(kind, p, s):
    """phi(s) - s*phi'(s) of one factor in closed form, s an mpf."""
    if kind == "brownian":
        return p["sigma"] ** 2 * s * s / 2
    if kind == "gamma":
        z = s / p["b"]
        return p["a"] * (mp.log1p(z) - z / (1 + z))
    if kind == "stable":
        return (1 - p["alpha"]) * s ** p["alpha"]
    if kind == "compound_poisson_exp":
        r = s / (p["eta"] + s)
        return p["lam"] * r * r
    raise ValueError(f"no closed form for factor kind {kind!r}")


def _derivative(kind, p, s):
    """phi'(s) of one factor in closed form, s an mpf."""
    if kind == "brownian":
        return p["mu"] - p["sigma"] ** 2 * s
    if kind == "gamma":
        return p["mu"] + p["a"] / (p["b"] + s)
    if kind == "stable":
        return p["mu"] + p["alpha"] * s ** (p["alpha"] - 1)
    if kind == "compound_poisson_exp":
        return p["mu"] + p["lam"] * p["eta"] / (p["eta"] + s) ** 2
    raise ValueError(f"no closed form for factor kind {kind!r}")


def _stationary_point(active, t, log_beta, tol):
    """s* of h(s) = t*gap(s) + ln(beta) for the :func:`_closed_form` triples
    ``active``, in mp.

    Bisection in x = ln(s) over [-700, 2000] until the bracket is narrower
    than ``tol``; mp.inf when h(e^2000) < 0, i.e. the infimum is the s -> inf
    limit.  h increases in s, so the root is unique.
    """
    def h(x):
        s = mp.exp(x)
        return t * sum(_gap(kind, p, s * d) for kind, p, d in active) + log_beta

    lo, hi = mp.mpf(-700), mp.mpf(2000)
    if h(hi) < 0:
        return mp.inf
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def evar_oracle(combination, t, beta, dps=40):
    """EVaR_{1-beta} at horizon t > 0 of sum_j d_j W^j, in mpmath at ``dps`` digits.

    The stationary point s* solves h(s) = t*gap(s) + ln(beta) = 0 with h
    increasing in s; it is found by bisection in x = ln(s) over [-700, 2000],
    and EVaR is g(s*) = (-t*phi(s*) - ln(beta)) / s*.  When h(e^2000) < 0 the
    infimum is the s -> inf limit -t * sum_j d_j mu_j.  The float solver
    treats a root above 1e300 as that limit; the true EVaR differs from it by
    O(1/s*), below 1e-300, which no relative comparison with a nonzero limit
    can resolve in float.
    """
    with mp.workdps(dps):
        t, log_beta = mp.mpf(t), mp.log(mp.mpf(beta))
        active = [_closed_form(f, mp.mpf(d))
                  for f, d in zip(combination.factors, combination.weights) if d > 0]
        s = _stationary_point(active, t, log_beta, mp.mpf(10) ** (-dps // 2))
        if s == mp.inf:
            return float(-t * sum(d * p["mu"] for _, p, d in active))
        phi = sum(_exponent(kind, p, s * d) for kind, p, d in active)
        return float((-t * phi - log_beta) / s)


_MAX_HALVINGS = 100


def _horizon_quad(cuts, f, dps):
    """integral over [cuts[0], cuts[-1]] of f(t) with mp.quad, piece by piece in
    u under t = a + (b - a) u^2.

    A piece is accepted when mp.quad's error estimate is at most 10^-dps of
    its |value|, and halved otherwise.  The estimate is a power of ten capped
    at 1, so an estimate of 1 vouches for nothing and is never accepted.  The
    oracle raises ``ArithmeticError`` rather than halve more than
    ``_MAX_HALVINGS`` times.
    """
    pieces = list(zip(cuts[:-1], cuts[1:]))
    total, halvings = mp.mpf(0), 0
    while pieces:
        a, b = pieces.pop()
        width = mp.mpf(b) - a
        value, error = mp.quad(lambda u: f(a + width * u * u) * 2 * width * u, [0, 1], error=True)
        if error < 1 and error <= mp.mpf(10) ** -dps * abs(value):
            total += value
            continue
        halvings += 1
        if halvings > _MAX_HALVINGS:
            raise ArithmeticError(f"mp.quad cannot reach 10^-{dps} on [{cuts[0]}, {cuts[-1]}]")
        pieces += [(a, a + width / 2), (a + width / 2, b)]
    return total


def allocation_oracle(portfolio, dps=15):
    """``(L, total)`` of ``allocate(portfolio)`` in mpmath.

    L^i = integral_0^T K_t^i omega(t) dt + c^i integral_0^T t omega(t) dt, and
    total = integral_0^T EVaR_{1-beta}(X_t) omega(t) dt + sum_i c^i integral_0^T
    t omega(t) dt, the CEVaR that L allocates.

    The range breaks at the weight knots and, when the position has
    compound-Poisson factors, at the onset -ln(beta) / sum(lambda_j) over them:
    their gaps saturate at lambda_j, so the integrands bend steeply there, and
    for a compound-Poisson-only position they leave their linear s -> inf limit
    there.  On each piece [a, b], t = a + (b - a) u^2 makes the sqrt(t) and
    t^(1/alpha) onsets smooth in u, and mp.quad (tanh-sinh) integrates each
    component in u, halving a piece until its error estimate meets 10^-dps of
    its value (:func:`_horizon_quad`).  The components share their nodes, so
    each node is computed once, at ``dps`` + 5 digits:

    * s* by the bisection of :func:`evar_oracle`, run to 10^-(dps + 2) in ln(s),
      because K, unlike EVaR, is not stationary in s: its error follows that
      of s*;
    * K_t^i = -t sum_j a_ij phi_j'(s* D_j) with D_j = sum_k a_kj, and
      EVaR = (-t*phi(s*) - ln(beta)) / s*;
    * at the s -> inf limit phi_j' is the drift mu_j.
    """
    factors, knots = portfolio.factors, portfolio.weight.knots
    T, beta = portfolio.T, portfolio.beta
    A = [[mp.mpf(float(a)) for a in row] for row in portfolio.A]
    cuts = {0.0, T} | {t for t, _ in knots}
    lams = [f.lam for f in factors if f.kind == "compound_poisson_exp"]
    if lams and -math.log(beta) / sum(lams) < T:
        cuts.add(-math.log(beta) / sum(lams))
    cuts = sorted(cuts)
    with mp.workdps(dps + 5):
        active = [_closed_form(f, mp.fsum(row[j] for row in A)) for j, f in enumerate(factors)]
        log_beta = mp.log(mp.mpf(beta))
    points = {}

    def point(t):
        """[K_t^1, ..., K_t^n, EVaR] at horizon t."""
        if t not in points:
            with mp.workdps(dps + 5):
                s = _stationary_point(active, t, log_beta, mp.mpf(10) ** -(dps + 2))
                if s == mp.inf:
                    dphi = [p["mu"] for _, p, _ in active]
                    value = -t * mp.fsum(d * mu for (_, _, d), mu in zip(active, dphi))
                else:
                    dphi = [_derivative(kind, p, s * d) for kind, p, d in active]
                    phi = mp.fsum(_exponent(kind, p, s * d) for kind, p, d in active)
                    value = (-t * phi - log_beta) / s
                points[t] = [-t * mp.fsum(a * p for a, p in zip(row, dphi)) for row in A] + [value]
        return points[t]

    def omega(t):
        for (t0, w0), (t1, w1) in zip(knots, knots[1:]):
            if t <= t1:
                return w0 + (w1 - w0) * (t - t0) / (t1 - t0)
        return mp.mpf(knots[-1][1])

    with mp.workdps(dps):
        moment = _horizon_quad(cuts, lambda t: t * omega(t), dps)
        integrals = [_horizon_quad(cuts, lambda t: point(t)[i] * omega(t), dps)
                     for i in range(len(A) + 1)]
        premiums = [mp.mpf(float(c)) for c in portfolio.premiums]
        L = [float(integral + c * moment) for integral, c in zip(integrals, premiums)]
        return np.array(L), float(integrals[-1] + mp.fsum(premiums) * moment)


def path_infima_reference(lam, eta, mu, premium, horizon, n_paths, seed):
    """Per-path infima of c_eff*t - (compound Poisson) on [0, horizon], one
    path at a time.

    The plain form of ``montecarlo._path_infima``, with the same substreams,
    draw order and arithmetic: per 10k-path block the Poisson counts; then,
    for each count k > 0 in ascending order, the k time uniforms U of each
    path with that count (in block order), then the k claim uniforms V of
    each of those paths, then one gamma(k) total S per path.  A path's
    claim partial sums are (S / eta) * V_(i) / V_(k), with V reflected to
    (0, 1] before the sort.  The library draws each group of paths as one
    array; its output must equal this bit for bit.
    """
    c_eff = premium - mu
    reach = c_eff * horizon
    claim_scale = 1.0 / (eta * reach)
    infima = np.zeros(n_paths)
    for block, pos in enumerate(range(0, n_paths, 10_000)):
        size = min(10_000, n_paths - pos)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1000 + block]))
        counts = rng.poisson(lam * horizon, size)
        for k in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == k)
            times = [np.sort(rng.random(k)) for _ in rows]
            claims = [np.sort(1.0 - rng.random(k)) for _ in rows]
            totals = [rng.standard_gamma(k) for _ in rows]
            for i, u, v, s in zip(rows, times, claims, totals):
                drop = u - (s / v[-1] * claim_scale) * v
                infima[pos + i] = min(0.0, reach * drop.min())
    return infima


# ---------------------------------------------------------------------------
# Check helpers built on the library's own evar and euler_contributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualCheck:
    """Tilted-density entropy against the dual feasibility budget."""

    entropy: float
    bound: float
    ok: bool


def factor_query(factor, t: float, beta: float) -> EvarQuery:
    """The EVaR query of one factor held with unit weight."""
    return EvarQuery(FactorCombination.single(factor), t, beta)


def evar_objective(query: EvarQuery, s: float) -> float:
    """g(s) = (-t*phi(s) - ln(beta)) / s for s > 0."""
    if not (s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    return (-query.t * query.combination.phi(s) - math.log(query.beta)) / s


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
