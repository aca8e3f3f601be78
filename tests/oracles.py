"""Reference computations shared by the tests; they share no code with the library."""
import math

import mpmath as mp
import numpy as np


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


def _exponent_and_gap(factor, s):
    """(phi(s), phi(s) - s*phi'(s)) of one factor in closed form, s an mpf."""
    p = {name: mp.mpf(value) for name, value in vars(factor).items()}
    if factor.kind == "brownian":
        gap = p["sigma"] ** 2 * s * s / 2
        return p["mu"] * s - gap, gap
    if factor.kind == "gamma":
        z = s / p["b"]
        return p["mu"] * s + p["a"] * mp.log1p(z), p["a"] * (mp.log1p(z) - z / (1 + z))
    if factor.kind == "stable":
        power = s ** p["alpha"]
        return p["mu"] * s + power, (1 - p["alpha"]) * power
    if factor.kind == "compound_poisson_exp":
        r = s / (p["eta"] + s)
        return p["mu"] * s + p["lam"] * r, p["lam"] * r * r
    raise ValueError(f"no closed form for factor kind {factor.kind!r}")


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
        active = [(f, mp.mpf(d)) for f, d in zip(combination.factors, combination.weights) if d > 0]

        def exponent_and_gap(s):
            pairs = [_exponent_and_gap(f, s * d) for f, d in active]
            return sum(p for p, _ in pairs), sum(g for _, g in pairs)

        def h(x):
            return t * exponent_and_gap(mp.exp(x))[1] + log_beta

        lo, hi = mp.mpf(-700), mp.mpf(2000)
        if h(hi) < 0:
            return float(-t * sum(d * mp.mpf(f.mu) for f, d in active))
        while hi - lo > mp.mpf(10) ** (-dps // 2):
            mid = (lo + hi) / 2
            if h(mid) < 0:
                lo = mid
            else:
                hi = mid
        s = mp.exp((lo + hi) / 2)
        return float((-t * exponent_and_gap(s)[0] - log_beta) / s)


def cevar_oracle(combination, T, beta, knots=None, dps=15):
    """CEVaR: integral_0^T EVaR_{1-beta}(X_t) omega(t) dt, with mp.quad (tanh-sinh).

    omega is 1/T, or linear between ``knots`` (t_k, w_k) spanning [0, T].  The
    range breaks at the knots and, for a compound-Poisson-only position, at
    the onset -ln(beta) / sum(lambda_j), where EVaR leaves its linear s -> inf
    limit.  On each piece [a, b], t = a + (b - a) u^2 makes the sqrt(t) and
    t^(1/alpha) onsets smooth in u, and each node takes :func:`evar_oracle`.
    Its nodes are float EVaR values, so ``dps`` = 15 suffices: 20 and 25 give
    the same float on the positions of the tests.
    """
    active = [f for f, d in zip(combination.factors, combination.weights) if d > 0]
    cuts = {0.0, float(T)} | {float(t) for t, _ in knots or ()}
    if all(f.kind == "compound_poisson_exp" for f in active) and beta < 1.0:
        onset = -math.log(beta) / sum(f.lam for f in active)
        if onset < T:
            cuts.add(onset)
    cuts = sorted(cuts)
    with mp.workdps(dps):
        def omega(t):
            if knots is None:
                return 1 / mp.mpf(T)
            for (t0, w0), (t1, w1) in zip(knots, knots[1:]):
                if t <= t1:
                    return w0 + (w1 - w0) * (t - t0) / (t1 - t0)
            return mp.mpf(knots[-1][1])

        total = mp.mpf(0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            width = mp.mpf(b) - a

            def integrand(u):
                t = a + width * u * u
                return evar_oracle(combination, t, beta, dps=dps + 5) * omega(t) * 2 * width * u

            total += mp.quad(integrand, [0, 1])
        return float(total)
