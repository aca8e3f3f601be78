"""Independent checks of levyrisk outputs, computed by the benchmark itself.

Nothing here imports levyrisk or reads stored expected values. The Laplace
exponents are coded from the formula table in the repository README, with
E[exp(-s W_t)] = exp(-t phi(s)):

    brownian              mu*s - sigma^2 s^2 / 2
    gamma                 mu*s + a*ln(1 + s/b)
    stable                mu*s + s^alpha
    compound_poisson_exp  mu*s + lam*s/(eta + s)

A position with weights d_j has exponent Phi(s) = sum_j phi_j(s d_j) and
EVaR_t = inf_{s>0} (-t Phi(s) - ln beta) / s.

Every check returns a list of error strings; an empty list means it passed.
"""
from __future__ import annotations

import math

import numpy as np

GL_NODES = 64
SUM_RTOL = 1e-8  # sum(L) against the independent CEVaR plus premium term
CLOSED_RTOL = 1e-8  # per-department L against the closed forms
POINT_RTOL = 1e-8  # sum_i K_t^i against the brute-force EVaR
POINT_INDICES = (16, 32, 64)  # grid points (t = T/4, T/2, T) checked pointwise
GRID_POINTS = 65
BISECTION_STEPS = 64
ADAPT_TOL = 1e-13  # halves must agree with their segment to this, relative
ADAPT_DEPTH = 30

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_U = 0.5 * (_GL_X + 1.0)
_GL_WU = 0.5 * _GL_W


# ---------------------------------------------------------------------------
# Exponents (vectorised in s)
# ---------------------------------------------------------------------------

def phi(f, s):
    kind, mu = f["kind"], f["mu"]
    if kind == "brownian":
        return mu * s - 0.5 * f["sigma"] ** 2 * s * s
    if kind == "gamma":
        return mu * s + f["a"] * np.log1p(s / f["b"])
    if kind == "stable":
        return mu * s + s ** f["alpha"]
    return mu * s + f["lambda"] * s / (f["eta"] + s)


def gap(f, s):
    """phi(s) - s*phi'(s), from the formulas above with the drift cancelled."""
    kind = f["kind"]
    if kind == "brownian":
        return 0.5 * f["sigma"] ** 2 * s * s
    if kind == "gamma":
        b = f["b"]
        return f["a"] * (np.log1p(s / b) - s / (b + s))
    if kind == "stable":
        return (1.0 - f["alpha"]) * s ** f["alpha"]
    q = s / (f["eta"] + s)
    return f["lambda"] * q * q


def _limit_slope(factors, d):
    """lim_{s->inf} Phi(s)/s: -inf with a Brownian factor, else sum d_j mu_j."""
    if any(f["kind"] == "brownian" for f in factors):
        return -math.inf
    return float(sum(dj * f["mu"] for f, dj in zip(factors, d)))


def _Phi(factors, d, s):
    return sum(phi(f, s * dj) for f, dj in zip(factors, d))


def _Gap(factors, d, s):
    return sum(gap(f, s * dj) for f, dj in zip(factors, d))


def evar_root(factors, d, beta, t):
    """EVaR at each t (array) through the root of h(s) = t*Gap(s) + ln(beta).

    Vectorised bisection in log s over [1e-12, 1e300]; where h(1e300) < 0 the
    infimum is the limit at s -> inf, -t * sum_j d_j mu_j.
    """
    t = np.asarray(t, dtype=float)
    log_beta = math.log(beta)
    lo = np.full(t.shape, math.log(1e-12))
    hi = np.full(t.shape, math.log(1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        attained = t * _Gap(factors, d, np.exp(hi)) + log_beta >= 0.0
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            up = t * _Gap(factors, d, np.exp(mid)) + log_beta >= 0.0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        s = np.exp(0.5 * (lo + hi))
        value = (-t * _Phi(factors, d, s) - log_beta) / s
    if not attained.all():
        value = np.where(attained, value, -t * _limit_slope(factors, d))
    return value


def evar_brute_force(factors, d, beta, t):
    """EVaR at one t by direct minimisation of g(s) on a zooming log grid."""
    log_beta = math.log(beta)

    def g(log10_s):
        s = 10.0 ** log10_s
        with np.errstate(over="ignore", invalid="ignore"):
            v = (-t * _Phi(factors, d, s) - log_beta) / s
        return np.where(np.isfinite(v), v, np.inf)

    x = np.linspace(-12.0, 300.0, 4001)
    for _ in range(12):
        v = g(x)
        i = int(np.argmin(v))
        x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, x.size - 1)], 41)
    best = float(np.min(g(x)))
    return min(best, -t * _limit_slope(factors, d))


# ---------------------------------------------------------------------------
# Allocation checks
# ---------------------------------------------------------------------------

def _segments(spec):
    """(a, b, w_a, w_b): linear pieces of the weight density on [0, T]."""
    T, knots = spec["T"], spec["knots"]
    if not knots:
        knots = ((0.0, 1.0 / T), (T, 1.0 / T))
    return [(t0, t1, w0, w1) for (t0, w0), (t1, w1) in zip(knots, knots[1:])]


def _gauss(spec, a, b, wa, wb):
    """64-node Gauss-Legendre of (EVaR*omega, t*omega) over [a, b], t = a + (b - a) u^2."""
    t = a + (b - a) * _GL_U ** 2
    jac = 2.0 * (b - a) * _GL_U * _GL_WU
    omega = wa + (wb - wa) * (t - a) / (b - a)
    d = spec["A"].sum(axis=0)
    evar = evar_root(spec["factors"], d, spec["beta"], t)
    return np.array([np.sum(evar * omega * jac), np.sum(t * omega * jac)])


def _adaptive(spec, a, b, wa, wb, whole, depth=0):
    m, wm = 0.5 * (a + b), 0.5 * (wa + wb)
    left, right = _gauss(spec, a, m, wa, wm), _gauss(spec, m, b, wm, wb)
    if depth >= ADAPT_DEPTH or abs(left[0] + right[0] - whole[0]) <= ADAPT_TOL * (1.0 + abs(whole[0])):
        return left + right
    return (_adaptive(spec, a, m, wa, wm, left, depth + 1)
            + _adaptive(spec, m, b, wm, wb, right, depth + 1))


def cevar_gauss(spec):
    """(integral of EVaR*omega, integral of t*omega) over [0, T].

    Gauss-Legendre in u with t = a + (b - a) u^2 on each weight segment, which
    makes the sqrt(t) and t^(1/alpha) onsets smooth in u. A segment is halved
    while its halves disagree with it, which isolates the onset where a
    compound-Poisson-driven position leaves its s -> inf limit.
    """
    total = np.zeros(2)
    for a, b, wa, wb in _segments(spec):
        total += _adaptive(spec, a, b, wa, wb, _gauss(spec, a, b, wa, wb))
    return float(total[0]), float(total[1])


def closed_form_allocation(spec, family):
    """L^i for Brownian-only or common-alpha stable portfolios, uniform weight."""
    A, T, beta, p = spec["A"], spec["T"], spec["beta"], spec["premiums"]
    factors = spec["factors"]
    D = A.sum(axis=0)
    mu = np.array([f["mu"] for f in factors])
    drift = -0.5 * T * (A @ mu) + 0.5 * T * p
    if family == "brownian":
        sig2 = np.array([f["sigma"] ** 2 for f in factors])
        c = math.sqrt(-2.0 * math.log(beta) / float(np.sum(sig2 * D * D)))
        return (2.0 / 3.0) * math.sqrt(T) * c * (A @ (sig2 * D)) + drift
    alpha = factors[0]["alpha"]
    core = (-math.log(beta) / ((1.0 - alpha) * float(np.sum(D ** alpha)))) ** ((alpha - 1.0) / alpha)
    lead = -(alpha * alpha / (alpha + 1.0)) * T ** (1.0 / alpha)
    return lead * core * (A @ (D ** (alpha - 1.0))) + drift


def check_allocation(spec, closed_form, report):
    """Full allocation, closed forms and pointwise Euler sums of one report."""
    errors = []
    A, T, beta = spec["A"], spec["T"], spec["beta"]
    n = A.shape[0]
    L = np.asarray(report.L, dtype=float)
    if L.shape != (n,) or not np.all(np.isfinite(L)):
        return [f"L has shape {L.shape} or is not finite"]

    cevar, moment = cevar_gauss(spec)
    expected = cevar + float(np.sum(spec["premiums"])) * moment
    scale = abs(cevar) + abs(expected - cevar) + float(np.sum(np.abs(L)))
    if abs(L.sum() - expected) > SUM_RTOL * scale:
        errors.append(f"sum(L) = {float(L.sum())!r} but CEVaR + premium term = {expected!r}")

    if closed_form is not None:
        exact = closed_form_allocation(spec, closed_form)
        if not np.allclose(L, exact, rtol=0.0, atol=CLOSED_RTOL * float(np.max(np.abs(exact)))):
            errors.append(f"{closed_form} closed form: L = {L.tolist()} but expected {exact.tolist()}")

    grid = np.asarray(report.grid, dtype=float)
    K = np.asarray(report.K_curve, dtype=float)
    if grid.shape != (GRID_POINTS,) or K.shape != (GRID_POINTS, n):
        errors.append(f"curve shapes {grid.shape} and {K.shape}")
        return errors
    d = A.sum(axis=0)
    for idx in POINT_INDICES:
        t = T * idx / (GRID_POINTS - 1)
        if abs(grid[idx] - t) > 1e-12 * T:
            errors.append(f"grid[{idx}] = {grid[idx]!r}, expected {t!r}")
            continue
        value = evar_brute_force(spec["factors"], d, beta, t)
        total = float(K[idx].sum())
        if abs(total - value) > POINT_RTOL * (1.0 + abs(value)):
            errors.append(f"t = {t!r}: sum K = {total!r} but brute-force EVaR = {value!r}")
    return errors


# ---------------------------------------------------------------------------
# Monte Carlo validation checks
# ---------------------------------------------------------------------------

# The models that levyrisk.validation_report simulates, with their parameters.
MC_KINDS = [
    {"kind": "brownian", "mu": 0.1, "sigma": 1.0},
    {"kind": "gamma", "a": 2.0, "b": 3.0, "mu": 0.0},
    {"kind": "stable", "alpha": 0.5, "mu": 0.0},
    {"kind": "compound_poisson_exp", "lambda": 1.0, "eta": 1.0, "mu": 0.0},
]
MC_S_VALUES = (0.5, 1.0, 2.0)
CP_LAMBDA, CP_ETA, PREMIUM = 1.0, 1.0, 1.5
RUIN_LEVELS = (3.0, 9.0)
EXPECTED_NAMES = (
    [f"laplace_exponent_{f['kind']}" for f in MC_KINDS]
    + ["empirical_evar_brownian", "lundberg_adjustment_coefficient", "ruin_probability_at_zero"]
    + [f"lundberg_bound_u{u:g}" for u in RUIN_LEVELS]
    + ["var_inf_bound"]
)
# Statistical slack: several standard errors beyond the library's own pass
# rule, so that a correct program never fails for an unlucky seed.
EXPONENT_CI_FACTOR = 1.5  # ci is 4 stderr, so 6 stderr
RUIN_CI_FACTOR = 3.0  # ci is 1.96 stderr, so ~6 stderr
EVAR_CI_FACTOR = 2.0
VAR_ABS_TOL = 0.6  # ~6.5 stderr of the 5% quantile at 20k paths


def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_validation(report, beta):
    """Recompute every analytic figure of a validation report and bound its estimates."""
    names = tuple(c.get("check_name") for c in report)
    if names != tuple(EXPECTED_NAMES):
        return [f"report checks are {names}"]
    by = {c["check_name"]: c for c in report}
    errors = []

    for f in MC_KINDS:
        c = by[f"laplace_exponent_{f['kind']}"]
        exact = [float(phi(f, s)) for s in MC_S_VALUES]
        if not any(_close(c["analytic"], v) for v in exact):
            errors.append(f"{c['check_name']}: analytic {c['analytic']!r} not in {exact}")
        if not abs(c["estimate"] - c["analytic"]) <= EXPONENT_CI_FACTOR * c["ci"]:
            errors.append(f"{c['check_name']}: estimate {c['estimate']!r} far from {c['analytic']!r}")

    c = by["empirical_evar_brownian"]
    exact = math.sqrt(-2.0 * math.log(beta))  # sigma = 1, mu = 0, t = 1
    if not _close(c["analytic"], exact):
        errors.append(f"empirical_evar_brownian: analytic {c['analytic']!r}, expected {exact!r}")
    if not abs(c["estimate"] - exact) <= EVAR_CI_FACTOR * c["ci"]:
        errors.append(f"empirical_evar_brownian: estimate {c['estimate']!r} far from {exact!r}")

    R = CP_ETA - CP_LAMBDA / PREMIUM
    c = by["lundberg_adjustment_coefficient"]
    if not (_close(c["analytic"], R) and abs(c["estimate"] - R) <= 1e-10):
        errors.append(f"adjustment coefficient {c['estimate']!r}, expected {R!r}")

    psi0 = CP_LAMBDA / (PREMIUM * CP_ETA)
    c = by["ruin_probability_at_zero"]
    if not _close(c["analytic"], psi0):
        errors.append(f"psi(0) analytic {c['analytic']!r}, expected {psi0!r}")
    if not abs(c["estimate"] - psi0) <= RUIN_CI_FACTOR * c["ci"]:
        errors.append(f"psi(0) estimate {c['estimate']!r} far from {psi0!r}")

    for u in RUIN_LEVELS:
        c = by[f"lundberg_bound_u{u:g}"]
        bound = math.exp(-R * u)
        psi = psi0 * bound  # exact ruin probability for exponential claims
        if not _close(c["analytic"], bound):
            errors.append(f"Lundberg bound at u={u:g}: {c['analytic']!r}, expected {bound!r}")
        if not abs(c["estimate"] - psi) <= RUIN_CI_FACTOR * c["ci"]:
            errors.append(f"psi({u:g}) estimate {c['estimate']!r} far from {psi!r}")

    c = by["var_inf_bound"]
    bound = -math.log(beta) / R
    var_exact = math.log(psi0 / beta) / R  # psi(x) = beta
    if not _close(c["analytic"], bound):
        errors.append(f"VaR bound {c['analytic']!r}, expected {bound!r}")
    if not (abs(c["estimate"] - var_exact) <= VAR_ABS_TOL and c["estimate"] <= bound):
        errors.append(f"VaR of the infimum {c['estimate']!r}, exact {var_exact!r}, bound {bound!r}")
    return errors
