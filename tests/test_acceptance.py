"""Acceptance gate: every release-blocking criterion with its stated tolerance.

Each test emits exactly one PASS/FAIL line (bypassing output capture) and
enforces its runtime budget.
"""
import math
import sys
import time

import numpy as np
import pytest

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CevarQuery,
    CompoundPoissonExp,
    EvarQuery,
    FactorCombination,
    FactorPortfolio,
    GammaSubordinator,
    SimulationConfig,
    adjustment_coefficient,
    allocate,
    brownian_allocation,
    cevar,
    directional_derivative_check,
    empirical_evar,
    empirical_exponent_check,
    euler_contributions,
    evar,
    evar_closed_form_brownian,
    ruin_probability,
    stable_allocation,
    var_inf_bound_check,
)
from oracles import composite_simpson


@pytest.fixture
def verdict(request):
    """Emit one PASS/FAIL line per criterion, visible despite output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(name, ok, elapsed, budget):
        status = "PASS" if ok and elapsed <= budget else "FAIL"
        line = f"[acceptance] {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)\n"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
        else:
            sys.stdout.write(line)
        assert ok
        assert elapsed <= budget, f"{name} exceeded runtime budget: {elapsed:.2f}s"

    return report


def random_mixed_portfolio(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    A = rng.uniform(0.0, 2.0, (n, m))
    A[0] += 0.1
    factors = []
    for _ in range(m):
        kind = rng.integers(0, 4)
        if kind == 0:
            factors.append(BrownianWithDrift(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2)))
        elif kind == 1:
            factors.append(GammaSubordinator(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                             rng.uniform(0, 0.5)))
        elif kind == 2:
            factors.append(AlphaStableSubordinator(rng.uniform(0.25, 0.8),
                                                   rng.uniform(0, 0.5)))
        else:
            factors.append(CompoundPoissonExp(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                              rng.uniform(0, 0.5)))
    premiums = rng.uniform(0.0, 0.5, n)
    T = rng.uniform(0.5, 4.0)
    beta = rng.uniform(0.01, 0.5)
    return FactorPortfolio(A, factors, premiums, T, beta)


def random_combination(rng):
    m = int(rng.integers(1, 4))
    factors = []
    for _ in range(m):
        kind = rng.integers(0, 4)
        if kind == 0:
            factors.append(BrownianWithDrift(rng.uniform(-1, 1), rng.uniform(0.2, 2)))
        elif kind == 1:
            factors.append(GammaSubordinator(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                             rng.uniform(0, 1)))
        elif kind == 2:
            factors.append(AlphaStableSubordinator(rng.uniform(0.2, 0.8),
                                                   rng.uniform(0, 1)))
        else:
            factors.append(CompoundPoissonExp(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                              rng.uniform(0, 1)))
    return FactorCombination(factors, rng.uniform(0.1, 2.0, m).tolist())


def test_criterion_1_brownian_evar_closed_form(verdict):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.1, 5)
        t = rng.uniform(0.01, 10)
        beta = rng.uniform(0.001, 0.99)
        query = EvarQuery.of_factor(BrownianWithDrift(mu, sigma), t, beta)
        value = evar(query).value
        exact = evar_closed_form_brownian(mu, sigma, t, beta)
        if abs(value - exact) > 1e-10 * abs(exact):
            ok = False
            break
    verdict("1 Brownian EVaR closed form (1000 random, rel 1e-10)",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_2_brownian_cevar_closed_form(verdict):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.1, 5)
        T = rng.uniform(0.05, 8)
        beta = rng.uniform(0.001, 0.99)
        comb = FactorCombination([BrownianWithDrift(mu, sigma)], [1.0])
        value = cevar(CevarQuery(comb, T, beta))
        exact = -mu * T / 2.0 + (2.0 / 3.0) * sigma * math.sqrt(
            -2.0 * T * math.log(beta)
        )
        if abs(value - exact) > 1e-8 * abs(exact):
            ok = False
            break
    verdict("2 Brownian CEVaR closed form (100 random, rel 1e-8)",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_3_full_allocation_identity(verdict):
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        p = random_mixed_portfolio(rng)
        comb = p.combination(None)
        for _ in range(20):
            t = rng.uniform(0.05 * p.T, p.T)
            total = float(euler_contributions(p, t).sum())
            value = evar(EvarQuery(comb, t, p.beta)).value
            if abs(total - value) > 1e-9 * (1.0 + abs(value)):
                ok = False
                break
        if not ok:
            break
    verdict("3 full allocation: sum K_t^i = aggregate EVaR (100x20, 1e-9)",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_4_closed_form_allocations(verdict):
    start = time.perf_counter()
    ok = True

    # Driftless Brownian factors against the closed-form allocation.
    A = np.array([[1.0, 0.5, 0.2], [0.0, 1.0, 0.7], [2.0, 0.0, 0.4]])
    sigmas = np.array([1.2, 0.8, 1.5])
    premiums = np.array([0.1, 0.0, 0.3])
    T, beta = 2.0, 0.05
    p = FactorPortfolio(A, [BrownianWithDrift(0.0, s) for s in sigmas],
                        premiums, T, beta)
    L = allocate(p).L
    exact = brownian_allocation(A, sigmas, premiums, T, beta)
    if not np.allclose(L, exact, rtol=1e-8, atol=0.0):
        ok = False

    # Common-alpha stable factors against the closed-form allocation.
    A2 = np.array([[1.0, 0.3], [0.4, 1.2]])
    premiums2 = np.array([0.2, 0.1])
    for alpha in (0.3, 0.5, 0.7):
        p2 = FactorPortfolio(A2, [AlphaStableSubordinator(alpha)] * 2,
                             premiums2, 1.5, beta)
        L2 = allocate(p2).L
        exact2 = stable_allocation(A2, alpha, premiums2, 1.5, beta)
        if not np.allclose(L2, exact2, rtol=1e-8, atol=0.0):
            ok = False

    # Gamma factors against a 10^4-point fixed-grid Simpson oracle.
    A3 = np.array([[1.0, 0.5], [0.3, 1.5]])
    premiums3 = np.array([0.1, 0.2])
    p3 = FactorPortfolio(
        A3,
        [GammaSubordinator(2.0, 1.0, 0.3), GammaSubordinator(1.0, 2.0, 0.0)],
        premiums3, 1.5, beta,
    )
    L3 = allocate(p3).L

    def k_over_T(t):
        if t == 0.0:
            return np.zeros(p3.n)
        return euler_contributions(p3, t) / p3.T

    oracle = composite_simpson(k_over_T, 0.0, p3.T, 10_000) + premiums3 * p3.T / 2.0
    if np.max(np.abs(L3 - oracle)) > 1e-6 * (1.0 + np.max(np.abs(oracle))):
        ok = False

    verdict("4 closed-form allocations (Brownian/stable 1e-8, gamma oracle 1e-6)",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_5_directional_derivative(verdict):
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        p = random_mixed_portfolio(rng)
        t = rng.uniform(0.1, p.T)
        i = int(rng.integers(0, p.n))
        analytic, fd = directional_derivative_check(p, i, t, epsilon=1e-6)
        scale = max(abs(analytic), 1e-3)
        if abs(fd - analytic) > 1e-4 * scale:
            ok = False
            break
    verdict("5 directional derivative vs finite difference (50 random, 1e-4)",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_6_coherence_suite(verdict):
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    ok = True

    for _ in range(500):  # positive homogeneity
        comb = random_combination(rng)
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        lam = rng.uniform(0.2, 4.0)
        base = evar(EvarQuery(comb, t, beta)).value
        scaled = evar(EvarQuery(comb.scaled(lam), t, beta)).value
        if abs(scaled - lam * base) > 1e-9 * (1.0 + abs(lam * base)):
            ok = False

    for _ in range(500):  # translation invariance via the drift parameter
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        mu, sigma = rng.uniform(-1, 1), rng.uniform(0.2, 2)
        shift = rng.uniform(-2, 2)
        base = evar(EvarQuery.of_factor(BrownianWithDrift(mu, sigma), t, beta)).value
        moved = evar(
            EvarQuery.of_factor(BrownianWithDrift(mu + shift / t, sigma), t, beta)
        ).value
        if abs(moved - (base - shift)) > 1e-9 * (1.0 + abs(base)):
            ok = False

    for _ in range(500):  # monotone in beta
        comb = random_combination(rng)
        t = rng.uniform(0.1, 5)
        b1, b2 = sorted(rng.uniform(0.01, 0.99, 2))
        v1 = evar(EvarQuery(comb, t, b1)).value
        v2 = evar(EvarQuery(comb, t, b2)).value
        if v1 < v2 - 1e-9 * (1.0 + abs(v1)):
            ok = False

    for _ in range(500):  # subadditivity across independent blocks
        a = random_combination(rng)
        b = random_combination(rng)
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        va = evar(EvarQuery(a, t, beta)).value
        vb = evar(EvarQuery(b, t, beta)).value
        vab = evar(EvarQuery(a.concat(b), t, beta)).value
        if vab > va + vb + 1e-9 * (1.0 + abs(va + vb)):
            ok = False

    verdict("6 coherence suite (4 properties x 500 instances)",
           ok, time.perf_counter() - start, 120.0)


def test_criterion_7_monte_carlo_cross_check(verdict):
    start = time.perf_counter()
    ok = True

    config = SimulationConfig(seed=107, n_paths=1_000_000)
    estimate = empirical_evar(BrownianWithDrift(0.0, 1.0), 1.0, 0.05, config)
    if abs(estimate - 2.4477468) > 0.01 * 2.4477468:
        ok = False

    kinds = [
        BrownianWithDrift(mu=0.1, sigma=1.0),
        GammaSubordinator(a=2.0, b=3.0, mu=0.0),
        AlphaStableSubordinator(alpha=0.5, mu=0.0),
        CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0),
    ]
    check_config = SimulationConfig(seed=1070, n_paths=200_000)
    for factor in kinds:
        rows = empirical_exponent_check(factor, 1.0, [0.5, 1.0, 2.0], check_config)
        if not all(r["pass"] for r in rows):
            ok = False

    verdict("7 Monte Carlo cross-check (empirical EVaR 1%, exponents 4 s.e.)",
           ok, time.perf_counter() - start, 180.0)


def test_criterion_8_lundberg_ruin(verdict):
    start = time.perf_counter()
    ok = True
    cp = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0)
    premium = 1.5

    R = adjustment_coefficient(cp, premium)
    if abs(R - 1.0 / 3.0) > 1e-10:
        ok = False

    config = SimulationConfig(seed=108, n_paths=200_000)
    for u in (0.0, 3.0, 9.0, 15.0):
        est = ruin_probability(cp, premium, u, config)
        if est.psi_hat > math.exp(-u / 3.0) + est.ci_half_width:
            ok = False
        if u == 0.0 and abs(est.psi_hat - 2.0 / 3.0) > 2.0 * est.ci_half_width:
            ok = False

    _, _, bound_ok = var_inf_bound_check(cp, premium, 0.05, config)
    if not bound_ok:
        ok = False

    verdict("8 Lundberg/ruin (R=1/3 to 1e-10, bounds at u in {0,3,9,15})",
           ok, time.perf_counter() - start, 180.0)
