import math
import sys

import numpy as np
import pytest

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CevarQuery,
    CompoundPoissonExp,
    EvarQuery,
    FactorPortfolio,
    GammaSubordinator,
    WeightFunction,
    allocate,
    brownian_allocation,
    brownian_contributions,
    brownian_s_star,
    cevar,
    euler_contributions,
    evar,
    evar_closed_form_brownian,
    stable_allocation,
    stable_contributions,
)
from levyrisk.errors import DomainError
from levyrisk.evar import solve_stationary
from oracles import directional_derivative_check, diversification_check


def brownian_portfolio(T=2.0, beta=0.05):
    A = np.array([[1.0, 0.5], [0.0, 1.0], [2.0, 0.0]])
    sigmas = [1.2, 0.8]
    factors = [BrownianWithDrift(0.0, s) for s in sigmas]
    premiums = [0.1, 0.0, 0.3]
    return FactorPortfolio(A, factors, premiums, T, beta), np.array(sigmas)


def random_portfolio(rng, kinds=("brownian", "gamma", "stable", "cpois")):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    A = rng.uniform(0.0, 2.0, (n, m))
    A[0] += 0.1  # keep every factor column active
    factors = []
    for _ in range(m):
        kind = kinds[rng.integers(0, len(kinds))]
        if kind == "brownian":
            factors.append(BrownianWithDrift(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2)))
        elif kind == "gamma":
            factors.append(GammaSubordinator(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                             rng.uniform(0, 0.5)))
        elif kind == "stable":
            factors.append(AlphaStableSubordinator(rng.uniform(0.25, 0.8),
                                                   rng.uniform(0, 0.5)))
        else:
            factors.append(CompoundPoissonExp(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                              rng.uniform(0, 0.5)))
    premiums = rng.uniform(0.0, 0.5, n)
    T = rng.uniform(0.5, 4.0)
    beta = rng.uniform(0.01, 0.5)
    return FactorPortfolio(A, factors, premiums, T, beta)


# ---------------------------------------------------------------------------
# portfolio validation
# ---------------------------------------------------------------------------

def test_portfolio_validation():
    f = [BrownianWithDrift(0.0, 1.0)]
    with pytest.raises(ValueError, match="nonnegative"):
        FactorPortfolio([[-1.0]], f, [0.0], 1.0, 0.05)
    with pytest.raises(ValueError, match="zero total exposure"):
        FactorPortfolio([[0.0]], f, [0.0], 1.0, 0.05)
    with pytest.raises(ValueError, match="sum beyond float range"):
        FactorPortfolio([[1e308], [1e308]], f, [0.0, 0.0], 1.0, 0.05)
    with pytest.raises(ValueError, match="factors"):
        FactorPortfolio([[1.0, 1.0]], f, [0.0], 1.0, 0.05)
    with pytest.raises(ValueError, match="premiums"):
        FactorPortfolio([[1.0]], f, [0.0, 0.1], 1.0, 0.05)
    with pytest.raises(ValueError, match="beta"):
        FactorPortfolio([[1.0]], f, [0.0], 1.0, 1.0)
    half = WeightFunction.table([(0.0, 2.0), (0.5, 2.0)])  # normalised on [0, 0.5]
    with pytest.raises(ValueError, match=r"horizon is \[0, 1.0\]"):
        FactorPortfolio([[1.0]], f, [0.0], 1.0, 0.05, weight=half)


def test_portfolio_rejects_non_finite_inputs():
    f = [BrownianWithDrift(0.0, 1.0)]
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="exposures .* finite"):
            FactorPortfolio([[value]], f, [0.0], 1.0, 0.05)
        with pytest.raises(ValueError, match="premium .* finite"):
            FactorPortfolio([[1.0]], f, [value], 1.0, 0.05)


def test_portfolio_combination_exposures():
    p, _ = brownian_portfolio()
    comb = p.combination(None)
    assert comb.weights == (3.0, 1.5)
    comb_u = p.combination([1.0, 0.0, 0.0])
    assert comb_u.weights == (1.0, 0.5)
    with pytest.raises(ValueError, match="length"):
        p.combination([1.0, 1.0])


# ---------------------------------------------------------------------------
# stationary point
# ---------------------------------------------------------------------------

def test_solve_s_star_brownian_closed_form():
    p, sigmas = brownian_portfolio()
    t = 1.3
    expected = brownian_s_star(sigmas, p.column_sums(), t, p.beta)
    s_star = solve_stationary(p.combination(None), t, p.beta)[0]
    assert s_star == pytest.approx(expected, rel=1e-10)


def test_s_star_scales_inversely_with_exposure():
    p, _ = brownian_portfolio()
    t, lam = 0.8, 3.0
    base = solve_stationary(p.combination(np.ones(3)), t, p.beta)[0]
    scaled = solve_stationary(p.combination(lam * np.ones(3)), t, p.beta)[0]
    assert scaled == pytest.approx(base / lam, rel=1e-9)


def test_solve_s_star_gamma_frozen_root():
    # Two unit-rate gamma factors on the identity: the stationarity condition
    # reduces to 2*(ln(1+s) - s/(1+s)) = -ln(0.05); root frozen from an
    # independent bisection.
    p = FactorPortfolio(np.eye(2), [GammaSubordinator(1.0, 1.0)] * 2,
                        [0.0, 0.0], 1.0, 0.05)
    s_star = solve_stationary(p.combination(None), 1.0, p.beta)[0]
    assert s_star == pytest.approx(10.110140796728208, rel=1e-10)


# ---------------------------------------------------------------------------
# Euler contributions
# ---------------------------------------------------------------------------

def test_single_department_contribution_is_evar():
    for factor in (BrownianWithDrift(0.2, 1.0), GammaSubordinator(2.0, 3.0, 0.1)):
        p = FactorPortfolio([[1.0]], [factor], [0.0], 1.0, 0.05)
        t = 0.7
        K = euler_contributions(p, t)
        value = evar(EvarQuery(p.combination(None), t, p.beta)).value
        assert K[0] == pytest.approx(value, rel=1e-10)
        # An infinite horizon is rejected as EvarQuery rejects it; it used to
        # reach the solver and raise NoStationaryPointError.
        with pytest.raises(ValueError, match="t must be a positive finite real"):
            euler_contributions(p, math.inf)


def test_brownian_contributions_closed_form():
    p, sigmas = brownian_portfolio()
    for t in (0.3, 1.0, 1.9):
        K = euler_contributions(p, t)
        expected = brownian_contributions(p.A, sigmas, t, p.beta)
        np.testing.assert_allclose(K, expected, rtol=1e-10)


def test_contributions_sum_to_aggregate_evar():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_portfolio(rng)
        t = rng.uniform(0.1, p.T)
        K = euler_contributions(p, t)
        value = evar(EvarQuery(p.combination(None), t, p.beta)).value
        assert K.sum() == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_identical_departments_share_equally():
    factor = GammaSubordinator(1.5, 2.0, 0.1)
    p = FactorPortfolio(np.ones((3, 1)), [factor], [0.0] * 3, 1.0, 0.05)
    K = euler_contributions(p, 0.9)
    assert np.ptp(K) < 1e-12
    value = evar(EvarQuery(p.combination(None), 0.9, p.beta)).value
    assert K.sum() == pytest.approx(value, rel=1e-10)


# ---------------------------------------------------------------------------
# allocation over [0, T]
# ---------------------------------------------------------------------------

def test_allocate_brownian_matches_closed_form():
    p, sigmas = brownian_portfolio()
    report = allocate(p)
    expected = brownian_allocation(p.A, sigmas, p.premiums, p.T, p.beta)
    np.testing.assert_allclose(report.L, expected, rtol=1e-8)
    assert abs(report.full_allocation_gap) <= 1e-9 * (1 + abs(report.total_cevar))


def test_allocate_stable_matches_closed_form():
    alpha = 0.5
    A = np.array([[1.0, 0.3], [0.4, 1.2]])
    p = FactorPortfolio(A, [AlphaStableSubordinator(alpha)] * 2,
                        [0.2, 0.1], 1.5, 0.05)
    report = allocate(p)
    expected = stable_allocation(A, alpha, p.premiums, p.T, p.beta)
    np.testing.assert_allclose(report.L, expected, rtol=1e-8)
    K = euler_contributions(p, 0.6)
    np.testing.assert_allclose(K, stable_contributions(A, alpha, 0.6, p.beta),
                               rtol=1e-9)


def test_allocate_full_allocation_random_mixed():
    rng = np.random.default_rng(32)
    for _ in range(5):
        p = random_portfolio(rng)
        report = allocate(p)
        assert abs(report.full_allocation_gap) <= 1e-8 * (1 + abs(report.total_cevar))


TABLE_WEIGHT = WeightFunction.table([(0.0, 0.4), (0.7, 1.2), (2.0, 0.6)]).normalized(2.0)


@pytest.mark.parametrize("p, limit_nodes", [
    pytest.param(FactorPortfolio(
        np.array([[1.0, 0.5], [0.3, 1.5]]),
        [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)],
        [0.1, 0.2], 2.0, 0.05,
    ), False, id="brownian+gamma-uniform"),
    # A gamma shape of 0.01 puts the small-t roots above 1e300 (s -> inf limit).
    pytest.param(FactorPortfolio(
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        [CompoundPoissonExp(2.0, 1.0, 0.1), GammaSubordinator(0.01, 1.0, 0.05)],
        [0.1, 0.2], 2.0, 0.05, weight=TABLE_WEIGHT,
    ), True, id="cpois+gamma-table"),
    # Below the onset -ln(beta)/sum(lambda) ~ 1.2 < T the integral takes the
    # s -> inf limit as one time moment.
    pytest.param(FactorPortfolio(
        np.array([[1.0, 0.5], [0.2, 1.0]]),
        [CompoundPoissonExp(2.0, 1.0, 0.1), CompoundPoissonExp(0.5, 2.0, 0.05)],
        [0.1, 0.05], 2.0, 0.05, weight=TABLE_WEIGHT,
    ), True, id="cpois-only-table"),
])
def test_allocate_total_is_the_standalone_cevar(p, limit_nodes):
    # allocate integrates the aggregate EVaR on the Euler sweep's nodes; it
    # must still be the CEVaR that cevar computes on its own.
    report = allocate(p)
    folded = report.total_cevar - float(p.premiums.sum()) * p.weight.time_moment(p.T)
    standalone = cevar(CevarQuery(p.combination(None), p.T, p.beta, weight=p.weight))
    assert abs(folded - standalone) <= 1e-9 * (1 + abs(report.total_cevar))
    assert any(s is None for t, s in report.s_star_curve if t > 0) == limit_nodes


def test_allocate_report_structure():
    p, _ = brownian_portfolio()
    report = allocate(p)
    assert report.grid.shape == (65,)
    assert report.K_curve.shape == (65, 3)
    assert report.s_star_curve[0] == (0.0, None)
    assert report.L.shape == (3,)


@pytest.mark.parametrize("p", [
    FactorPortfolio(
        np.array([[1.0, 0.5, 0.2, 0.1], [0.3, 1.5, 0.0, 0.4]]),
        [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1),
         AlphaStableSubordinator(0.6, 0.1), CompoundPoissonExp(1.5, 2.0, -0.2)],
        [0.0, 0.0], 2.0, 0.05,
    ),
    # Below the onset ~1.2 the rows are the s -> inf drift limit.
    FactorPortfolio(
        np.array([[1.0, 0.5], [0.2, 1.0]]),
        [CompoundPoissonExp(2.0, 1.0, 0.1), CompoundPoissonExp(0.5, 2.0, 0.05)],
        [0.1, 0.05], 2.0, 0.05,
    ),
], ids=["four-kinds", "cpois-only"])
def test_curve_rows_are_euler_contributions(p, monkeypatch):
    # The curve applies A to the factor terms of all its horizons in one
    # product.  Each row must be euler_contributions at the same point; that
    # point is the curve's warm-started s*, because a cold solve may stop at a
    # different iterate within the solver's tolerance.
    report = allocate(p)
    grid, K_curve, s_star_curve = report.grid, report.K_curve, report.s_star_curve
    assert not K_curve[0].any()
    points = {t: math.inf if s is None else s for t, s in s_star_curve}
    monkeypatch.setattr(sys.modules["levyrisk.allocation"], "solve_stationary",
                        lambda comb, t, beta: (points[t], 0, None))
    for t, row in zip(grid[1:].tolist(), K_curve[1:]):
        expected = euler_contributions(p, t)
        assert np.max(np.abs(row - expected)) <= 1e-15 * np.max(np.abs(row)), t


@pytest.mark.parametrize("t", [1e-307, 1e-308, 3e-309, 1e-309, 1e-320])
def test_brownian_position_at_tiny_t_is_exact_or_a_domain_error(t):
    # sigma^2 s^2 / 2 overflows above s ~ 1.9e154, and below t ~ 3e-308 the root
    # lies beyond that: the solve must raise rather than stop at the overflow edge.
    p = FactorPortfolio([[1.0]], [BrownianWithDrift(0.0, 1.0)], [0.0], t, 0.05)

    def exact_or_domain_error(compute, expected):
        try:
            value = compute()
        except DomainError:
            return
        np.testing.assert_allclose(value, expected(), rtol=1e-12, atol=0.0)

    exact_or_domain_error(lambda: evar(EvarQuery(p.combination(), t, 0.05)).value,
                          lambda: evar_closed_form_brownian(0.0, 1.0, t, 0.05))
    exact_or_domain_error(lambda: euler_contributions(p, t),
                          lambda: brownian_contributions(p.A, [1.0], t, 0.05))
    exact_or_domain_error(lambda: allocate(p).K_curve,
                          lambda: [brownian_contributions(p.A, [1.0], u, 0.05)
                                   for u in np.linspace(0.0, t, 65).tolist()])


def test_allocate_table_weight():
    A = np.array([[1.0], [2.0]])
    factor = BrownianWithDrift(0.0, 1.0)
    w = WeightFunction.table([(0.0, 0.5), (2.0, 1.5)]).normalized(2.0)
    p = FactorPortfolio(A, [factor], [0.3, 0.0], 2.0, 0.05, weight=w)
    report = allocate(p)
    # K_t is proportional to sqrt(t); integrate sqrt(t)*(0.25 + t/4) exactly.
    D = 3.0
    c = math.sqrt(-2.0 * math.log(0.05))
    T = 2.0
    integral = 0.25 * (2.0 / 3.0) * T ** 1.5 + 0.25 * (2.0 / 5.0) * T ** 2.5
    expected_K = c / D * (A[:, 0] * D) * integral  # sigma^2 D a_i / sqrt(sum...) = a_i
    expected = expected_K + p.premiums * w.time_moment(T)
    np.testing.assert_allclose(report.L, expected.ravel(), rtol=1e-8)


# ---------------------------------------------------------------------------
# derivative and diversification checks
# ---------------------------------------------------------------------------

def test_directional_derivative_matches_finite_difference():
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = random_portfolio(rng)
        t = rng.uniform(0.2, p.T)
        i = int(rng.integers(0, p.n))
        analytic, fd = directional_derivative_check(p, i, t)
        assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-6)


def test_directional_derivative_richardson_slope():
    # Halving epsilon should roughly halve the one-sided difference error.
    # Department 0's exposure row (1, 0.5) is parallel to the column sums
    # (3, 1.5), so EVaR is linear along e_0 and its difference error is pure
    # round-off; department 1's row (0, 1) has a truncation error to halve.
    p, _ = brownian_portfolio()
    t = 1.1
    analytic, fd1 = directional_derivative_check(p, 1, t, epsilon=1e-4)
    _, fd2 = directional_derivative_check(p, 1, t, epsilon=5e-5)
    e1, e2 = abs(fd1 - analytic), abs(fd2 - analytic)
    assert e2 <= 0.6 * e1 + 1e-12


def test_directional_derivative_validation():
    p, _ = brownian_portfolio()
    with pytest.raises(ValueError, match="index"):
        directional_derivative_check(p, 5, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        directional_derivative_check(p, 0, 1.0, epsilon=0.0)


def test_diversification_equality_at_ones():
    rng = np.random.default_rng(34)
    for _ in range(10):
        p = random_portfolio(rng)
        t = rng.uniform(0.2, p.T)
        lhs, rhs, ok = diversification_check(p, np.ones(p.n), t)
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_diversification_no_undercut():
    rng = np.random.default_rng(35)
    for _ in range(10):
        p = random_portfolio(rng)
        t = rng.uniform(0.2, p.T)
        for i in range(p.n):
            h = np.zeros(p.n)
            h[i] = 1.0
            _, _, ok = diversification_check(p, h, t)
            assert ok


def test_diversification_random_directions():
    rng = np.random.default_rng(36)
    for _ in range(10):
        p = random_portfolio(rng)
        t = rng.uniform(0.2, p.T)
        h = rng.uniform(0.0, 2.0, p.n)
        _, _, ok = diversification_check(p, h, t)
        assert ok
