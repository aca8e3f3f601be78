import math
import sys

import mpmath as mp
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
    LevyFactor,
    WeightFunction,
    allocate,
    cevar,
    evar,
    evar_closed_form_brownian,
    stable_allocation,
)
from levyrisk.errors import DomainError, LevyRiskError, NoStationaryPointError, QuadratureBudgetError
from levyrisk.cevar import horizon_integral
from levyrisk.evar import CURVE_ROUNDS, solve_stationary
import oracles
from oracles import allocation_oracle, composite_simpson


def brownian_cevar_closed_form(mu, sigma, T, beta):
    return -mu * T / 2.0 + (2.0 / 3.0) * sigma * math.sqrt(-2.0 * T * math.log(beta))


def combo(*factors_weights):
    factors, weights = zip(*factors_weights)
    return FactorCombination(list(factors), list(weights))


# ---------------------------------------------------------------------------
# weight function
# ---------------------------------------------------------------------------

def test_uniform_weight_basics():
    w = WeightFunction.uniform(2.0)
    assert w.knots == ((0.0, 0.5), (2.0, 0.5))
    assert w.density(0.3) == 0.5
    assert w.mass() == 1.0
    assert w.time_moment() == 1.0
    assert w.breakpoints() == [0.0, 2.0]


def test_table_weight_interpolation_and_mass():
    w = WeightFunction.table([(0.0, 0.5), (1.0, 1.5)])
    assert w.density(0.0) == 0.5
    assert w.density(1.0) == 1.5
    assert w.density(0.5) == pytest.approx(1.0)
    assert w.mass() == pytest.approx(1.0)
    # integral of t*(0.5 + t) over [0,1] = 0.25 + 1/3
    assert w.time_moment() == pytest.approx(0.25 + 1.0 / 3.0, rel=1e-14)


def test_table_time_moment_matches_fine_trapezoid():
    w = WeightFunction.table([(0.0, 0.2), (0.5, 1.9), (1.3, 0.7), (2.0, 1.1)])
    w = w.normalized(2.0)
    ts = np.linspace(0.0, 2.0, 200_001)
    dens = np.array([w.density(t) for t in ts])
    assert w.time_moment() == pytest.approx(np.trapezoid(ts * dens, ts), abs=1e-8)
    assert w.mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("weight", [
    WeightFunction.uniform(2.0),
    WeightFunction.table([(0.0, 0.2), (0.5, 1.9), (1.3, 0.7), (2.0, 1.1)]).normalized(2.0),
], ids=["uniform", "table"])
@pytest.mark.parametrize("upper", [0.0, 0.3, 0.5, 1.7, 2.0, 5.0])
def test_truncated_time_moment_matches_fine_trapezoid(weight, upper):
    # integral of t * omega(t) over [0, min(upper, T)]; a kink of the table
    # inside a cell costs the trapezoid O(h^2), far below the tolerance.
    ts = np.linspace(0.0, min(upper, 2.0), 200_001)
    moment = np.trapezoid(ts * weight.density(ts), ts)
    assert weight.time_moment(upper) == pytest.approx(moment, abs=1e-8)
    assert weight.time_moment(2.0) == weight.time_moment()


def test_table_weight_validation():
    with pytest.raises(ValueError, match="two knots"):
        WeightFunction.table([(0.0, 1.0)])
    with pytest.raises(ValueError, match="increasing"):
        WeightFunction.table([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightFunction.table([(0.0, 1.0), (1.0, -0.5)])
    with pytest.raises(TypeError):
        WeightFunction()  # no default: the uniform weight is WeightFunction.uniform(T)
    with pytest.raises(ValueError, match="two knots"):
        WeightFunction(())
    for knots, mass in [([(0.0, 0.0), (1.0, 0.0)], "0.0"), ([(0.0, 1e308), (2.0, 1e308)], "inf")]:
        # A mass that overflows used to normalise to an all-zero table.
        with pytest.raises(ValueError, match=f"mass {mass}, not a positive finite"):
            WeightFunction.table(knots).normalized(2.0)


@pytest.mark.parametrize("knots", [
    [(0.0, math.nan), (1.0, 2.0)],
    [(0.0, 1.0), (math.nan, 1.0), (1.0, 1.0)],
    [(0.0, 1.0), (math.inf, 1.0)],
    [(0.0, math.inf), (1.0, 1.0)],
])
def test_table_weight_knots_must_be_finite(knots):
    # On a Brownian position the first two gave cevar NaN and a silent 1.63.
    with pytest.raises(ValueError, match="knot times and values must be finite"):
        WeightFunction.table(knots)


def test_check_span_fails_a_nan(monkeypatch):
    w = WeightFunction.table([(0.0, 1.0), (1.0, 1.0)])
    w.check_span(1.0)
    with pytest.raises(ValueError, match="horizon"):
        w.check_span(math.nan)
    monkeypatch.setattr(WeightFunction, "mass", lambda self: math.nan)
    with pytest.raises(ValueError, match="normalised"):
        w.check_span(1.0)


def test_check_span_rejects_bad_tables():
    w = WeightFunction.table([(0.0, 1.0), (0.5, 1.0)])
    with pytest.raises(ValueError, match="horizon"):
        w.check_span(1.0)
    unnormalised = WeightFunction.table([(0.0, 2.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match="normalised"):
        unnormalised.check_span(1.0)
    unnormalised.normalized(1.0).check_span(1.0)  # fine after normalisation


# ---------------------------------------------------------------------------
# cevar values
# ---------------------------------------------------------------------------

def test_brownian_cevar_closed_form():
    mu, sigma, T, beta = 0.4, 1.3, 2.0, 0.05
    q = CevarQuery(combo((BrownianWithDrift(mu, sigma), 1.0)), T, beta)
    assert cevar(q) == pytest.approx(
        brownian_cevar_closed_form(mu, sigma, T, beta), rel=1e-9
    )


def test_brownian_cevar_randomized():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.2, 4)
        T = rng.uniform(0.1, 8)
        beta = rng.uniform(0.005, 0.9)
        q = CevarQuery(combo((BrownianWithDrift(mu, sigma), 1.0)), T, beta)
        assert cevar(q) == pytest.approx(
            brownian_cevar_closed_form(mu, sigma, T, beta), rel=1e-8
        )


@pytest.mark.parametrize("T", [1e-150, 1e-160, 1e-200, 1e-250, 1e-285])
def test_brownian_cevar_at_tiny_horizons(T):
    # tau * tau underflows below tau ~ 1e-154, so the integrand must not form it.
    portfolio = FactorPortfolio([[1.0]], [BrownianWithDrift(0.0, 1.0)], [0.0], T, 0.05)
    exact = brownian_cevar_closed_form(0.0, 1.0, T, 0.05)
    value = cevar(CevarQuery(portfolio.combination(None), T, 0.05))
    L = allocate(portfolio).L[0]
    assert abs(value / exact - 1.0) <= 1e-12
    assert abs(L / exact - 1.0) <= 1e-12


@pytest.mark.parametrize("T", [1e-291, 1e-300, 1e308])
def test_brownian_horizon_beyond_float_range_raises(T):
    # Short: s*(1e-18 * T) lies near 1e154, where sigma^2 s^2 overflows.  Long:
    # the node value tau * F'(x) = 2 tau overflows, which gave cevar inf.
    portfolio = FactorPortfolio([[1.0]], [BrownianWithDrift(0.0, 1.0)], [0.0], T, 0.05)
    with pytest.raises(LevyRiskError, match="not finite"):
        cevar(CevarQuery(portfolio.combination(None), T, 0.05))
    with pytest.raises(LevyRiskError, match="not finite"):
        allocate(portfolio)


@pytest.mark.parametrize("T", [1e-170, 1e-200])
def test_gamma_cevar_at_tiny_horizons_is_the_drift_limit(T):
    # With a = 1.2 ln(20) / (T ln 1e300) the root at t <= T lies beyond 1e300,
    # so EVaR is -t * mu to within a*t*ln(1 + s/b)/s and, under the uniform
    # weight, CEVaR is -T/2.  The uniform weight's truncated time moment was
    # upper^2 / (2T), which underflows here: -1.5177e-201 at T = 1e-200.
    a = 1.2 * -math.log(0.05) / (T * math.log(1e300))
    portfolio = FactorPortfolio([[1.0]], [GammaSubordinator(a, 1.0, 1.0)], [0.0], T, 0.05)
    value = cevar(CevarQuery(portfolio.combination(None), T, 0.05))
    L = allocate(portfolio).L[0]
    assert abs(value / (-T / 2.0) - 1.0) <= 1e-12
    assert abs(L / (-T / 2.0) - 1.0) <= 1e-12
    assert WeightFunction.uniform(1e-200).time_moment(5e-201) == pytest.approx(1.25e-201,
                                                                                rel=1e-15)


@pytest.mark.parametrize("weight", [None, WeightFunction.table([(0.0, 1.0), (1e-310, 1.0)])],
                         ids=["uniform", "table"])
def test_horizon_whose_inverse_overflows_is_a_domain_error(weight):
    # Below T ~ 5.6e-309, 1/T overflows and no weight has unit mass on [0, T];
    # such horizons used to give subnormal values that had lost their precision.
    gamma = GammaSubordinator(2.0, 3.0, 0.1)
    with pytest.raises(DomainError, match="not finite"):
        FactorPortfolio([[1.0]], [gamma], [0.0], 1e-310, 0.05, weight=weight)
    with pytest.raises(DomainError, match="not finite"):
        CevarQuery(combo((gamma, 1.0)), 1e-310, 0.05, weight=weight)
    evar(EvarQuery(combo((gamma, 1.0)), 1e-310, 0.05))  # EVaR takes no weight
    FactorPortfolio([[1.0]], [gamma], [0.0], 6e-309, 0.05)  # 1/T ~ 1.7e308 is finite


HUGE_DRIFT_CPOIS = CompoundPoissonExp(1e-300, 1.0, -1e300)  # below its onset at T = 1e299
# Eight factors whose shares, ~2.5e307 each at T = 0.5, are finite but sum beyond float range.
HUGE_DRIFTS = [BrownianWithDrift(-1e308, 1.0)] * 8


@pytest.mark.parametrize("compute", [
    lambda: cevar(CevarQuery(combo((BrownianWithDrift(-10.0, 1.0), 1.0)), 1e308, 1.0)),
    lambda: cevar(CevarQuery(combo((HUGE_DRIFT_CPOIS, 1.0)), 1e299, 0.05)),
    lambda: allocate(FactorPortfolio([[1.0]], [HUGE_DRIFT_CPOIS], [0.0], 1e299, 0.05)),
    # EPS * T underflows to 0: the range ends at 1e300, where sigma^2 s^2 overflows.
    lambda: allocate(FactorPortfolio([[1.0]], [BrownianWithDrift(0.0, 1.0)], [0.0], 1e-307, 0.05)),
    lambda: cevar(CevarQuery(FactorCombination(HUGE_DRIFTS, [1.0] * 8), 0.5, 0.05)),
    lambda: allocate(FactorPortfolio([[1.0] * 8], HUGE_DRIFTS, [0.0], 0.5, 0.05)),
], ids=["beta=1-mean", "cpois-drift-limit", "allocate-drift-limit", "brownian-T=1e-307",
        "cevar-share-sum", "allocate-share-sum"])
def test_limit_branches_beyond_float_range_raise_domain_error(compute):
    # The linear parts of CEVaR (the beta = 1 mean, the s -> inf drift limit)
    # overflow, or EPS * T underflows, or the sum of finite factor shares
    # overflows; these used to return inf, or to warn before the DomainError.
    with pytest.raises(DomainError):
        compute()


def test_cevar_matches_independent_smooth_substitution_oracle():
    # Substituting t = u^2 removes the sqrt singularity at t = 0, so a plain
    # composite Simpson rule on u converges fast; this shares no code with the
    # adaptive graded-mesh path.
    comb = combo((BrownianWithDrift(0.3, 1.1), 1.0), (GammaSubordinator(2.0, 3.0, 0.1), 0.7))
    T, beta = 2.0, 0.05

    def integrand_u(u):
        t = u * u
        if t == 0.0:
            return 0.0
        return evar(EvarQuery(comb, t, beta)).value * 2.0 * u / T

    oracle = composite_simpson(integrand_u, 0.0, math.sqrt(T), 4000)
    value = cevar(CevarQuery(comb, T, beta))
    assert value == pytest.approx(oracle, rel=1e-7)


def test_gamma_cevar_matches_fixed_grid_simpson():
    comb = combo((GammaSubordinator(2.0, 1.0, 0.3), 1.0))
    T, beta = 1.5, 0.05

    def integrand(t):
        if t == 0.0:
            return 0.0
        return evar(EvarQuery(comb, t, beta)).value / T

    oracle = composite_simpson(integrand, 0.0, T, 10_000)
    assert cevar(CevarQuery(comb, T, beta)) == pytest.approx(oracle, abs=1e-6)


def test_table_weight_scaling_invariance():
    comb = combo((BrownianWithDrift(0.1, 1.0), 1.0))
    knots = [(0.0, 0.4), (0.7, 1.6), (2.0, 0.6)]
    w = WeightFunction.table(knots).normalized(2.0)
    w_scaled = WeightFunction.table([(t, 5.0 * v) for t, v in knots]).normalized(2.0)
    a = cevar(CevarQuery(comb, 2.0, 0.1, weight=w))
    b = cevar(CevarQuery(comb, 2.0, 0.1, weight=w_scaled))
    assert a == pytest.approx(b, rel=1e-12)


def test_table_weight_against_pointwise_oracle():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    T, beta = 1.0, 0.05
    w = WeightFunction.table([(0.0, 0.5), (1.0, 1.5)])
    # EVaR(t) = sigma*sqrt(-2 t ln beta); integral against (0.5 + t) dt has a
    # closed form: c*(0.5*(2/3) + (2/5)) * T-powers with c = sqrt(-2 ln beta).
    c = math.sqrt(-2.0 * math.log(beta))
    exact = c * (0.5 * (2.0 / 3.0) + 2.0 / 5.0)
    assert cevar(CevarQuery(comb, T, beta, weight=w)) == pytest.approx(exact, rel=1e-8)


def test_gamma_cevar_homogeneous_as_beta_tends_to_one():
    # The solver's stop scales with the budget -ln(beta) = 1e-12.
    comb = combo((GammaSubordinator(0.7, 2.0, 0.1), 1.0))
    beta = 1.0 - 1e-12
    base = cevar(CevarQuery(comb, 1.0, beta))
    doubled = cevar(CevarQuery(comb.scaled(2.0), 1.0, beta))
    assert abs(doubled - 2.0 * base) <= 1e-10 * abs(2.0 * base)


def test_cevar_beta_one_is_weighted_mean():
    comb = combo((GammaSubordinator(2.0, 4.0, 0.1), 1.0))
    # EVaR at beta=1 is -t * mean rate; uniform weight integrates to -T/2 * mean.
    T = 3.0
    mean = 0.1 + 0.5
    assert cevar(CevarQuery(comb, T, 1.0)) == pytest.approx(-T / 2.0 * mean, rel=1e-9)


def test_cevar_budget_error_carries_partial(monkeypatch):
    # Under t = u^2 a stable integrand goes as u^(2/alpha), not a polynomial
    # in u, so the panel errors stay far above a relative 1e-30 and the
    # quadrature halves until the default budget of 200k nodes runs out,
    # whatever the round-off.
    monkeypatch.setattr(sys.modules["levyrisk._quad"], "DEFAULT_REL_TOL", 1e-30)
    comb = combo((AlphaStableSubordinator(0.7), 1.0))
    q = CevarQuery(comb, 1.0, 0.05)
    with pytest.raises(QuadratureBudgetError) as exc_info:
        cevar(q)
    partial = exc_info.value.partial
    assert partial is not None
    # One department with no premium: its allocation is the CEVaR.
    expected = stable_allocation([[1.0]], 0.7, [0.0], 1.0, 0.05)[0]
    assert partial == pytest.approx(expected, rel=1e-6)


def count_integral_solves(monkeypatch):
    """The horizons at which the horizon integral solves for s*, in order.

    Only ``levyrisk.cevar``'s name is patched, so the K-curve's hand-offs to
    ``solve_stationary`` are not counted."""
    horizons = []
    cevar_module = sys.modules["levyrisk.cevar"]
    solve = cevar_module.solve_stationary

    def counted_solve(comb, t, *args, **kwargs):
        horizons.append(t)
        return solve(comb, t, *args, **kwargs)

    monkeypatch.setattr(cevar_module, "solve_stationary", counted_solve)
    return horizons


TABLE_KNOTS = [(0.0, 0.4), (0.5, 1.2), (1.1, 0.9), (2.0, 0.6)]  # two interior knots


@pytest.mark.parametrize("factors", [
    [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)],
    [AlphaStableSubordinator(0.6, 0.1), CompoundPoissonExp(1.5, 2.0, -0.2)],
    [GammaSubordinator(0.87, 2.0, 0.05), CompoundPoissonExp(2.0, 1.0, 0.1)],
    [CompoundPoissonExp(2.0, 1.0, 0.1), CompoundPoissonExp(0.5, 2.0, 0.05)],
], ids=["brownian+gamma", "stable+cpois", "gamma+cpois", "cpois-only"])
@pytest.mark.parametrize("knots", [None, TABLE_KNOTS], ids=["uniform", "table"])
def test_integral_solves_only_at_segment_ends(factors, knots, monkeypatch):
    # The nodes of the x = ln(s) integral need no solve: only s*(T), the end
    # of the range and each interior weight knot do.
    horizons = count_integral_solves(monkeypatch)
    weight = WeightFunction.table(knots).normalized(2.0) if knots else WeightFunction.uniform(2.0)
    interior_knots = len(knots) - 2 if knots else 0
    portfolio = FactorPortfolio([[1.0, 0.5], [0.3, 1.5]], factors, [0.1, 0.2], 2.0, 0.05,
                                weight=weight)
    cevar(CevarQuery(portfolio.combination(), 2.0, 0.05, weight=weight))
    assert 0 < len(horizons) <= 2 + interior_knots
    horizons.clear()
    allocate(portfolio)
    assert 0 < len(horizons) <= 2 + interior_knots


def test_integrals_are_deterministic():
    factors = [AlphaStableSubordinator(0.6, 0.1), CompoundPoissonExp(1.5, 2.0, -0.2)]
    weight = WeightFunction.table(TABLE_KNOTS).normalized(2.0)
    portfolio = FactorPortfolio([[1.0, 0.5], [0.3, 1.5]], factors, [0.1, 0.2], 2.0, 0.05,
                                weight=weight)
    query = CevarQuery(portfolio.combination(), 2.0, 0.05, weight=weight)
    first, second = allocate(portfolio), allocate(portfolio)
    assert cevar(query) == cevar(query)
    assert np.array_equal(first.L, second.L) and first.total_cevar == second.total_cevar


def test_default_tolerance_integrates_each_quantity_once(monkeypatch):
    calls = []  # (result shape, tol) per quadrature call
    quad = sys.modules["levyrisk._quad"].adaptive_simpson

    def counted_quad(f, a, b, tol, *args, **kwargs):
        result = quad(f, a, b, tol, *args, **kwargs)
        calls.append((np.shape(result), tol))
        return result

    # cevar and allocate both integrate through levyrisk.cevar's quadrature.
    monkeypatch.setattr(sys.modules["levyrisk.cevar"], "adaptive_simpson", counted_quad)
    comb = combo((BrownianWithDrift(0.3, 1.1), 1.0), (GammaSubordinator(2.0, 3.0, 0.1), 0.7))
    cevar(CevarQuery(comb, 2.0, 0.05))
    # One pass integrates the two factor shares, whose sum is the CEVaR.
    assert calls == [((2,), None)]

    calls.clear()
    portfolio = FactorPortfolio(
        np.array([[1.0, 0.5], [0.3, 1.5]]),
        [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)],
        [0.1, 0.2], 2.0, 0.05,
    )
    allocate(portfolio)
    # The same two shares give both departments' allocations and the total.
    assert calls == [((2,), None)]


def test_compound_poisson_cevar_matches_u_simpson_oracle():
    # Below t0 = -ln(beta)/lambda the infimum sits at s -> inf and EVaR is
    # linear in t; past t0 it leaves that limit, so the integrand has a kink.
    comb = combo((CompoundPoissonExp(lam=2.0, eta=1.0), 1.0))
    T, beta = 2.0, 0.05

    def integrand_u(u):
        t = u * u
        if t == 0.0:
            return 0.0
        return evar(EvarQuery(comb, t, beta)).value * 2.0 * u / T

    oracle = composite_simpson(integrand_u, 0.0, math.sqrt(T), 20_000)
    assert cevar(CevarQuery(comb, T, beta)) == pytest.approx(oracle, rel=1e-7)


# Portfolios for the mpmath oracle, T = 2 and beta = 0.05, no premiums: one per
# shape family, and a compound-Poisson table weight whose onset t0 = ln(20)/3
# and middle knot both break the range.
ORACLE_PORTFOLIOS = {
    "brownian+gamma": ([[1.0, 0.5], [0.3, 1.5]],
                       [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)], None),
    "stable+compound_poisson": ([[0.5, 0.2], [0.3, 0.4]],
                                [AlphaStableSubordinator(0.6, 0.1),
                                 CompoundPoissonExp(1.5, 2.0, -0.2)], None),
    "gamma+compound_poisson": ([[0.6, 0.3], [0.3, 0.2]],
                               [GammaSubordinator(1.5, 2.0, 0.05),
                                CompoundPoissonExp(2.0, 1.0, 0.1)], None),
    "compound_poisson-table": ([[1.0], [0.5]], [CompoundPoissonExp(2.0, 1.0)],
                               [(0.0, 0.5), (0.7, 1.5), (2.0, 1.0)]),
}


@pytest.mark.parametrize("case", ORACLE_PORTFOLIOS)
def test_cevar_and_allocation_total_match_the_mpmath_oracle(case):
    # The default tolerance promises 1e-10 relative to the max-norm: of the
    # CEVaR for cevar and allocate's total, and of L over the departments.
    A, factors, knots = ORACLE_PORTFOLIOS[case]
    weight = WeightFunction.table(knots).normalized(2.0) if knots else WeightFunction.uniform(2.0)
    portfolio = FactorPortfolio(A, factors, [0.0] * len(A), 2.0, 0.05, weight=weight)
    L, truth = allocation_oracle(portfolio)
    report = allocate(portfolio)
    assert abs(cevar(CevarQuery(portfolio.combination(), 2.0, 0.05, weight=weight)) - truth) \
        <= 1e-10 * abs(truth)
    assert abs(report.total_cevar - truth) <= 1e-10 * abs(truth)
    assert np.max(np.abs(report.L - L)) <= 1e-10 * np.max(np.abs(L))


def test_allocation_from_cancelling_factor_shares_meets_the_contract():
    # A drift of 5 against a gamma drift of -4: the factor shares C ~ [-6.54,
    # 7.28] cancel to L ~ [0.371, 0.371].  The quadrature's tolerance is taken
    # over the shares, and since a_ij / D_j <= 1 it bounds each L^i's error
    # by m times that; the contract, 1e-10 of max|L|, still holds (the error
    # is 3.6e-15 of max|L|).
    portfolio = FactorPortfolio([[1.0, 1.0], [1.0, 1.0]],
                                [BrownianWithDrift(5.0, 0.8), GammaSubordinator(2.0, 3.0, -4.0)],
                                [0.0, 0.0], 2.0, 0.05)
    shares = horizon_integral(portfolio.combination(), 0.05, portfolio.weight, 2.0)[0]
    report = allocate(portfolio)
    L, truth = allocation_oracle(portfolio)
    assert np.abs(shares).max() >= 10.0 * np.abs(report.L).max()
    assert np.max(np.abs(report.L - L)) <= 1e-10 * np.max(np.abs(L))
    assert abs(report.total_cevar - truth) <= 1e-10 * np.max(np.abs(L))


def test_oracle_halves_a_piece_until_mp_quad_vouches_for_it():
    # A Lorentzian of width 1e-3 at t = 0.3: one mp.quad over [0, 1] is off by
    # about 60%; the halved pieces give the closed form to 1e-15.
    with mp.workdps(15):
        w, c = mp.mpf("1e-3"), mp.mpf("0.3")
        exact = (mp.atan((1 - c) / w) + mp.atan(c / w)) / w
        value = oracles._horizon_quad([0.0, 1.0], lambda t: 1 / (w * w + (t - c) ** 2), 15)
        assert abs(value / exact - 1) <= 1e-15


def test_oracle_raises_where_mp_quad_cannot_vouch(monkeypatch):
    # The singularity at t = 1/3 is never a halving point, so the pieces
    # around it never meet the tolerance.
    monkeypatch.setattr(oracles, "_MAX_HALVINGS", 10)
    with mp.workdps(15), pytest.raises(ArithmeticError, match="cannot reach"):
        oracles._horizon_quad([0.0, 1.0], lambda t: 1 / mp.sqrt(abs(t - mp.mpf(1) / 3)), 15)


def test_oracle_agrees_with_allocate_or_raises_where_evar_falls_steeply():
    # EVaR falls from 158 at T/10 to -4.1e8 at T/2, across the compound-Poisson
    # onset -ln(beta)/lambda = 5.04e-3.  One unchecked mp.quad over [0, T] is
    # off in L by 1e-6 here.
    portfolio = FactorPortfolio(
        [[0.6055482501083728, 1.3083884484609494, 62860.1949261461],
         [0.01201703290487736, 0.016538597262378496, 0.03870380658967848]],
        [GammaSubordinator(0.7291847466911933, 5.4133853557492815, -201286.6579838816),
         BrownianWithDrift(0.0, 0.000284292558904834),
         CompoundPoissonExp(147.90739629959901, 1.6939351585412742e-06, 0.0)],
        [0.0, 0.0], 0.012705520340077726, 0.474183317898083)
    try:
        L, truth = allocation_oracle(portfolio, dps=12)
    except ArithmeticError:
        return
    report = allocate(portfolio)
    assert abs(report.total_cevar - truth) <= 1e-10 * abs(truth)
    assert np.max(np.abs(report.L - L)) <= 1e-10 * np.max(np.abs(L))


def curve_solved_to_ulps(portfolio, grid, monkeypatch):
    """K at each grid horizon t > 0 from a scalar solve run until its step is
    a few ulps (``RESIDUAL_EPS = 0.0`` for these solves only)."""
    comb = portfolio.combination()
    terms = []
    for t in grid[1:].tolist():  # K = 0 at t = 0
        with monkeypatch.context() as patch:
            patch.setattr(sys.modules["levyrisk.evar"], "RESIDUAL_EPS", 0.0)
            s = solve_stationary(comb, t, portfolio.beta)[0]
        terms.append([-t * (f.slope_at_infinity() if s == math.inf else f.dphi(s * d))
                      for f, d in comb.active])
    return np.array(terms) @ portfolio.A.T


@pytest.mark.parametrize("case", ORACLE_PORTFOLIOS)
def test_curve_matches_points_solved_to_ulps(case, monkeypatch):
    # K is first order in the error of s*, so the curve's Newton-corrected
    # points must give the K of points solved until the step is a few ulps.
    A, factors, knots = ORACLE_PORTFOLIOS[case]
    weight = WeightFunction.table(knots).normalized(2.0) if knots else WeightFunction.uniform(2.0)
    portfolio = FactorPortfolio(A, factors, [0.0] * len(A), 2.0, 0.05, weight=weight)
    report = allocate(portfolio)
    K = curve_solved_to_ulps(portfolio, report.grid, monkeypatch)
    assert np.max(np.abs(report.K_curve[1:] - K)) <= 1e-13 * np.max(np.abs(K))


# Positions whose curve points leave the first lockstep round: the steep bend
# of a gamma + compound-Poisson position just above -ln(beta) / sum(lambda) =
# ln(20)/2; gamma roots above 1e300 for t below ~2e-3 (the s -> inf limit,
# through the integral's tau(1e300) or a hand-off to solve_stationary); a
# compound-Poisson-only position below its onset ~1.2, where every row is the
# drift limit; a table weight, whose knots break the integral into segments.
FALLBACK_PORTFOLIOS = {
    "gamma+cpois-onset": ([[0.6, 0.3], [0.3, 0.2]],
                          [GammaSubordinator(0.05, 2.0, 0.05), CompoundPoissonExp(2.0, 1.0, 0.1)],
                          3.0, None),
    "gamma-b=1e-3": ([[1e6]], [GammaSubordinator(2.0, 1e-3)], 0.01, None),
    "cpois-below-onset": ([[1.0, 0.5], [0.0, 0.5]],
                          [CompoundPoissonExp(2.0, 1.0, 0.1), CompoundPoissonExp(0.5, 2.0, 0.05)],
                          1.0, None),
    "table": ([[1.0, 0.5], [0.3, 1.5]],
              [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)], 2.0, TABLE_KNOTS),
}


@pytest.mark.parametrize("case", FALLBACK_PORTFOLIOS)
def test_curve_fallbacks_match_points_solved_to_ulps(case, monkeypatch):
    # The curve, seeded from the integral's nodes, must give the K of
    # ulps-tight scalar solves.
    A, factors, T, knots = FALLBACK_PORTFOLIOS[case]
    weight = WeightFunction.table(knots).normalized(T) if knots else WeightFunction.uniform(T)
    portfolio = FactorPortfolio(A, factors, [0.0] * len(A), T, 0.05, weight=weight)
    report = allocate(portfolio)
    K = curve_solved_to_ulps(portfolio, report.grid, monkeypatch)
    assert np.max(np.abs(report.K_curve[1:] - K)) <= 1e-13 * np.max(np.abs(K))
    if case == "cpois-below-onset":
        assert all(s is None for _, s in report.s_star_curve)


def count_curve_rounds(monkeypatch):
    """Per ``solve_curve`` call made by ``allocate``, the sizes of its lockstep
    rounds' arrays; and the horizons it hands to ``solve_stationary``."""
    rounds, handed_off, solving = [], [], [False]
    allocation, evar_module = sys.modules["levyrisk.allocation"], sys.modules["levyrisk.evar"]
    solve_curve, solve, kernel = (allocation.solve_curve, evar_module.solve_stationary,
                                  FactorCombination.gap_and_s2d2phi)

    def counted_curve(*args):
        rounds.append([])
        solving[0] = True
        try:
            return solve_curve(*args)
        finally:
            solving[0] = False

    def counted_kernel(self, s):
        if solving[0]:
            rounds[-1].append(s.size)
        return kernel(self, s)

    def counted_solve(comb, t, *args, **kwargs):
        handed_off.append(t)
        return solve(comb, t, *args, **kwargs)

    monkeypatch.setattr(allocation, "solve_curve", counted_curve)
    monkeypatch.setattr(evar_module, "solve_stationary", counted_solve)
    monkeypatch.setattr(FactorCombination, "gap_and_s2d2phi", counted_kernel)
    return rounds, handed_off


def test_allocate_seeds_the_curve_from_the_integral(monkeypatch):
    # Seeds interpolated through the integral's nodes lie within a Newton step
    # or two of the roots: at most three array rounds a curve, no scalar solve.
    rounds, handed_off = count_curve_rounds(monkeypatch)
    cases = [(A, factors, 2.0, knots) for A, factors, knots in ORACLE_PORTFOLIOS.values()]
    for A, factors, T, knots in cases + list(FALLBACK_PORTFOLIOS.values()):
        weight = WeightFunction.table(knots).normalized(T) if knots else WeightFunction.uniform(T)
        allocate(FactorPortfolio(A, factors, [0.0] * len(A), T, 0.05, weight=weight))
    assert len(rounds) == 8 and max(map(len, rounds)) <= 3 and handed_off == []


def test_curve_raises_the_error_of_the_scalar_solve():
    # s*(t) = sqrt(-2 ln(beta) / t) / d for a driftless Brownian position: about
    # 5e299 at T = 1, so below t ~ 1/4 the root lies above 1e300 and the solve
    # raises: first at the end of the horizon integral, t = EPS * T.
    portfolio = FactorPortfolio([[4.9e-300]], [BrownianWithDrift(0.0, 1.0)], [0.0], 1.0, 0.05)
    comb = portfolio.combination()
    assert solve_stationary(comb, 1.0, 0.05)[0] < 1e300
    with pytest.raises(NoStationaryPointError) as scalar:
        for t in np.linspace(0.0, 1.0, 65).tolist():
            solve_stationary(comb, t, 0.05)
    with pytest.raises(NoStationaryPointError) as curve:
        allocate(portfolio)
    assert (str(curve.value), curve.value.boundary) == (str(scalar.value), scalar.value.boundary)


def count_cevar_levels(monkeypatch):
    """Per quadrature call made by ``cevar``, appended as they finish: the
    integrand's calls (one per level of halving) and its nodes."""
    counts = []
    quad = sys.modules["levyrisk._quad"].adaptive_simpson

    def counted_quad(f, *args, **kwargs):
        calls, nodes = [0], [0]

        def counted_f(x):
            calls[0] += 1
            nodes[0] += x.size
            return f(x)
        result = quad(counted_f, *args, **kwargs)
        counts.append((calls[0], nodes[0]))
        return result

    monkeypatch.setattr(sys.modules["levyrisk.cevar"], "adaptive_simpson", counted_quad)
    return counts


@pytest.mark.parametrize("T", [0.5, 1.0])
@pytest.mark.parametrize("knots", [None, [(0.0, 1.0), (0.3, 2.0), (1.0, 0.5)]],
                         ids=["uniform", "table"])
def test_compound_poisson_below_the_onset_takes_no_nodes(T, knots, monkeypatch):
    # Up to t0 = -ln(beta) / sum(lambda) = ln(20)/2.5 ~ 1.2 the infimum sits at
    # s -> inf and EVaR is -t * slope: each factor share is one time moment,
    # and the CEVaR their sum.
    counts = count_cevar_levels(monkeypatch)
    weight = WeightFunction.table([(t * T, w) for t, w in knots]).normalized(T) if knots \
        else WeightFunction.uniform(T)
    comb = combo((CompoundPoissonExp(2.0, 1.0, 0.1), 1.0), (CompoundPoissonExp(0.5, 2.0, 0.05), 1.0))
    value = cevar(CevarQuery(comb, T, 0.05, weight=weight))
    shares = np.array([d * -f.slope_at_infinity() for f, d in comb.active]) * weight.time_moment()
    assert value == shares.sum()
    assert value == pytest.approx(-comb.slope_at_infinity() * weight.time_moment(), rel=1e-15)
    portfolio = FactorPortfolio([[1.0, 0.5], [0.0, 0.5]], [f for f, _ in comb.active],
                                [0.0, 0.0], T, 0.05, weight=weight)
    report = allocate(portfolio)
    slopes = np.array([f.slope_at_infinity() for f in portfolio.factors])
    assert np.array_equal(report.L, portfolio.A @ -slopes * weight.time_moment())
    assert counts == []


def test_cevar_cost_does_not_depend_on_the_draw(monkeypatch):
    # Stable + compound Poisson positions with random parameters.  With the
    # nodes batched by level, the cost of an integral is its integrand calls,
    # one per level, and every draw takes the same number.
    counts = count_cevar_levels(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(30):
        comb = combo(
            (AlphaStableSubordinator(0.5, rng.uniform(-0.5, 0.5)), rng.uniform(0.2, 1.0)),
            (CompoundPoissonExp(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5)),
             rng.uniform(0.2, 1.0)),
        )
        cevar(CevarQuery(comb, 2.0, 0.05))
    assert len(counts) == 30 and {calls for calls, _ in counts} == {1}


def test_allocate_integrates_one_share_per_factor_whatever_the_departments(monkeypatch):
    # The same two factors held by 2 departments and by 40, each row of the
    # first split into 20 rows of dyadic parts, so that the column sums are
    # bitwise equal: the integral has one row per factor, the same calls and
    # nodes, and with no premiums the same total.
    counts, shapes = count_cevar_levels(monkeypatch), []
    cevar_module = sys.modules["levyrisk.cevar"]
    quad = cevar_module.adaptive_simpson

    def shaped_quad(*args, **kwargs):
        result = quad(*args, **kwargs)
        shapes.append(np.shape(result))
        return result

    monkeypatch.setattr(cevar_module, "adaptive_simpson", shaped_quad)
    A = np.array([[1.0, 0.5], [0.25, 1.5]])
    parts = np.array([1.0 / 16] * 12 + [1.0 / 32] * 8)  # their sum is 1 exactly
    wide = np.concatenate([np.outer(parts, row) for row in A])
    assert wide.shape == (40, 2) and np.array_equal(wide.sum(axis=0), A.sum(axis=0))
    factors = [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)]
    narrow, broad = (allocate(FactorPortfolio(a, factors, np.zeros(len(a)), 2.0, 0.05))
                     for a in (A, wide))
    assert shapes == [(2,), (2,)] and len(counts) == 2 and counts[0] == counts[1]
    assert broad.total_cevar == narrow.total_cevar
    assert np.abs(broad.L.reshape(2, 20).sum(axis=1) - narrow.L).max() \
        <= 1e-14 * np.abs(narrow.L).max()


def strata_portfolio(rng):
    """A random portfolio from the benchmark's strata: 1-4 factors of the four
    kinds, 2-6 departments, T in {1, 2, 3}, beta in {0.01, 0.05, 0.1} and a
    uniform or 3-knot table weight, with the benchmark's parameter ranges."""
    factors = []
    for kind in rng.choice(list("bsgc"), rng.integers(1, 5)):
        mu = rng.uniform(-0.5, 0.5)
        if kind == "b":
            factors.append(BrownianWithDrift(mu, rng.uniform(0.3, 2.0)))
        elif kind == "s":
            factors.append(AlphaStableSubordinator(rng.choice([0.3, 0.4, 0.5, 0.6, 0.7]), mu))
        elif kind == "g":
            factors.append(GammaSubordinator(rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0), mu))
        else:
            factors.append(CompoundPoissonExp(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), mu))
    n, m = rng.integers(2, 7), len(factors)
    A = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) > 0.3)
    A[rng.integers(n, size=m), np.arange(m)] += rng.uniform(0.2, 1.0, m)  # no empty column
    T, beta = rng.choice([1.0, 2.0, 3.0]), rng.choice([0.01, 0.05, 0.1])
    weight = None
    if rng.random() < 0.5:
        w = rng.uniform(0.2, 1.0, 3)
        knots = [(0.0, w[0]), (rng.uniform(0.2, 0.6) * T, w[1]), (T, w[2])]
        weight = WeightFunction.table(knots).normalized(T)
    return FactorPortfolio(A, factors, rng.uniform(0.0, 0.3, n), T, beta, weight=weight)


def test_allocate_integrals_take_one_integrand_call(monkeypatch):
    # Six starting panels per segment meet the tolerance in the first call of
    # nearly every integral; about one in 75, at a compound-Poisson bend
    # or where mixed exponents cross over, halves one panel: one call more.
    counts = count_cevar_levels(monkeypatch)
    rng = np.random.default_rng(30)
    for _ in range(100):
        allocate(strata_portfolio(rng))
    calls = [c for c, _ in counts]
    assert len(calls) >= 90 and max(calls) <= 2 and calls.count(1) >= 0.95 * len(calls)


def curve_inputs(monkeypatch, draws=100):
    """The arguments of ``solve_curve`` in ``allocate`` on the strata draws of
    ``test_allocate_integrals_take_one_integrand_call``."""
    allocation_module, inputs = sys.modules["levyrisk.allocation"], []
    solve_curve = allocation_module.solve_curve

    def recorded(*args):
        inputs.append(args)
        return solve_curve(*args)

    monkeypatch.setattr(allocation_module, "solve_curve", recorded)
    rng = np.random.default_rng(30)
    for _ in range(draws):
        allocate(strata_portfolio(rng))
    monkeypatch.undo()
    return inputs


def near_the_middle(tau, T):
    """The index of the point whose tau is nearest T / 2, where the grid seeds from."""
    return int(np.argmin(np.abs(np.log(tau) - math.log(0.5 * T))))


def with_repeated_knot(points, T):
    """A copy of a point, with its tau but another x and F', right after it."""
    x, tau, fprime = points
    k = near_the_middle(tau, T)
    return (np.insert(x, k + 1, x[k] + 1e-3), np.insert(tau, k + 1, tau[k]),
            np.insert(fprime, k + 1, 1.5 * fprime[k]))


def with_flat_point(points, T):
    x, tau, fprime = points
    fprime = fprime.copy()
    fprime[near_the_middle(tau, T)] = 0.0
    return x, tau, fprime


def test_curve_seeds_and_curves_match_the_reference_bit_for_bit(monkeypatch):
    # The seeds take the integral's points as they arrive, and filter them
    # with np.unique only when they must: the seeds, and so the curves, are
    # those of the reference that always filters, on the points as given,
    # shuffled, with a repeated knot, with an F' of 0, and with no points.
    evar_module = sys.modules["levyrisk.evar"]
    seeds = evar_module._curve_seeds
    rng = np.random.default_rng(33)
    variants = 0
    for comb, grid, beta, points in curve_inputs(monkeypatch):
        u = np.log(grid[1:])
        cases = [points, ((), (), ())]
        if len(points[0]):
            order = rng.permutation(len(points[0]))
            cases += [tuple(p[order] for p in points), with_repeated_knot(points, grid[-1]),
                      with_flat_point(points, grid[-1])]
        for case in cases:
            variants += 1
            assert seeds(u, *case).tobytes() == oracles.curve_seeds_reference(u, *case).tobytes()
            curve = evar_module.solve_curve(comb, grid, beta, case)
            monkeypatch.setattr(evar_module, "_curve_seeds", oracles.curve_seeds_reference)
            assert curve.tobytes() == evar_module.solve_curve(comb, grid, beta, case).tobytes()
            monkeypatch.undo()
    assert variants >= 450


def test_allocate_calls_no_numpy_wrapper_when_its_integral_takes_one_call(monkeypatch):
    # A timing-free guard on allocate's fixed cost: on a portfolio whose
    # horizon integral is one integrand call, the quadrature starts from its
    # constants, the curve seeds take the points as they arrive and the grid
    # is built without np.linspace, so none of these wrappers runs.
    counts = count_cevar_levels(monkeypatch)
    wrappers = {}

    def counted(name, function):
        def wrapped(*args, **kwargs):
            wrappers[name] = wrappers.get(name, 0) + 1
            return function(*args, **kwargs)
        return wrapped

    for name in ("linspace", "unique", "clip", "tile"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(100):
        portfolio = strata_portfolio(rng)
        counts.clear()
        wrappers.clear()
        allocate(portfolio)
        if [calls for calls, _ in counts] == [1]:
            checked += 1
            assert wrappers == {}, portfolio
    assert checked >= 85


GAMMA_AT_THE_LIMIT = FactorPortfolio(  # configs/gamma_compound_poisson.cfg
    [[1.0, 0.4, 0.0], [0.2, 1.0, 0.6]],
    [GammaSubordinator(0.002, 2.0), CompoundPoissonExp(1.0, 1.5), CompoundPoissonExp(0.5, 0.8, -0.1)],
    [0.1, 0.2], 3.0, 0.05)


def test_allocate_takes_one_factor_pass_per_integrand_call_and_round(monkeypatch):
    # Along the stationary curve the one array pass over the factors is the
    # combination's kernel gap_and_s2d2phi: one call in each integrand call of
    # the horizon integral and one in each lockstep round of the K-curve, and
    # none anywhere else.  A kind's own phi_gap and s2d2phi see an array only
    # through the inherited default kernel (the Brownian kind's), and the
    # gamma series never runs on an empty subset.
    factors_module = sys.modules["levyrisk.factors"]
    allocation_module, cevar_module = sys.modules["levyrisk.allocation"], sys.modules["levyrisk.cevar"]
    phase, calls, series_sizes = [None], {}, []

    def count(key):
        calls[key] = calls.get(key, 0) + 1

    def during(name, function):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return function(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    def counted_quad(f, *args, **kwargs):
        def counted_f(x):
            count("integrand")
            return during("integrand", f)(x)
        return quad(counted_f, *args, **kwargs)

    def on_arrays(key, method):
        def wrapped(self, s):
            if isinstance(s, np.ndarray):
                count((getattr(self, "kind", key), key))
            return method(self, s)
        return wrapped

    def counted_kernel(self, s):
        count(("kernel", phase[0]))
        return kernel(self, s)

    def counted_series(z):
        if isinstance(z, np.ndarray):
            series_sizes.append(z.size)
        return series(z)

    quad, series, kernel = (cevar_module.adaptive_simpson, factors_module._gap_series,
                            FactorCombination.gap_and_s2d2phi)
    monkeypatch.setattr(cevar_module, "adaptive_simpson", counted_quad)
    monkeypatch.setattr(allocation_module, "solve_curve", during("curve", allocation_module.solve_curve))
    monkeypatch.setattr(factors_module, "_gap_series", counted_series)
    monkeypatch.setattr(FactorCombination, "gap_and_s2d2phi", counted_kernel)
    monkeypatch.setattr(LevyFactor, "gap_and_s2d2phi",
                        on_arrays("default", LevyFactor.gap_and_s2d2phi))
    for cls in (FactorCombination, BrownianWithDrift, GammaSubordinator,
                AlphaStableSubordinator, CompoundPoissonExp):
        for name in ("phi_gap", "s2d2phi"):
            monkeypatch.setattr(cls, name, on_arrays(name, getattr(cls, name)))

    rng = np.random.default_rng(32)
    portfolios = [strata_portfolio(rng) for _ in range(24)] + [GAMMA_AT_THE_LIMIT]
    # The set holds every kind, one to four factors, and both weights.
    assert {f.kind for p in portfolios for f in p.factors} == {
        "brownian", "gamma", "stable", "compound_poisson_exp"}
    assert {len(p.factors) for p in portfolios} == {1, 2, 3, 4}
    assert {len(p.weight.knots) for p in portfolios} == {2, 3}
    integrand_calls = rounds = 0
    for portfolio in portfolios:
        calls.clear()
        allocate(portfolio)
        integrand_calls += calls.get("integrand", 0)
        assert calls.pop(("kernel", "integrand"), 0) == calls.pop("integrand", 0)
        rounds += calls.get(("kernel", "curve"), 0)
        assert calls.pop(("kernel", "curve"), 0) <= CURVE_ROUNDS
        brownian = calls.pop(("brownian", "default"), 0)
        assert calls.pop(("brownian", "phi_gap"), 0) == calls.pop(("brownian", "s2d2phi"), 0) == brownian
        assert calls == {}, portfolio
    assert integrand_calls >= len(portfolios) - 1 and rounds >= len(portfolios)
    assert series_sizes and min(series_sizes) > 0


def test_cevar_query_validation():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    with pytest.raises(ValueError):
        CevarQuery(comb, 0.0, 0.05)
    with pytest.raises(ValueError):
        CevarQuery(comb, 1.0, 1.5)
    half = WeightFunction.table([(0.0, 2.0), (0.5, 2.0)])  # normalised on [0, 0.5]
    with pytest.raises(ValueError, match=r"horizon is \[0, 1.0\]"):
        CevarQuery(comb, 1.0, 0.05, weight=half)


# ---------------------------------------------------------------------------
# EVaR along the horizon
# ---------------------------------------------------------------------------

def test_curve_at_zero_time():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    result = evar(EvarQuery(comb, 0.0, 0.05))
    assert (result.value, result.s_star) == (0.0, None)


def test_curve_matches_brownian_closed_form():
    mu, sigma, beta = 0.2, 1.4, 0.05
    comb = combo((BrownianWithDrift(mu, sigma), 1.0))
    for t in np.linspace(0.0, 2.0, 41):
        result = evar(EvarQuery(comb, t, beta))
        assert result.value == pytest.approx(
            evar_closed_form_brownian(mu, sigma, t, beta), rel=1e-10, abs=1e-12
        )
        if t > 0:
            assert result.s_star == pytest.approx(
                math.sqrt(-2.0 * math.log(beta)) / (sigma * math.sqrt(t)), rel=1e-8
            )


def test_curve_stable_log_log_slope_is_inverse_alpha():
    for alpha in (0.3, 0.5, 0.7):
        comb = combo((AlphaStableSubordinator(alpha), 1.0))
        grid = np.geomspace(0.01, 1.0, 25)
        logs = np.log([abs(evar(EvarQuery(comb, t, 0.05)).value) for t in grid])
        slope = np.polyfit(np.log(grid), logs, 1)[0]
        assert slope == pytest.approx(1.0 / alpha, rel=1e-3)


@pytest.mark.parametrize("factor", [BrownianWithDrift(0.2, 1.4), AlphaStableSubordinator(0.6, 0.1)])
def test_curve_lockstep_is_exact_for_brownian_and_stable(factor, monkeypatch):
    # ln s* is linear in ln t (slope -1/2 or -1/alpha), so the Hermite seeds
    # through the integral's curve points are the roots at every horizon: one
    # array evaluation accepts them all, and no point is handed to solve_stationary.
    rounds, handed_off = count_curve_rounds(monkeypatch)
    allocate(FactorPortfolio([[0.8]], [factor], [0.0], 2.0, 0.05))
    assert rounds == [[64]]  # t = 0 is the s -> inf limit
    assert handed_off == []
