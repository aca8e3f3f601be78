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
    FactorCombination,
    FactorPortfolio,
    GammaSubordinator,
    WeightFunction,
    allocate,
    cevar,
    evar,
    evar_closed_form_brownian,
    evar_curve,
)
from levyrisk.errors import QuadratureBudgetError
from oracles import composite_simpson


def brownian_cevar_closed_form(mu, sigma, T, beta):
    return -mu * T / 2.0 + (2.0 / 3.0) * sigma * math.sqrt(-2.0 * T * math.log(beta))


def combo(*factors_weights):
    factors, weights = zip(*factors_weights)
    return FactorCombination(list(factors), list(weights))


# ---------------------------------------------------------------------------
# weight function
# ---------------------------------------------------------------------------

def test_uniform_weight_basics():
    w = WeightFunction()
    assert w.density(0.3, 2.0) == 0.5
    assert w.mass(2.0) == 1.0
    assert w.time_moment(2.0) == 1.0
    assert w.breakpoints(2.0) == []


def test_table_weight_interpolation_and_mass():
    w = WeightFunction.table([(0.0, 0.5), (1.0, 1.5)])
    assert w.density(0.0, 1.0) == 0.5
    assert w.density(1.0, 1.0) == 1.5
    assert w.density(0.5, 1.0) == pytest.approx(1.0)
    assert w.mass(1.0) == pytest.approx(1.0)
    # integral of t*(0.5 + t) over [0,1] = 0.25 + 1/3
    assert w.time_moment(1.0) == pytest.approx(0.25 + 1.0 / 3.0, rel=1e-14)


def test_table_time_moment_matches_fine_trapezoid():
    w = WeightFunction.table([(0.0, 0.2), (0.5, 1.9), (1.3, 0.7), (2.0, 1.1)])
    w = w.normalized(2.0)
    ts = np.linspace(0.0, 2.0, 200_001)
    dens = np.array([w.density(t, 2.0) for t in ts])
    assert w.time_moment(2.0) == pytest.approx(np.trapezoid(ts * dens, ts), abs=1e-8)
    assert w.mass(2.0) == pytest.approx(1.0, abs=1e-12)


def test_table_weight_validation():
    with pytest.raises(ValueError, match="two knots"):
        WeightFunction.table([(0.0, 1.0)])
    with pytest.raises(ValueError, match="increasing"):
        WeightFunction.table([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightFunction.table([(0.0, 1.0), (1.0, -0.5)])
    with pytest.raises(ValueError, match="kind"):
        WeightFunction(kind="spline")


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


def test_cevar_beta_one_is_weighted_mean():
    comb = combo((GammaSubordinator(2.0, 4.0, 0.1), 1.0))
    # EVaR at beta=1 is -t * mean rate; uniform weight integrates to -T/2 * mean.
    T = 3.0
    mean = 0.1 + 0.5
    assert cevar(CevarQuery(comb, T, 1.0)) == pytest.approx(-T / 2.0 * mean, rel=1e-9)


def test_cevar_budget_error_carries_partial():
    # A Brownian integrand is a polynomial in u under t = u^2, so only a
    # tolerance below round-off keeps the quadrature halving until the
    # budget runs out.
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    q = CevarQuery(comb, 1.0, 0.05, quad_tol=1e-30)
    with pytest.raises(QuadratureBudgetError) as exc_info:
        cevar(q, max_evals=200)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial == pytest.approx(brownian_cevar_closed_form(0.0, 1.0, 1.0, 0.05), rel=1e-6)


def test_boundary_nodes_are_solved_once(monkeypatch):
    # Compound Poisson only: below t = -ln(beta)/lambda the infimum is the
    # s -> inf limit, so most nodes end in a full bracket scan; each node may
    # run the solver once.
    solves, nodes = [], []
    original = sys.modules["levyrisk.evar"].solve_stationary

    def counted_solve(*args, **kwargs):
        solves.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("levyrisk.") and getattr(module, "solve_stationary", None) is original:
            monkeypatch.setattr(module, "solve_stationary", counted_solve)
    cevar_module = sys.modules["levyrisk.cevar"]
    quad = cevar_module.adaptive_simpson

    def counted_quad(f, *args, **kwargs):
        def node(t):
            nodes.append(t)
            return f(t)
        return quad(node, *args, **kwargs)

    monkeypatch.setattr(cevar_module, "adaptive_simpson", counted_quad)
    comb = combo((CompoundPoissonExp(lam=2.0, eta=1.0), 1.0))
    cevar(CevarQuery(comb, 2.0, 0.05))
    assert 0 < len(solves) <= len(nodes)


def test_default_tolerance_integrates_each_quantity_once(monkeypatch):
    calls = []  # (result shape, tol) per quadrature call
    quad = sys.modules["levyrisk._quad"].adaptive_simpson

    def counted_quad(f, a, b, tol, *args, **kwargs):
        result = quad(f, a, b, tol, *args, **kwargs)
        calls.append((np.shape(result), tol))
        return result

    for name in ("levyrisk.cevar", "levyrisk.allocation"):
        monkeypatch.setattr(sys.modules[name], "adaptive_simpson", counted_quad)
    comb = combo((BrownianWithDrift(0.3, 1.1), 1.0), (GammaSubordinator(2.0, 3.0, 0.1), 0.7))
    cevar(CevarQuery(comb, 2.0, 0.05))
    assert calls == [((), None)]

    calls.clear()
    portfolio = FactorPortfolio(
        np.array([[1.0, 0.5], [0.3, 1.5]]),
        [BrownianWithDrift(0.3, 1.1), GammaSubordinator(2.0, 3.0, 0.1)],
        [0.1, 0.2], 2.0, 0.05,
    )
    allocate(portfolio)
    # The Euler contributions, then the independent aggregate CEVaR.
    assert calls == [((2,), None), ((), None)]


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


def count_cevar_nodes(monkeypatch):
    """Integrand nodes per quadrature call made by ``cevar``, appended as they finish."""
    counts = []
    quad = sys.modules["levyrisk._quad"].adaptive_simpson

    def counted_quad(f, *args, **kwargs):
        n = [0]

        def node(t):
            n[0] += 1
            return f(t)
        result = quad(node, *args, **kwargs)
        counts.append(n[0])
        return result

    monkeypatch.setattr(sys.modules["levyrisk.cevar"], "adaptive_simpson", counted_quad)
    return counts


def test_compound_poisson_onset_is_a_breakpoint(monkeypatch):
    # EVaR is linear up to t0 = -ln(beta)/lambda and smooth past it, so with a
    # segment break at t0 neither segment needs halving.  Without the break
    # the quadrature halved down to the kink: 624 nodes.
    counts = count_cevar_nodes(monkeypatch)
    comb = combo((CompoundPoissonExp(lam=2.0, eta=1.0), 1.0))
    cevar(CevarQuery(comb, 2.0, 0.05))
    assert counts == [2 * 96]


def test_cevar_cost_does_not_depend_on_the_draw(monkeypatch):
    # Stable + compound Poisson positions with random parameters.  Starting
    # each segment as one panel, these cost 48 or 112 nodes depending on the
    # draw; from two panels, all cost the same.
    counts = count_cevar_nodes(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(30):
        comb = combo(
            (AlphaStableSubordinator(0.5, rng.uniform(-0.5, 0.5)), rng.uniform(0.2, 1.0)),
            (CompoundPoissonExp(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5)),
             rng.uniform(0.2, 1.0)),
        )
        cevar(CevarQuery(comb, 2.0, 0.05))
    assert len(counts) == 30 and len(set(counts)) == 1


def test_cevar_query_validation():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    with pytest.raises(ValueError):
        CevarQuery(comb, 0.0, 0.05)
    with pytest.raises(ValueError):
        CevarQuery(comb, 1.0, 1.5)


# ---------------------------------------------------------------------------
# evar curve
# ---------------------------------------------------------------------------

def test_curve_at_zero_time():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    rows = evar_curve(CevarQuery(comb, 1.0, 0.05), [0.0])
    assert rows == [(0.0, 0.0, None)]


def test_curve_matches_brownian_closed_form():
    mu, sigma, beta = 0.2, 1.4, 0.05
    comb = combo((BrownianWithDrift(mu, sigma), 1.0))
    grid = np.linspace(0.0, 2.0, 41)
    rows = evar_curve(CevarQuery(comb, 2.0, beta), grid)
    for t, value, s_star in rows:
        assert value == pytest.approx(
            evar_closed_form_brownian(mu, sigma, t, beta), rel=1e-10, abs=1e-12
        )
        if t > 0:
            assert s_star == pytest.approx(
                math.sqrt(-2.0 * math.log(beta)) / (sigma * math.sqrt(t)), rel=1e-8
            )


def test_curve_stable_log_log_slope_is_inverse_alpha():
    for alpha in (0.3, 0.5, 0.7):
        comb = combo((AlphaStableSubordinator(alpha), 1.0))
        grid = np.geomspace(0.01, 1.0, 25)
        rows = evar_curve(CevarQuery(comb, 1.0, 0.05), grid)
        logs = np.log([abs(v) for _, v, _ in rows])
        slope = np.polyfit(np.log(grid), logs, 1)[0]
        assert slope == pytest.approx(1.0 / alpha, rel=1e-3)


def test_curve_rejects_points_outside_horizon():
    comb = combo((BrownianWithDrift(0.0, 1.0), 1.0))
    with pytest.raises(ValueError, match="outside"):
        evar_curve(CevarQuery(comb, 1.0, 0.05), [0.5, 1.5])
