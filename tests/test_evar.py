import dataclasses
import itertools
import math
from decimal import Decimal, localcontext

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
    NoStationaryPointError,
    cevar,
    euler_contributions,
    evar,
    evar_closed_form_brownian,
)
from levyrisk.errors import LevyRiskError
from levyrisk.evar import solve_stationary
from oracles import dual_feasibility_check, evar_objective, evar_oracle, factor_query

RNG = np.random.default_rng(20240817)


def brownian_query(mu, sigma, t, beta):
    return factor_query(BrownianWithDrift(mu=mu, sigma=sigma), t, beta)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_beta_one_is_scaled_exponent():
    q = brownian_query(0.4, 1.0, 2.0, 1.0)
    for s in (0.5, 1.0, 3.0):
        assert evar_objective(q, s) == pytest.approx(-2.0 * q.combination.phi(s) / s)


def test_objective_hand_value():
    # Brownian(0,1), t=1, beta=e^{-2}, s=2: (2^2/2 + 2)/2 = 2.
    q = brownian_query(0.0, 1.0, 1.0, math.exp(-2.0))
    assert evar_objective(q, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_objective_degenerate_time():
    q = brownian_query(1.0, 1.0, 0.0, 0.2)
    for s in (0.5, 2.0):
        assert evar_objective(q, s) == pytest.approx(-math.log(0.2) / s)


def test_objective_rejects_nonpositive_s():
    q = brownian_query(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        evar_objective(q, 0.0)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_brownian_closed_form_and_s_star():
    mu, sigma, t, beta = 0.3, 1.4, 2.5, 0.05
    res = evar(brownian_query(mu, sigma, t, beta))
    expected = -mu * t + sigma * math.sqrt(-2.0 * t * math.log(beta))
    assert res.attained == "interior"
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.s_star == pytest.approx(
        math.sqrt(-2.0 * math.log(beta)) / (sigma * math.sqrt(t)), rel=1e-10
    )
    assert abs(res.residual) <= 1e-10 * (1.0 + abs(math.log(beta)))


def test_brownian_randomized_closed_form():
    for _ in range(100):
        mu = RNG.uniform(-2, 2)
        sigma = RNG.uniform(0.1, 5)
        t = RNG.uniform(0.01, 10)
        beta = RNG.uniform(0.001, 0.99)
        res = evar(brownian_query(mu, sigma, t, beta))
        assert res.value == pytest.approx(
            evar_closed_form_brownian(mu, sigma, t, beta), rel=1e-10
        )


def test_beta_one_gives_negative_mean():
    res = evar(brownian_query(0.7, 1.0, 3.0, 1.0))
    assert res.attained == "limit_at_zero"
    assert res.value == pytest.approx(-0.7 * 3.0)
    g = GammaSubordinator(a=2.0, b=4.0, mu=0.1)
    res = evar(factor_query(g, 2.0, 1.0))
    assert res.value == pytest.approx(-2.0 * (0.1 + 0.5))


def test_beta_one_with_stable_diverges():
    q = factor_query(AlphaStableSubordinator(alpha=0.5), 1.0, 1.0)
    with pytest.raises(ValueError, match="diverges"):
        evar(q)
    with pytest.raises(LevyRiskError, match="diverges"):
        evar(q)


def test_zero_time_and_degenerate_position():
    res = evar(brownian_query(1.0, 1.0, 0.0, 0.3))
    assert res.value == 0.0 and res.attained == "limit_at_infinity"
    zero = FactorCombination([BrownianWithDrift(0.0, 1.0)], [0.0])
    res = evar(EvarQuery(zero, 2.0, 0.3))
    assert res.value == 0.0 and res.attained == "limit_at_infinity"


def test_compound_poisson_boundary_infimum():
    # For t*lambda < -ln(beta) the objective decreases toward -t*mu at s->inf.
    cp = CompoundPoissonExp(lam=0.5, eta=1.0, mu=0.2)
    res = evar(factor_query(cp, 1.0, 0.05))  # t*lam = 0.5 < ln 20
    assert res.attained == "limit_at_infinity"
    assert res.value == pytest.approx(-0.2)
    # With t*lambda > -ln(beta) an interior point exists.
    res = evar(factor_query(cp, 10.0, 0.05))
    assert res.attained == "interior"


def test_stable_against_grid_oracle():
    alpha, t, beta = 0.5, 1.0, 0.05
    res = evar(factor_query(AlphaStableSubordinator(alpha=alpha), t, beta))
    grid = np.logspace(-6, 6, 100_000)
    objective = (-t * grid**alpha - math.log(beta)) / grid
    assert res.value == pytest.approx(float(objective.min()), rel=1e-8)
    s_star = (-math.log(beta) / (t * (1 - alpha))) ** (1 / alpha)
    assert res.s_star == pytest.approx(s_star, rel=1e-10)
    assert res.value == pytest.approx(-alpha * t * s_star ** (alpha - 1), rel=1e-10)


def test_brownian_root_beyond_scan_is_a_typed_error():
    # s* = sqrt(-2 ln(beta) / t) / (sigma d) ~ 2.4e300 lies past the 1e300 scan.
    tiny = FactorCombination([BrownianWithDrift(0.0, 1.0)], [1e-300])
    with pytest.raises(NoStationaryPointError) as exc_info:
        evar(EvarQuery(tiny, 1.0, 0.05))
    assert exc_info.value.boundary == "limit_at_infinity"


def test_stable_root_far_below_one():
    # s* = (-ln(beta) / (t (1 - alpha)))^(1/alpha) runs from 1.8e-11 down to
    # 5.6e-14 over these horizons; the drift cancels in h.
    alpha, beta = 0.4, 0.05
    for t in (1e5, 4e5, 1e6):
        res = evar(factor_query(AlphaStableSubordinator(alpha, mu=0.1), t, beta))
        s_star = (-math.log(beta) / (t * (1.0 - alpha))) ** (1.0 / alpha)
        assert res.attained == "interior" and math.isfinite(res.value)
        assert res.s_star == pytest.approx(s_star, rel=1e-12)


def test_root_below_the_solver_range_is_a_typed_error():
    # s* = (-ln(beta) / (0.6 t))^2.5 ~ 6e-325 lies below 1e-300.
    comb = FactorCombination.single(AlphaStableSubordinator(0.4))
    with pytest.raises(NoStationaryPointError) as exc_info:
        evar(EvarQuery(comb, 1e130, 0.05))
    assert exc_info.value.boundary == "limit_at_zero"
    # At beta = 1, h = t*gap >= 0 for every s: the solver returns the s -> 0+
    # limit as a value, with no evaluation.
    assert solve_stationary(comb, 1.0, 1.0) == (0.0, 0, 0.0)


def test_brownian_evar_as_beta_tends_to_one():
    # The stop |h| <= eps * |ln(beta)| scales with the budget -ln(beta) = 1e-12.
    beta = 1.0 - 1e-12
    res = evar(brownian_query(0.1, 1.0, 1.0, beta))
    expected = evar_closed_form_brownian(0.1, 1.0, 1.0, beta)
    assert abs(res.value - expected) <= 1e-12 * abs(expected)


# Factors store their parameters as Python floats, so numpy-scalar parameters
# check that they behave like floats: an overflow at extreme s must stay a
# silent inf, not a RuntimeWarning (which the suite makes an error).  The gamma
# factor with b = 1e-3 overflows s/b below s = 1e300 at exposure 1e6.
EXTREME_FACTORS = (
    BrownianWithDrift(np.float64(0.1), np.float64(1.0)),
    GammaSubordinator(np.float64(2.0), np.float64(3.0), np.float64(0.1)),
    AlphaStableSubordinator(np.float64(0.4), np.float64(0.1)),
    CompoundPoissonExp(np.float64(2.0), np.float64(1.0), np.float64(0.1)),
    GammaSubordinator(np.float64(2.0), np.float64(1e-3), np.float64(0.1)),
)
EXTREME_IDS = ("brownian", "gamma", "stable", "compound_poisson_exp", "gamma-b=1e-3")


EXTREME_BETAS = (1e-300, 1e-12, 0.05, 1.0 - 1e-12)  # ascending
SHIFT = np.float64(0.5)  # added to every factor's mu
# Each measure of a position at horizon t, and the time moment by which a unit
# drift per unit exposure moves it: t for EVaR at t, t/2 for CEVaR over [0, t].
EXTREME_MEASURES = {
    "evar": (lambda comb, t, beta: evar(EvarQuery(comb, t, beta)).value, lambda t: t),
    "cevar": (lambda comb, t, beta: cevar(CevarQuery(comb, t, beta)), lambda t: t / 2.0),
}


@pytest.mark.parametrize("factor", EXTREME_FACTORS, ids=EXTREME_IDS)
def test_extremes_give_homogeneous_values_or_typed_errors(factor):
    # The factor alone and paired with each later one, so that every factor and
    # every pair of factors runs once over the five tests.  Per position, 36
    # points of exposures, confidence levels and horizons at the extremes, for
    # each measure.  A value is finite and keeps homogeneity (X against 2X),
    # translation (every mu + SHIFT) and beta-monotonicity; otherwise the
    # measure raises a typed error.
    later = EXTREME_FACTORS[EXTREME_FACTORS.index(factor) + 1:]
    for factors in [(factor,)] + [(factor, other) for other in later]:
        shifted = [dataclasses.replace(f, mu=f.mu + SHIFT) for f in factors]
        for d, t in itertools.product((1e-6, 1.0, 1e6), (1e-12, 1.0, 1e6)):
            comb = FactorCombination(factors, [d] * len(factors))
            moved = FactorCombination(shifted, comb.weights)
            drift = SHIFT * sum(comb.weights)
            for name, (measure, moment) in EXTREME_MEASURES.items():
                previous = None
                for beta in EXTREME_BETAS:
                    case = (name, [f.kind for f in factors], d, beta, t)
                    try:
                        base = measure(comb, t, beta)
                        doubled = measure(comb.scaled(2.0), t, beta)
                        translated = measure(moved, t, beta)
                    except LevyRiskError:
                        continue
                    assert math.isfinite(base), case
                    assert abs(doubled - 2.0 * base) <= 1e-9 * abs(2.0 * base), case
                    expected = base - drift * moment(t)
                    assert abs(translated - expected) <= 1e-9 * max(abs(base), abs(expected)), case
                    if previous is not None:
                        assert base <= previous + 1e-9 * abs(previous), case
                    previous = base


def test_numpy_scalar_horizons_and_betas_act_as_floats():
    # With an np.float64 t this position's solve warned "invalid value
    # encountered in scalar divide" (an error in this suite), and
    # EvarResult.value came back as an np.float64.
    factors = [AlphaStableSubordinator(0.07552882860216895, -17021.264385622526),
               BrownianWithDrift(3598.221240349138, 6.208546821588171e-06)]
    d = [5.5819007059422425, 0.001277541797921643]
    t, beta = 8.969505755286586e-227, 0.07606470857492606
    comb = FactorCombination(factors, d)
    result = evar(EvarQuery(comb, np.float64(t), np.float64(beta)))
    assert result == evar(EvarQuery(comb, t, beta))
    assert type(result.value) is float
    query = CevarQuery(comb, np.float64(t), np.float64(beta))
    assert type(query.T) is float and type(query.beta) is float
    assert cevar(query) == cevar(CevarQuery(comb, t, beta))
    portfolio = FactorPortfolio([d], factors, [0.0], 1.0, beta)
    assert euler_contributions(portfolio, np.float64(t)).tolist() \
        == euler_contributions(portfolio, t).tolist()


@pytest.fixture
def gap_calls(monkeypatch):
    """The arguments of every factor's phi_gap call, in order."""
    calls = []
    for cls in (BrownianWithDrift, GammaSubordinator, AlphaStableSubordinator, CompoundPoissonExp):
        def counted(self, s, original=cls.phi_gap):
            calls.append(s)
            return original(self, s)
        monkeypatch.setattr(cls, "phi_gap", counted)
    return calls


def test_cold_solve_work(gap_calls):
    # Newton in x = ln(s) is exact in one step for Brownian and stable positions.
    for factor, t, budget in ((BrownianWithDrift(0.1, 1.0), 1.0, 3),
                              (AlphaStableSubordinator(0.5, 0.1), 1.0, 3),
                              (GammaSubordinator(2.0, 3.0, 0.1), 1.0, 12)):
        gap_calls.clear()
        solve_stationary(FactorCombination.single(factor), t, 0.05)
        assert len(gap_calls) <= budget, factor
    # This gamma root lies above 1e300: one evaluation there decides the
    # s -> inf limit, which is returned as a value.
    gap_calls.clear()
    comb = FactorCombination.single(GammaSubordinator(2.0, 3.0, 0.1))
    assert solve_stationary(comb, 1e-4, 0.05) == (math.inf, 0, 0.0)
    assert len(gap_calls) <= 10
    # Below the compound-Poisson onset t0 = ln(20)/2 there is no root: h < 0 at
    # s = 1e300 decides the s -> inf limit in a few evaluations.
    gap_calls.clear()
    comb = FactorCombination.single(CompoundPoissonExp(2.0, 1.0))
    assert solve_stationary(comb, 1.0, 0.05) == (math.inf, 0, 0.0)
    assert len(gap_calls) <= 4


# Every way solve_stationary ends without an interior root: (position, t,
# beta, the point it returns or the boundary it raises, most phi_gap calls).
SOLVER_BOUNDARIES = {
    "t=0": (FactorCombination.single(BrownianWithDrift(0.1, 1.0)), 0.0, 0.05, math.inf, 0),
    "zero-position": (FactorCombination([GammaSubordinator(2.0, 3.0)], [0.0]), 1.0, 0.05,
                      math.inf, 0),
    "cp-below-onset": (FactorCombination.single(CompoundPoissonExp(2.0, 1.0)), 1.0, 0.05,
                       math.inf, 4),
    "gamma-root-above-1e300": (FactorCombination.single(GammaSubordinator(2.0, 3.0, 0.1)), 1e-4,
                               0.05, math.inf, 10),
    "beta=1": (FactorCombination.single(AlphaStableSubordinator(0.4)), 1.0, 1.0, 0.0, 0),
    "root-below-1e-300": (FactorCombination.single(AlphaStableSubordinator(0.4)), 1e130, 0.05,
                          "limit_at_zero", None),
    "brownian-root-above-1e300": (FactorCombination([BrownianWithDrift(0.0, 1.0)], [1e-300]),
                                  1.0, 0.05, "limit_at_infinity", None),
}


@pytest.mark.parametrize("case", SOLVER_BOUNDARIES)
def test_solver_returns_the_boundary_limits_and_raises_only_out_of_range(case, gap_calls):
    comb, t, beta, expected, most_calls = SOLVER_BOUNDARIES[case]
    if isinstance(expected, str):
        with pytest.raises(NoStationaryPointError) as exc_info:
            solve_stationary(comb, t, beta)
        assert exc_info.value.boundary == expected
    else:
        assert solve_stationary(comb, t, beta) == (expected, 0, 0.0)
        assert len(gap_calls) <= most_calls


@pytest.mark.parametrize("t, beta", [(1.0, 1.0 - 2.0**-50), (1e17, 0.05), (1e30, 0.05)])
def test_gamma_root_at_small_z_meets_the_residual_stop(t, beta):
    # These roots sit at z = s*d/b < 1e-3, where the closed-form gamma gap
    # cancels to noise.  h is checked in 460-digit decimals.
    a, b, d = 2.0, 3.0, 0.5
    comb = FactorCombination([GammaSubordinator(a=a, b=b, mu=0.1)], [d])
    s, iterations, residual = solve_stationary(comb, t, beta)
    z = s * d / b
    assert z < 1e-3
    with localcontext() as ctx:
        ctx.prec = 460
        gap = (1 + Decimal(z)).ln() - Decimal(z) / (1 + Decimal(z))
        h = float(Decimal(t) * Decimal(a) * gap + Decimal(math.log(beta)))
    assert abs(h) <= 1e-10 * -math.log(beta)
    assert abs(residual) <= 1e-10 * -math.log(beta)
    assert iterations <= 8


def test_cold_solve_counts_every_evaluation(gap_calls):
    # Every Newton, bisection or end step evaluates h once per phi_gap call.
    comb = FactorCombination.single(GammaSubordinator(a=2.0, b=3.0, mu=0.1))
    _, iterations, _ = solve_stationary(comb, 1.0, 0.05)
    assert iterations == len(gap_calls)


def test_invalid_queries_rejected():
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, math.nan, 0.5)


def test_closed_form_edge_cases():
    with pytest.raises(ValueError, match="finite"):
        evar_closed_form_brownian(0.0, 1.0, math.inf, 0.05)  # was nan
    assert evar_closed_form_brownian(1.0, 1.0, 0.0, 0.5) == 0.0
    assert evar_closed_form_brownian(0.7, 1.0, 2.0, 1.0) == pytest.approx(-1.4)
    assert evar_closed_form_brownian(0.0, 1.0, 1.0, 0.05) == pytest.approx(
        2.4477468306808166
    )


# ---------------------------------------------------------------------------
# coherence properties
# ---------------------------------------------------------------------------

def random_combination(rng, allow_stable=True):
    kinds = ["brownian", "gamma", "cpois"] + (["stable"] if allow_stable else [])
    m = rng.integers(1, 4)
    factors, weights = [], []
    for _ in range(m):
        kind = kinds[rng.integers(0, len(kinds))]
        if kind == "brownian":
            factors.append(BrownianWithDrift(rng.uniform(-1, 1), rng.uniform(0.2, 2)))
        elif kind == "gamma":
            factors.append(GammaSubordinator(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                             rng.uniform(0, 1)))
        elif kind == "stable":
            factors.append(AlphaStableSubordinator(rng.uniform(0.2, 0.8),
                                                   rng.uniform(0, 1)))
        else:
            factors.append(CompoundPoissonExp(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                              rng.uniform(0, 1)))
    weights = rng.uniform(0.1, 2.0, m).tolist()
    return FactorCombination(factors, weights)


def test_translation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(0.1, 5)
        beta = rng.uniform(0.01, 0.9)
        mu, sigma = rng.uniform(-1, 1), rng.uniform(0.2, 2)
        m = rng.uniform(-2, 2)
        base = evar(brownian_query(mu, sigma, t, beta)).value
        shifted = evar(brownian_query(mu + m / t, sigma, t, beta)).value
        assert shifted == pytest.approx(base - m, abs=1e-9 * (1 + abs(base)))


def test_positive_homogeneity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        comb = random_combination(rng)
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        lam = rng.uniform(0.2, 4.0)
        base = evar(EvarQuery(comb, t, beta)).value
        scaled = evar(EvarQuery(comb.scaled(lam), t, beta)).value
        assert scaled == pytest.approx(lam * base, rel=1e-9)


def test_subadditivity_across_independent_blocks():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = random_combination(rng)
        b = random_combination(rng)
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        va = evar(EvarQuery(a, t, beta)).value
        vb = evar(EvarQuery(b, t, beta)).value
        vab = evar(EvarQuery(a.concat(b), t, beta)).value
        assert vab <= va + vb + 1e-9


def test_monotone_in_beta():
    rng = np.random.default_rng(10)
    for _ in range(50):
        comb = random_combination(rng)
        t = rng.uniform(0.1, 5)
        b1, b2 = sorted(rng.uniform(0.01, 0.99, 2))
        if b1 == b2:
            continue
        v1 = evar(EvarQuery(comb, t, b1)).value
        v2 = evar(EvarQuery(comb, t, b2)).value
        assert v1 >= v2 - 1e-9 * (1 + abs(v1))


def test_mean_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        comb = random_combination(rng, allow_stable=False)
        t, beta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
        value = evar(EvarQuery(comb, t, beta)).value
        assert value >= -t * comb.mean_rate() - 1e-9 * (1 + abs(value))


# ---------------------------------------------------------------------------
# dual representation spot check
# ---------------------------------------------------------------------------

def test_dual_check_at_optimum():
    q = brownian_query(0.2, 1.3, 2.0, 0.05)
    res = evar(q)
    check = dual_feasibility_check(q, res.s_star)
    assert check.entropy == pytest.approx(-math.log(0.05), abs=1e-8)
    assert check.bound == pytest.approx(res.value, abs=1e-8)
    assert check.ok


def test_dual_check_small_s():
    q = brownian_query(0.0, 1.0, 1.0, 0.5)
    check = dual_feasibility_check(q, 1e-8)
    assert abs(check.entropy) < 1e-10
    assert check.ok


def test_dual_check_gaussian_entropy():
    # Tilted standard Brownian at s=1, t=1 has entropy s^2 sigma^2 t / 2 = 1/2.
    q = brownian_query(0.0, 1.0, 1.0, 0.05)
    check = dual_feasibility_check(q, 1.0)
    assert check.entropy == pytest.approx(0.5, rel=1e-12)


def test_dual_feasible_candidates_stay_below_evar():
    rng = np.random.default_rng(12)
    for _ in range(25):
        comb = random_combination(rng)
        t, beta = rng.uniform(0.1, 3), rng.uniform(0.02, 0.5)
        q = EvarQuery(comb, t, beta)
        for s in np.geomspace(1e-3, 1e3, 13):
            assert dual_feasibility_check(q, float(s)).ok


def test_zero_weight_stable_factor_leaves_the_gamma_position(gap_calls):
    # The stable factor at weight 0 must not turn phi' into 0 * inf = nan or
    # make phi'' divide by zero: the dual check and the solver's Newton steps
    # read the same values as for the gamma factor alone.
    gamma = GammaSubordinator(a=2.0, b=3.0, mu=0.1)
    comb = FactorCombination([AlphaStableSubordinator(0.5), gamma], [0.0, 1.0])
    check = dual_feasibility_check(EvarQuery(comb, 1.0, 0.05), 5.0)
    assert check == dual_feasibility_check(factor_query(gamma, 1.0, 0.05), 5.0)
    assert check.ok and check.bound == pytest.approx(-0.35, rel=1e-15)
    alone = solve_stationary(FactorCombination.single(gamma), 1.0, 0.05)
    gap_calls.clear()
    assert solve_stationary(comb, 1.0, 0.05) == alone
    assert len(gap_calls) == alone[1] <= 6


def test_limit_onset_only_for_compound_poisson_positions():
    # A compound-Poisson-only position has gap(s) < sum(lambda), so h has no
    # root up to the onset t0 = -ln(beta) / sum(lambda).  The inactive gamma
    # factor does not count; the two jump rates add up.
    cp = CompoundPoissonExp(lam=2.0, eta=1.0)
    comb = FactorCombination([cp, CompoundPoissonExp(lam=0.5, eta=3.0), GammaSubordinator(1.0, 1.0)],
                             [1.0, 0.3, 0.0])
    t0 = -math.log(0.05) / 2.5
    assert solve_stationary(comb, 0.99 * t0, 0.05)[0] == math.inf
    assert 0.0 < solve_stationary(comb, 1.01 * t0, 0.05)[0] < math.inf
    # An active gamma factor makes gap unbounded: the root is interior below t0.
    mixed = FactorCombination([cp, GammaSubordinator(1.0, 1.0)], [1.0, 0.1])
    assert 0.0 < solve_stationary(mixed, 0.99 * t0, 0.05)[0] < math.inf
    # At beta = 1 the infimum sits at s -> 0+ for every t.
    assert solve_stationary(comb, 0.99 * t0, 1.0)[0] == 0.0


# Positions for the mpmath oracle: each kind at two horizons, a gamma(0.01) +
# compound-Poisson mix, and the three s -> inf limits the solver returns by
# value (a gamma root above 1e300, compound Poisson below its onset
# t0 = ln(20)/2 and the mix, whose root also lies above 1e300).
GAMMA = GammaSubordinator(2.0, 3.0, 0.1)
COMPOUND_POISSON = CompoundPoissonExp(2.0, 1.0, 0.1)
MIX = FactorCombination([GammaSubordinator(0.01, 1.0, 0.1), COMPOUND_POISSON], [1.0, 1.0])
ORACLE_CASES = {
    **{f"{f.kind}-t={t}": (FactorCombination([f], [d]), t)
       for f, d in ((BrownianWithDrift(0.1, 1.2), 0.8), (GAMMA, 1.0),
                    (AlphaStableSubordinator(0.6, 0.1), 1.5))
       for t in (0.5, 2.0)},
    **{f"compound_poisson-t={t}": (FactorCombination.single(COMPOUND_POISSON), t)
       for t in (2.0, 5.0)},
    **{f"mix-t={t}": (MIX, t) for t in (1.0, 5.0)},
    "gamma-limit-t=1e-4": (FactorCombination.single(GAMMA), 1e-4),
    "compound_poisson-limit-t=1": (FactorCombination.single(COMPOUND_POISSON), 1.0),
    "mix-limit-t=0.01": (MIX, 0.01),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_evar_matches_the_mpmath_oracle(case):
    comb, t = ORACLE_CASES[case]
    truth = evar_oracle(comb, t, 0.05)
    assert abs(evar(EvarQuery(comb, t, 0.05)).value - truth) <= 1e-12 * abs(truth)
