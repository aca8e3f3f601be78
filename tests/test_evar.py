import math

import numpy as np
import pytest

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    EvarQuery,
    FactorCombination,
    GammaSubordinator,
    NoStationaryPointError,
    dual_feasibility_check,
    evar,
    evar_closed_form_brownian,
    evar_objective,
)
from levyrisk.evar import infimum_point, limit_onset, solve_stationary

RNG = np.random.default_rng(20240817)


def brownian_query(mu, sigma, t, beta):
    return EvarQuery.of_factor(BrownianWithDrift(mu=mu, sigma=sigma), t, beta)


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
    res = evar(EvarQuery.of_factor(g, 2.0, 1.0))
    assert res.value == pytest.approx(-2.0 * (0.1 + 0.5))


def test_beta_one_with_stable_diverges():
    q = EvarQuery.of_factor(AlphaStableSubordinator(alpha=0.5), 1.0, 1.0)
    with pytest.raises(ValueError, match="diverges"):
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
    res = evar(EvarQuery.of_factor(cp, 1.0, 0.05))  # t*lam = 0.5 < ln 20
    assert res.attained == "limit_at_infinity"
    assert res.value == pytest.approx(-0.2)
    # With t*lambda > -ln(beta) an interior point exists.
    res = evar(EvarQuery.of_factor(cp, 10.0, 0.05))
    assert res.attained == "interior"


def test_stable_against_grid_oracle():
    alpha, t, beta = 0.5, 1.0, 0.05
    res = evar(EvarQuery.of_factor(AlphaStableSubordinator(alpha=alpha), t, beta))
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


def test_cold_solve_counts_every_evaluation(monkeypatch):
    # Scan, Brent and the Newton polish each evaluate h once per phi_gap call.
    calls = []
    original = GammaSubordinator.phi_gap

    def counted(self, s):
        calls.append(s)
        return original(self, s)

    monkeypatch.setattr(GammaSubordinator, "phi_gap", counted)
    comb = FactorCombination.single(GammaSubordinator(a=2.0, b=3.0, mu=0.1))
    _, iterations, _ = solve_stationary(comb, 1.0, 0.05)
    assert iterations == len(calls)


def test_invalid_queries_rejected():
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        brownian_query(0.0, 1.0, math.nan, 0.5)


def test_closed_form_edge_cases():
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


def test_limit_onset_only_for_compound_poisson_positions():
    # The inactive gamma factor does not count; the two jump rates add up.
    cp = CompoundPoissonExp(lam=2.0, eta=1.0)
    comb = FactorCombination([cp, CompoundPoissonExp(lam=0.5, eta=3.0), GammaSubordinator(1.0, 1.0)],
                             [1.0, 0.3, 0.0])
    t0 = limit_onset(comb, 0.05)
    assert t0 == pytest.approx(-math.log(0.05) / 2.5, rel=1e-15)
    assert infimum_point(comb, 0.99 * t0, 0.05)[0] == math.inf
    assert 0.0 < infimum_point(comb, 1.01 * t0, 0.05)[0] < math.inf
    assert limit_onset(FactorCombination([cp, GammaSubordinator(1.0, 1.0)], [1.0, 0.1]), 0.05) is None
    assert limit_onset(comb, 1.0) is None
