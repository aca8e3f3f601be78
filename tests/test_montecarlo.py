import math

import numpy as np
import pytest

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    FactorCombination,
    GammaSubordinator,
    SimulationConfig,
    adjustment_coefficient,
    empirical_evar,
    empirical_exponent_check,
    evar_closed_form_brownian,
    ruin_probability,
    sample_increments,
    validation_report,
    var_inf_bound_check,
)

ALL_KINDS = [
    BrownianWithDrift(mu=0.1, sigma=1.0),
    GammaSubordinator(a=2.0, b=3.0, mu=0.0),
    AlphaStableSubordinator(alpha=0.5, mu=0.0),
    CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0),
]

CP = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0)
PREMIUM = 1.5  # adjustment coefficient R = eta - lam/c = 1/3


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic_in_seed():
    for factor in ALL_KINDS:
        a = sample_increments(factor, 0.5, 1000, seed=42)
        b = sample_increments(factor, 0.5, 1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_increments(factor, 0.5, 1000, seed=43)
        assert not np.array_equal(a, c)


def test_sample_mean_matches_clt():
    for factor in (ALL_KINDS[0], ALL_KINDS[1], ALL_KINDS[3]):
        x = sample_increments(factor, 1.0, 200_000, seed=7)
        mean = factor.mean_rate()
        stderr = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mean) <= 5.0 * stderr


def test_subordinator_samples_are_nonnegative():
    for factor in ALL_KINDS[1:]:
        x = sample_increments(factor, 0.7, 50_000, seed=3)
        assert (x >= 0.0).all()


def test_sample_increments_validation():
    with pytest.raises(ValueError, match="dt"):
        sample_increments(ALL_KINDS[0], 0.0, 10, seed=0)


# ---------------------------------------------------------------------------
# empirical Laplace exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factor", ALL_KINDS, ids=lambda f: f.kind)
def test_empirical_exponent_matches_analytic(factor):
    config = SimulationConfig(seed=11, n_paths=200_000)
    rows = empirical_exponent_check(factor, 1.0, [0.5, 1.0, 2.0], config)
    assert all(r["pass"] for r in rows)
    for r in rows:
        assert abs(r["estimate"] - r["analytic"]) <= 4.0 * r["stderr"]


def test_empirical_exponent_stable_at_large_s():
    # The log-sum-exp shift keeps the estimate finite even when exp(-s x)
    # underflows for most samples.
    factor = GammaSubordinator(a=2.0, b=3.0, mu=0.0)
    config = SimulationConfig(seed=11, n_paths=50_000)
    rows = empirical_exponent_check(factor, 1.0, [1e4, 1e6], config)
    for r in rows:
        assert math.isfinite(r["estimate"])


# ---------------------------------------------------------------------------
# empirical EVaR
# ---------------------------------------------------------------------------

def test_empirical_evar_brownian():
    config = SimulationConfig(seed=5, n_paths=400_000)
    estimate = empirical_evar(BrownianWithDrift(0.0, 1.0), 1.0, 0.05, config)
    analytic = evar_closed_form_brownian(0.0, 1.0, 1.0, 0.05)
    assert estimate == pytest.approx(analytic, rel=0.01)


def test_empirical_evar_is_deterministic():
    config = SimulationConfig(seed=9, n_paths=50_000)
    comb = FactorCombination(
        [BrownianWithDrift(0.1, 1.0), GammaSubordinator(1.0, 2.0)], [1.0, 0.5]
    )
    a = empirical_evar(comb, 1.0, 0.05, config)
    b = empirical_evar(comb, 1.0, 0.05, config)
    assert a == b


def test_empirical_evar_validation():
    config = SimulationConfig(seed=1, n_paths=100)
    with pytest.raises(ValueError, match="beta"):
        empirical_evar(BrownianWithDrift(0.0, 1.0), 1.0, 1.0, config)


# ---------------------------------------------------------------------------
# ruin theory
# ---------------------------------------------------------------------------

def test_adjustment_coefficient_closed_form():
    assert adjustment_coefficient(CP, PREMIUM) == pytest.approx(1.0 / 3.0, abs=1e-12)
    cp = CompoundPoissonExp(lam=2.0, eta=4.0, mu=0.0)
    # R = eta - lam/c for exponential jumps.
    assert adjustment_coefficient(cp, 1.0) == pytest.approx(4.0 - 2.0, abs=1e-12)


def test_adjustment_coefficient_nets_out_drift():
    drifted = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.25)
    assert adjustment_coefficient(drifted, PREMIUM + 0.25) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_adjustment_coefficient_requires_net_profit():
    with pytest.raises(ValueError, match="net profit"):
        adjustment_coefficient(CP, 1.0)  # c = lam/eta exactly: no safety loading


def test_ruin_probability_at_zero_reserve():
    config = SimulationConfig(seed=17, n_paths=100_000)
    est = ruin_probability(CP, PREMIUM, 0.0, config)
    psi0 = CP.lam / (PREMIUM * CP.eta)
    assert abs(est.psi_hat - psi0) <= 2.0 * est.ci_half_width


def test_ruin_probability_matches_classical_formula():
    # psi(u) = (lam/(c eta)) exp(-R u) for exponential jumps.
    config = SimulationConfig(seed=18, n_paths=100_000)
    R = 1.0 / 3.0
    for u in (1.0, 3.0, 6.0):
        est = ruin_probability(CP, PREMIUM, u, config)
        exact = (2.0 / 3.0) * math.exp(-R * u)
        assert abs(est.psi_hat - exact) <= 3.0 * max(est.ci_half_width, 1e-4)
        assert est.bound_ok


def test_ruin_probability_is_deterministic():
    config = SimulationConfig(seed=23, n_paths=20_000)
    a = ruin_probability(CP, PREMIUM, 2.0, config)
    b = ruin_probability(CP, PREMIUM, 2.0, config)
    assert a.psi_hat == b.psi_hat


def test_lundberg_bound_holds():
    config = SimulationConfig(seed=19, n_paths=100_000)
    for u in (0.0, 3.0, 9.0, 15.0):
        est = ruin_probability(CP, PREMIUM, u, config)
        assert est.psi_hat <= est.lundberg_bound + est.ci_half_width


def test_var_inf_bound():
    config = SimulationConfig(seed=20, n_paths=100_000)
    var_est, bound, ok = var_inf_bound_check(CP, PREMIUM, 0.05, config)
    assert ok
    assert bound == pytest.approx(-math.log(0.05) * 3.0, rel=1e-12)


def test_var_inf_monotone_in_beta():
    # A smaller beta asks for a deeper quantile of the running infimum.
    config = SimulationConfig(seed=21, n_paths=50_000)
    v_small, _, _ = var_inf_bound_check(CP, PREMIUM, 0.02, config)
    v_large, _, _ = var_inf_bound_check(CP, PREMIUM, 0.2, config)
    assert v_small >= v_large


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validation_report_schema_and_pass():
    config = SimulationConfig(seed=0, n_paths=50_000)
    checks = validation_report(config, beta=0.05)
    assert len(checks) >= 8
    for c in checks:
        assert set(c) == {"check_name", "analytic", "estimate", "ci", "pass"}
    assert all(c["pass"] for c in checks)


def test_validation_report_deterministic():
    config = SimulationConfig(seed=2, n_paths=20_000)
    a = validation_report(config, beta=0.05)
    b = validation_report(config, beta=0.05)
    assert a == b


def test_validation_report_ruin_entries_match_ruin_probability():
    config = SimulationConfig(seed=5, n_paths=20_000)
    checks = {c["check_name"]: c for c in validation_report(config, beta=0.05)}
    est = ruin_probability(CP, PREMIUM, 0.0, config)
    assert checks["ruin_probability_at_zero"]["estimate"] == est.psi_hat
    assert checks["ruin_probability_at_zero"]["ci"] == est.ci_half_width
    for u in (3.0, 9.0):
        est = ruin_probability(CP, PREMIUM, u, config)
        entry = checks[f"lundberg_bound_u{u:g}"]
        assert (entry["analytic"], entry["estimate"], entry["ci"], entry["pass"]) == (
            est.lundberg_bound, est.psi_hat, est.ci_half_width, est.bound_ok)


def test_validation_report_var_entry_uses_the_shared_ruin_paths():
    config = SimulationConfig(seed=5, n_paths=20_000)
    beta = 0.05
    checks = {c["check_name"]: c for c in validation_report(config, beta=beta)}
    R = adjustment_coefficient(CP, PREMIUM)
    var_est, bound, ok = var_inf_bound_check(CP, PREMIUM, beta, config, horizon=max(50.0, 30.0 / R))
    entry = checks["var_inf_bound"]
    assert (entry["analytic"], entry["estimate"], entry["pass"]) == (bound, var_est, ok)
