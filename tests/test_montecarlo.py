import math
import tracemalloc

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
from levyrisk.evar import solve_stationary
from levyrisk import montecarlo
from levyrisk.montecarlo import _EmpiricalExponent
from oracles import path_infima_reference

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
    for dt in (0.0, math.inf):  # inf gave NaN increments
        with pytest.raises(ValueError, match="dt must be a positive finite real"):
            sample_increments(ALL_KINDS[0], dt, 10, seed=0)


def test_simulation_config_validation():
    # One path has no standard error: n_paths = 1 is rejected.
    for n_paths in (1, 0, -1):
        with pytest.raises(ValueError, match="n_paths"):
            SimulationConfig(seed=0, n_paths=n_paths)
    assert SimulationConfig(seed=0, n_paths=2).n_paths == 2
    with pytest.raises(ValueError, match="seed"):
        SimulationConfig(seed=-1)


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
    with pytest.raises(ValueError, match="^t must be a positive finite real, got 0.0"):
        empirical_evar(BrownianWithDrift(0.1, 1.0), 0.0, 0.05, config)


EMPIRICAL_TARGETS = [
    GammaSubordinator(a=2.0, b=3.0, mu=0.1),
    AlphaStableSubordinator(alpha=0.5, mu=0.0),
    # lam*t = 5 leaves e^-5 of the paths claim-free, so the root is interior.
    CompoundPoissonExp(lam=5.0, eta=1.0, mu=0.0),
    FactorCombination([BrownianWithDrift(0.1, 1.0), GammaSubordinator(1.0, 2.0)], [1.0, 0.5]),
]


def _brute_force_plug_in(x, beta):
    """Minimum of (ln mean exp(-s x) - ln beta)/s on a log grid, refined once."""
    def objective(s):
        z = -s * x
        shift = z.max()
        return (shift + math.log(np.exp(z - shift).mean()) - math.log(beta)) / s

    grid = np.geomspace(1e-3, 1e3, 2001)
    i = int(np.argmin([objective(s) for s in grid]))
    fine = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 2001)
    return min(objective(s) for s in fine)


@pytest.mark.parametrize("target", EMPIRICAL_TARGETS,
                         ids=["gamma", "stable", "cp", "brownian+gamma"])
def test_empirical_evar_matches_brute_force_minimum(target):
    config = SimulationConfig(seed=31, n_paths=5_000)
    estimate = empirical_evar(target, 1.0, 0.05, config)
    x = sample_increments(target, 1.0, config.n_paths, config.seed)
    brute = _brute_force_plug_in(x, 0.05)
    scale = max(1.0, abs(brute))
    # The solve finds the infimum, so it lies at or below every grid value.
    assert estimate <= brute + 1e-12 * scale
    assert estimate >= brute - 1e-9 * scale


def test_empirical_evar_work(monkeypatch):
    calls = []
    original = _EmpiricalExponent.phi_gap

    def counted(self, s):
        calls.append(s)
        return original(self, s)

    monkeypatch.setattr(_EmpiricalExponent, "phi_gap", counted)
    for target in EMPIRICAL_TARGETS:
        calls.clear()
        empirical_evar(target, 1.0, 0.05, SimulationConfig(seed=31, n_paths=5_000))
        assert 1 <= len(calls) <= 8, target


@pytest.mark.parametrize("factor", ALL_KINDS, ids=lambda f: f.kind)
def test_empirical_evar_below_one_over_n_is_the_minimum(factor):
    # At beta < 1/N the plug-in gap saturates at ln(N / #ties) <= ln N <
    # -ln(beta), so the infimum is the s -> inf limit -min X, decided with no
    # evaluation.
    n = 1_000
    config = SimulationConfig(seed=4, n_paths=n)
    x = sample_increments(factor, 1.0, n, seed=config.seed)
    plug_in = FactorCombination.single(_EmpiricalExponent(x))
    for beta in (0.5 / n, 1e-300):
        assert empirical_evar(factor, 1.0, beta, config) == -x.min()
        assert solve_stationary(plug_in, 1.0, beta) == (math.inf, 0, 0.0)


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


@pytest.mark.parametrize("mu", [0.0, 0.25])
@pytest.mark.parametrize("eta", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_adjustment_coefficient_to_a_few_ulps(lam, eta, mu):
    cp = CompoundPoissonExp(lam=lam, eta=eta, mu=mu)
    # Loadings from just above the net-profit limit (R -> 0+) to very large
    # premiums (R -> eta-).
    for loading in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12):
        premium = mu + lam / eta * (1.0 + loading)
        c_eff = premium - mu
        R = adjustment_coefficient(cp, premium)
        # eta - lam/c is exact but for the rounding of lam/c, an ulp of eta,
        # which is many ulps of R as R -> 0+.
        assert abs(R - (eta - lam / c_eff)) <= 4 * math.ulp(eta), loading


def test_adjustment_coefficient_at_extreme_loadings():
    # The root lies anywhere in (0, eta): from eta*1e-15 just above the
    # net-profit limit to within a few ulps of eta for a huge premium.
    cp = CompoundPoissonExp(lam=1.0, eta=1.0, mu=0.0)
    for loading in (1e-15, 1e-13, 1e13, 1e15, 1e300):
        premium = 1.0 + loading
        R = adjustment_coefficient(cp, premium)
        assert 0.0 < R <= 1.0
        assert abs(R - (1.0 - 1.0 / premium)) <= 4 * math.ulp(1.0), loading


def test_adjustment_coefficient_requires_net_profit():
    with pytest.raises(ValueError, match="net profit"):
        adjustment_coefficient(CP, 1.0)  # c = lam/eta exactly: no safety loading


# (lam, eta, mu, premium, horizon); the last horizon is so short that every
# count is 0 and no jump is drawn.
RUIN_SETS = [
    (1.0, 1.0, 0.0, 1.5, 90.0),
    (2.0, 0.5, 0.3, 5.0, 20.0),
    (0.3, 3.0, -0.2, 0.5, 200.0),
    (1.0, 1.0, 0.0, 1.5, 1e-9),
]


@pytest.mark.parametrize("n_paths", [1, 7, 10_000, 25_000])
@pytest.mark.parametrize("lam, eta, mu, premium, horizon", RUIN_SETS)
def test_path_infima_equal_the_whole_block_reference(lam, eta, mu, premium, horizon, n_paths):
    cp = CompoundPoissonExp(lam=lam, eta=eta, mu=mu)
    got = montecarlo._path_infima(cp, premium, horizon, n_paths, 11)
    assert np.array_equal(got, path_infima_reference(lam, eta, mu, premium, horizon, n_paths, 11))


@pytest.mark.parametrize("panel", [1, 333])
def test_path_infima_do_not_depend_on_the_panel_rows(panel):
    # A run of one 10k-path block and a part-block (panel) of further rows.
    # Each block draws from its own substream, so the first block is a whole
    # 10k-path run whatever rows follow it, and the panel's rows are the
    # reference's.
    n = 10_000 + panel
    got = montecarlo._path_infima(CP, PREMIUM, 90.0, n, 4)
    assert np.array_equal(got[:10_000], montecarlo._path_infima(CP, PREMIUM, 90.0, 10_000, 4))
    assert np.array_equal(got, path_infima_reference(1.0, 1.0, 0.0, PREMIUM, 90.0, n, 4))


def test_ruin_path_memory_is_one_block():
    # One block's counts and sort order and its one buffer of 2 * room floats,
    # room being the size of its largest group of equal jump counts (~0.4k x
    # ~90 floats, so 0.6 MB), beside the 0.8 MB output; it does not grow with
    # the number of blocks.  The traced peak reads 1.6 MB.
    tracemalloc.start()
    try:
        ruin_probability(CP, PREMIUM, 0.0, SimulationConfig(seed=3, n_paths=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _ruin_law_failures(horizon):
    """The bounds that simulated ruin paths to ``horizon`` break, against the
    exact psi(u) = (lam/(c eta)) e^(-R u) of exponential claims (Asmussen and
    Albrecher, Ruin Probabilities, 2010) and its VaR ln(psi(0)/beta)/R.

    20 fixed seeds of 20k paths: the z-scores of psi_hat(u) at u = 0, 3 and 9
    must average within 1 (4.5 standard errors of a 20-seed mean) and stay
    within 4 each, and the VaR_0.05 estimates (sd ~0.09 per seed) must average
    within 0.1 of the exact VaR.  Given ruin, the deficit -inf is exactly
    exponential(R), so the ~270k pooled deficits of the ruined paths must pass
    a Kolmogorov-Smirnov test against it: sqrt(n) * D <= 1.95, the 0.1% point
    of Kolmogorov's law.
    """
    n, R, psi0, beta = 20_000, 1.0 / 3.0, 2.0 / 3.0, 0.05
    z, var, deficits = [], [], []
    for seed in range(20):
        infima = montecarlo._path_infima(CP, PREMIUM, horizon, n, seed)
        for u in (0.0, 3.0, 9.0):
            exact = psi0 * math.exp(-R * u)
            z.append(((infima < -u).mean() - exact) / math.sqrt(exact * (1.0 - exact) / n))
        var.append(montecarlo._var_inf_estimate(infima, beta, R)[0])
        deficits.append(-infima[infima < 0.0])
    mean_z = np.reshape(z, (20, 3)).mean(axis=0)
    var_error = np.mean(var) - math.log(psi0 / beta) / R
    cdf = -np.expm1(-R * np.sort(np.concatenate(deficits)))
    m = cdf.size
    ks = math.sqrt(m) * max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
    failures = []
    if np.any(np.abs(mean_z) > 1.0):
        failures.append(f"mean z at u = 0, 3, 9: {mean_z}")
    if np.max(np.abs(z)) > 4.0:
        failures.append(f"max |z| = {np.max(np.abs(z)):.3g}")
    if abs(var_error) > 0.1:
        failures.append(f"mean VaR off the exact value by {var_error:.3g}")
    if ks > 1.95:
        failures.append(f"deficits given ruin: KS sqrt(n) D = {ks:.3g}")
    return failures


def test_ruin_paths_match_the_exact_ruin_probability():
    assert _ruin_law_failures(montecarlo._ruin_horizon(1.0 / 3.0)) == []


def test_exact_ruin_check_rejects_a_truncated_horizon():
    # Paths to T = 20 instead of 90 miss the later ruins: mean z ~ -3 to -5.5,
    # and the deficits read KS sqrt(n) D ~ 9.7.
    assert len(_ruin_law_failures(20.0)) == 4


def _unnormalised_block_infima(rng, cp, c_eff, horizon, out):
    """The ruin sampler with claim partial sums (S / eta) * V_(i), missing
    the division by V_(k): every path's claims fall short by V_(k)."""
    counts = rng.poisson(cp.lam * horizon, out.size)
    reach = c_eff * horizon
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        times, claims = np.sort(rng.random((2, rows.size, k)), axis=2)
        claims *= (rng.standard_gamma(k, rows.size) / (cp.eta * reach))[:, None]
        out[rows] = np.minimum(0.0, reach * (times - claims).min(axis=1))


def test_exact_ruin_check_rejects_unnormalised_claim_sums(monkeypatch):
    monkeypatch.setattr(montecarlo, "_block_infima", _unnormalised_block_infima)
    failures = _ruin_law_failures(montecarlo._ruin_horizon(1.0 / 3.0))
    assert any(f.startswith("deficits given ruin") for f in failures), failures


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
    var_est, bound, ok = var_inf_bound_check(CP, PREMIUM, beta, config)
    entry = checks["var_inf_bound"]
    assert (entry["analytic"], entry["estimate"], entry["pass"]) == (bound, var_est, ok)
