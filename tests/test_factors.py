import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    EvarQuery,
    FactorCombination,
    GammaSubordinator,
    LevyFactor,
    evar,
    factor_from_dict,
    laplace_exponent,
)
from levyrisk.errors import DomainError

ALL_KINDS = [
    BrownianWithDrift(mu=0.3, sigma=1.2),
    GammaSubordinator(a=2.0, b=3.0, mu=0.1),
    AlphaStableSubordinator(alpha=0.6, mu=0.2),
    CompoundPoissonExp(lam=1.5, eta=2.0, mu=0.05),
]


def test_phi_at_zero_is_zero():
    for factor in ALL_KINDS:
        assert laplace_exponent(factor, 0.0) == 0.0


def test_brownian_exponent_matches_transform():
    # E[e^{-sY_t}] = e^{-mu t s + sigma^2 s^2 t / 2}  =>  phi = mu s - sigma^2 s^2/2
    mu, sigma = 0.7, 1.3
    f = BrownianWithDrift(mu=mu, sigma=sigma)
    for s in (0.1, 1.0, 2.5):
        assert laplace_exponent(f, s) == pytest.approx(mu * s - 0.5 * sigma**2 * s**2)


def test_gamma_exponent_value():
    # -ln E[e^{-3 W_1}] for gamma(a=2, b=3) is 2*ln(2); cross-checked by MC.
    f = GammaSubordinator(a=2.0, b=3.0, mu=0.0)
    assert laplace_exponent(f, 3.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_gamma_exponent_matches_monte_carlo():
    f = GammaSubordinator(a=2.0, b=3.0, mu=0.0)
    rng = np.random.default_rng(1234)
    x = rng.gamma(2.0, 1.0 / 3.0, 10**6)
    estimate = -math.log(np.mean(np.exp(-3.0 * x)))
    assert estimate == pytest.approx(2.0 * math.log(2.0), abs=2e-3)


def test_stable_and_poisson_exponent_forms():
    st_f = AlphaStableSubordinator(alpha=0.5, mu=0.4)
    assert laplace_exponent(st_f, 4.0) == pytest.approx(0.4 * 4.0 + 2.0)
    cp = CompoundPoissonExp(lam=2.0, eta=3.0, mu=0.1)
    assert laplace_exponent(cp, 1.0) == pytest.approx(0.1 + 2.0 / 4.0)


def test_mean_rate_and_slope_at_infinity_are_the_closed_forms():
    # Both are read off dphi, at 0 and at inf.
    cases = [
        (BrownianWithDrift(mu=0.3, sigma=1.2), 0.3, -math.inf),
        (GammaSubordinator(a=2.0, b=3.0, mu=-0.1), -0.1 + 2.0 / 3.0, -0.1),
        (AlphaStableSubordinator(alpha=0.6, mu=0.2), math.inf, 0.2),
        (CompoundPoissonExp(lam=1.5, eta=2.0, mu=0.05), 0.05 + 1.5 / 2.0, 0.05),
    ]
    for factor, mean, slope in cases:
        assert factor.mean_rate() == mean, factor.kind
        assert factor.slope_at_infinity() == slope, factor.kind


def test_negative_s_rejected():
    for factor in ALL_KINDS:
        with pytest.raises(DomainError):
            laplace_exponent(factor, -0.1)
        with pytest.raises(DomainError):
            laplace_exponent(factor, -1.0, order=1)


def test_deriv_examples():
    assert laplace_exponent(BrownianWithDrift(mu=1.0, sigma=2.0), 0.0, order=1) == 1.0
    g = GammaSubordinator(a=2.0, b=3.0, mu=0.0)
    assert laplace_exponent(g, 3.0, order=1) == pytest.approx(2.0 / 6.0)


@pytest.mark.parametrize("factor", ALL_KINDS, ids=lambda f: f.kind)
def test_deriv_matches_finite_differences(factor):
    for s in np.geomspace(1e-3, 1e3, 25):
        h = 1e-6 * s
        fd = (factor.phi(s + h) - factor.phi(s - h)) / (2 * h)
        assert laplace_exponent(factor, s, order=1) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("factor", ALL_KINDS, ids=lambda f: f.kind)
def test_second_deriv_matches_finite_differences(factor):
    for s in np.geomspace(1e-2, 1e2, 15):
        h = 1e-4 * s
        fd = (factor.dphi(s + h) - factor.dphi(s - h)) / (2 * h)
        assert laplace_exponent(factor, s, order=2) == pytest.approx(
            fd, rel=1e-5, abs=1e-12
        )
        assert factor.s2d2phi(s) == pytest.approx(s * s * factor.d2phi(s), rel=1e-13)
    # s^2 phi'' stays in float range where phi'' does not; the Brownian kind's
    # -sigma^2 s^2 overflows at s = 1e300 together with its phi_gap.
    if factor.kind != "brownian":
        assert math.isfinite(factor.s2d2phi(1e300))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
)
def test_negative_phi_is_convex(factor, s1, s2, s3):
    # ln E[e^{-s W_1}] = -phi(s) must be convex: chord inequality.
    a, b, c = sorted((s1, s2, s3))
    if a == b or b == c:
        return
    lam = (c - b) / (c - a)
    chord = lam * (-factor.phi(a)) + (1 - lam) * (-factor.phi(c))
    assert -factor.phi(b) <= chord + 1e-12


@pytest.mark.parametrize("factor", ALL_KINDS, ids=lambda f: f.kind)
def test_phi_gap_matches_naive_difference(factor):
    for s in np.geomspace(1e-3, 1e3, 25):
        naive = factor.phi(s) - s * factor.dphi(s)
        assert factor.phi_gap(s) == pytest.approx(naive, rel=1e-9, abs=1e-12)


def test_phi_gap_immune_to_drift_cancellation():
    # At s = 1e50 the naive difference phi - s*phi' is pure rounding noise of
    # the mu*s terms; the gap form must still carry the curved part.
    g = GammaSubordinator(a=2.0, b=1.0, mu=0.3)
    s = 1e50
    expected = 2.0 * (math.log1p(s) - s / (1.0 + s))
    assert g.phi_gap(s) == pytest.approx(expected, rel=1e-12)
    combo = FactorCombination([g, CompoundPoissonExp(lam=1.0, eta=2.0, mu=5.0)],
                              [1.0, 1.0])
    assert combo.phi_gap(s) == pytest.approx(expected + 1.0, rel=1e-12)


@pytest.mark.parametrize("a", [1.0, 2.5])
def test_gamma_phi_gap_to_a_few_ulps(a):
    # Exact reference a*(ln(1+z) - z/(1+z)) in 460-digit decimals, enough for
    # the ~z^2/2 left at z = 1e-200.  The closed form alone cancels to ~1/z^2
    # ulps as z -> 0; the series below z = 1 keeps 4 ulps, and the closed form
    # above it keeps its own rounding, within 8.
    g = GammaSubordinator(a=a, b=1.0)
    zs = np.concatenate([np.geomspace(1e-200, 1e3, 400), np.linspace(0.5, 4.0, 57)])
    for z in zs:
        z = float(z)
        with localcontext() as ctx:
            ctx.prec = 460
            exact = Decimal(a) * ((1 + Decimal(z)).ln() - Decimal(z) / (1 + Decimal(z)))
        ulps = abs(Decimal(g.phi_gap(z)) - exact) / Decimal(math.ulp(float(exact)))
        assert ulps <= (4 if z < 1.0 else 8), z


def assert_kernel_matches_the_float_forms(factor, s):
    gap, curvature = factor.gap_and_s2d2phi(s)
    for name, values in (("phi_gap", gap), ("s2d2phi", curvature), ("dphi", factor.dphi(s))):
        assert values.shape == s.shape
        expected = np.array([getattr(factor, name)(x) for x in s.tolist()])
        assert np.allclose(values, expected, rtol=1e-15, atol=0.0), name


@pytest.mark.parametrize("factor", ALL_KINDS + [GammaSubordinator(a=2.0, b=1e-3, mu=0.1)],
                         ids=lambda f: f"{f.kind}-b={f.b}" if f.kind == "gamma" else f.kind)
def test_array_forms_match_the_float_forms(factor):
    # Along the stationary curve s is an array, taken by gap_and_s2d2phi and
    # dphi.  Across float range (for the Brownian kind, where s^2 stays
    # finite), including the gamma series below s = b and s/b overflowing at
    # b = 1e-3, every entry equals the float forms' value (a RuntimeWarning
    # would fail the suite).
    top = 1e150 if factor.kind == "brownian" else 1e306
    s = np.concatenate([np.geomspace(1e-300, top, 241), np.linspace(1e-3, 4.0, 41)])
    assert_kernel_matches_the_float_forms(factor, s)


@pytest.mark.parametrize("s", [np.geomspace(3.0, 1e306, 50), np.geomspace(1e-300, 2.9, 50),
                               np.array([2.9, 3.0, 1e-9, 1e306, 3.1, 1e-300])],
                         ids=["none-below-b", "all-below-b", "mixed"])
def test_gamma_kernel_takes_each_form_where_it_belongs(s):
    # b = 3: the series below s = b, the closed form from s = b up, and
    # ln(s) - ln(b) where s/b overflows (b = 1e-3); each form alone and mixed.
    assert_kernel_matches_the_float_forms(GammaSubordinator(a=2.0, b=3.0, mu=0.1), s)
    assert_kernel_matches_the_float_forms(GammaSubordinator(a=2.0, b=1e-3), s)


def test_the_default_kernel_is_the_two_methods():
    # A plug-in kind and the Brownian kind inherit (phi_gap(s), s2d2phi(s)); the
    # stable and compound-Poisson kernels give its bits (the gamma phi_gap takes
    # floats only, so its kernel meets the float forms above).
    assert BrownianWithDrift.gap_and_s2d2phi is LevyFactor.gap_and_s2d2phi
    s = np.geomspace(1e-300, 1e306, 97)
    for factor in ALL_KINDS[2:]:
        own, default = factor.gap_and_s2d2phi(s), LevyFactor.gap_and_s2d2phi(factor, s)
        for mine, inherited in zip(own, default):
            np.testing.assert_array_equal(mine, inherited)
    factor = InverseGaussianSubordinator(2.0, 1.5)
    assert factor.gap_and_s2d2phi(0.7) == (factor.phi_gap(0.7), factor.s2d2phi(0.7))


def test_combine_identity_and_zero():
    f = GammaSubordinator(a=1.0, b=2.0, mu=0.3)
    single = FactorCombination([f], [1.0])
    for s in (0.0, 0.5, 4.0):
        assert laplace_exponent(single, s) == laplace_exponent(f, s)
    zero = FactorCombination(ALL_KINDS, [0.0] * len(ALL_KINDS))
    for s in (0.0, 1.0, 10.0):
        assert laplace_exponent(zero, s) == 0.0


def test_combine_two_brownians_adds_variances():
    s1, s2 = 0.8, 1.7
    combo = FactorCombination(
        [BrownianWithDrift(0.0, s1), BrownianWithDrift(0.0, s2)], [1.0, 1.0]
    )
    merged = BrownianWithDrift(0.0, math.hypot(s1, s2))
    for s in (0.1, 1.0, 3.0):
        assert laplace_exponent(combo, s) == pytest.approx(merged.phi(s), rel=1e-14)


def test_combine_deriv_and_scaling():
    combo = FactorCombination(ALL_KINDS, [0.5, 1.0, 0.25, 2.0])
    for s in (0.3, 2.0):
        fd = (combo.phi(s + 1e-7) - combo.phi(s - 1e-7)) / 2e-7
        assert laplace_exponent(combo, s, order=1) == pytest.approx(fd, rel=1e-6)
    lam = 3.0
    scaled = combo.scaled(lam)
    for s in (0.2, 1.1):
        assert scaled.phi(s) == pytest.approx(combo.phi(lam * s), rel=1e-15)


def test_combination_length_mismatch():
    with pytest.raises(ValueError, match="weights"):
        FactorCombination(ALL_KINDS, [1.0, 2.0])


def test_parameter_validation():
    with pytest.raises(ValueError):
        BrownianWithDrift(mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        GammaSubordinator(a=-1.0, b=1.0)
    with pytest.raises(ValueError):
        AlphaStableSubordinator(alpha=1.0)
    with pytest.raises(ValueError):
        CompoundPoissonExp(lam=1.0, eta=0.0)


@pytest.mark.parametrize("build, name", [
    (lambda v: GammaSubordinator(a=v, b=1.0), "a"),
    (lambda v: GammaSubordinator(a=1.0, b=v), "b"),
    (lambda v: CompoundPoissonExp(lam=v, eta=1.0), "lambda"),
    (lambda v: CompoundPoissonExp(lam=1.0, eta=v), "eta"),
], ids=["a", "b", "lambda", "eta"])
def test_infinite_jump_parameter_is_rejected(build, name):
    # An infinite a or lambda left no stationary point; an infinite b or eta
    # gave the EVaR of a zero position.
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        build(math.inf)


def test_each_kind_checks_its_parameters_by_one_rule():
    # mu must be finite, alpha must lie in (0, 1), every other parameter must be
    # positive and finite; with two bad values the kind's own one is named.
    cases = [
        (lambda: BrownianWithDrift(mu=math.nan, sigma=0.0), "sigma must be positive and finite, got 0.0"),
        (lambda: BrownianWithDrift(mu=math.inf, sigma=1.0), "mu must be finite, got inf"),
        (lambda: GammaSubordinator(a=1.0, b=math.nan), "b must be positive and finite, got nan"),
        (lambda: AlphaStableSubordinator(alpha=1.0, mu=math.nan), "alpha must lie in (0, 1), got 1.0"),
        (lambda: AlphaStableSubordinator(alpha=math.nan), "alpha must lie in (0, 1), got nan"),
        (lambda: CompoundPoissonExp(lam=-1.0, eta=1.0), "lambda must be positive and finite, got -1.0"),
        (lambda: CompoundPoissonExp(lam=1.0, eta=1.0, mu=-math.inf), "mu must be finite, got -inf"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc_info:
            build()
        assert str(exc_info.value) == message


@dataclass(frozen=True)
class InverseGaussianSubordinator(LevyFactor):
    """A plug-in kind: phi(s) = delta * (sqrt(gamma^2 + 2s) - gamma)."""

    delta: float
    gamma: float
    label: str = "inverse Gaussian"  # not a number: a plug-in keeps its own fields
    kind = "inverse_gaussian"

    def phi(self, s):
        return self.delta * (math.sqrt(self.gamma ** 2 + 2.0 * s) - self.gamma)

    def dphi(self, s):
        return self.delta / math.sqrt(self.gamma ** 2 + 2.0 * s)

    def d2phi(self, s):
        return -self.delta / (self.gamma ** 2 + 2.0 * s) ** 1.5

    def phi_gap(self, s):
        return self.phi(s) - s * self.dphi(s)


def test_plug_in_kind_constructs_and_gives_an_evar():
    factor = InverseGaussianSubordinator(2.0, 1.5)
    assert factor.label == "inverse Gaussian"
    assert factor.mean_rate() == pytest.approx(2.0 / 1.5) and factor.slope_at_infinity() == 0.0
    t, beta = 1.5, 0.05
    value = evar(EvarQuery(FactorCombination.single(factor), t, beta)).value
    # EVaR is the infimum over s > 0 of (-t*phi(s) - ln(beta)) / s.
    objective = min((-t * factor.phi(s) - math.log(beta)) / s
                    for s in np.geomspace(1e-3, 1e3, 20_001).tolist())
    assert value <= objective and value == pytest.approx(objective, rel=1e-7)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
def test_combination_rejects_a_weight_that_is_not_finite_and_nonnegative(weight):
    # A NaN weight gave evar a silent NaN and cevar a misleading DomainError.
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        FactorCombination([GammaSubordinator(2.0, 3.0)], [weight])


def test_scaling_by_infinity_is_rejected():
    with pytest.raises(ValueError, match="weights must be finite"):
        FactorCombination.single(GammaSubordinator(2.0, 3.0)).scaled(math.inf)


def test_combination_sums_are_left_to_right_sums_of_the_terms():
    combo = FactorCombination(ALL_KINDS, [0.5, 1.0, 0.25, 2.0])
    terms = {
        "phi": lambda f, d, s: f.phi(s * d),
        "dphi": lambda f, d, s: d * f.dphi(s * d),
        "d2phi": lambda f, d, s: d * d * f.d2phi(s * d),
        "phi_gap": lambda f, d, s: f.phi_gap(s * d),
        "s2d2phi": lambda f, d, s: f.s2d2phi(s * d),
    }
    # Over this grid every sum has points where another order rounds differently.
    grid = np.geomspace(1e-3, 1e5, 25)
    for s in grid.tolist():
        for name, term in terms.items():
            expected = reduce(lambda acc, x: acc + x, [term(f, d, s) for f, d in combo.active])
            assert getattr(combo, name)(s) == expected, (name, s)
    # The kernel on an array sums each of its two parts in the same order.
    for k, part in enumerate(combo.gap_and_s2d2phi(grid)):
        expected = reduce(lambda acc, x: acc + x,
                          [f.gap_and_s2d2phi(grid * d)[k] for f, d in combo.active])
        np.testing.assert_array_equal(part, expected)


def test_slopes_are_the_dphi_of_each_active_factor():
    # The stable factor at weight 0 has no row: its phi'(0) is infinite.
    combo = FactorCombination(ALL_KINDS + [AlphaStableSubordinator(0.5)], [0.5, 1.0, 0.25, 2.0, 0.0])
    grid = np.geomspace(1e-3, 1e5, 25)
    for s in grid.tolist():
        assert combo.slopes(s).tolist() == [f.dphi(s * d) for f, d in combo.active], s
    np.testing.assert_array_equal(combo.slopes(grid), [f.dphi(grid * d) for f, d in combo.active])
    assert combo.slopes(grid).shape == (4, grid.size)
    assert combo.slopes(math.inf).tolist() == [f.slope_at_infinity() for f, _ in combo.active]
    # The sums over the rows keep their infinite limits.
    mixed = FactorCombination([AlphaStableSubordinator(0.6, 0.2), BrownianWithDrift(0.3, 1.2)],
                              [0.5, 2.0])
    assert mixed.mean_rate() == math.inf
    assert mixed.slope_at_infinity() == -math.inf


def test_factor_from_dict_round_trip():
    for factor in ALL_KINDS:
        spec = {"kind": factor.kind}
        spec.update(factor.params())
        assert factor_from_dict(spec) == factor
    with pytest.raises(ValueError, match="kind"):
        factor_from_dict({"mu": 0.0})
    with pytest.raises(ValueError, match="unknown"):
        factor_from_dict({"kind": "cauchy"})


def test_laplace_exponent_checks_its_arguments():
    g = GammaSubordinator(a=2.0, b=3.0, mu=0.1)
    for s in (math.inf, math.nan, -1e-300):
        for order in (0, 1, 2):
            with pytest.raises(DomainError):
                laplace_exponent(g, s, order=order)
    for order in (-1, 3):
        with pytest.raises(ValueError, match="order") as exc_info:
            laplace_exponent(g, 1.0, order=order)
        assert not isinstance(exc_info.value, DomainError)
    assert laplace_exponent(g, 2.0, order=0) == g.phi(2.0)


def test_second_derivative_at_zero_needs_a_finite_mean():
    stable = AlphaStableSubordinator(alpha=0.5)
    gamma = GammaSubordinator(a=2.0, b=3.0, mu=0.1)
    for target in (stable, FactorCombination([stable, gamma], [0.5, 1.0])):
        with pytest.raises(DomainError, match="interior"):
            laplace_exponent(target, 0.0, order=2)
        assert laplace_exponent(target, 0.0, order=1) == math.inf
    # Finite-mean positions, and a stable factor with weight 0, have phi''(0).
    assert laplace_exponent(BrownianWithDrift(0.0, 2.0), 0.0, order=2) == -4.0
    assert laplace_exponent(gamma, 0.0, order=2) == pytest.approx(-2.0 / 9.0, rel=1e-15)
    inactive = FactorCombination([stable, gamma], [0.0, 1.0])
    assert laplace_exponent(inactive, 0.0, order=2) == gamma.d2phi(0.0)


def test_zero_weight_factors_are_skipped():
    # A stable factor at weight 0 would be evaluated at s * 0 = 0, where its
    # phi' is infinite (0 * inf = nan) and phi'' divides by zero.
    gamma = GammaSubordinator(a=2.0, b=3.0, mu=0.1)
    comb = FactorCombination([AlphaStableSubordinator(0.5), gamma], [0.0, 1.0])
    alone = FactorCombination.single(gamma)
    assert comb.factors[1] is gamma and comb.weights == (0.0, 1.0)
    assert comb.active == ((gamma, 1.0),)
    for s in (0.0, 0.3, 5.0, 1e6):
        for order in (0, 1, 2):
            assert laplace_exponent(comb, s, order=order) == laplace_exponent(alone, s, order=order)
        assert comb.phi_gap(s) == alone.phi_gap(s)
    assert comb.mean_rate() == gamma.mean_rate()
    assert comb.slope_at_infinity() == gamma.slope_at_infinity()
