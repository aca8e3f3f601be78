"""Exact relations of ``allocate`` that need no oracle.

Each relation maps a portfolio to one whose stationary curve is the same in
x = ln s, or the same shifted by a constant, so the quadrature meets the same
head segments and the same nodes in u (only the tail beyond s*(T) / EPS,
about EPS of the integral, may end at the same s = 1e300 instead): the two
results agree to round-off and to the stationary solve's tolerance, far
inside the quadrature's 1e-10.

* Scaling in beta.  t * gap(s*) = -ln(beta) makes EVaR depend on (t, beta)
  only through t / b with b = -ln(beta): EVaR(t; beta) = (b / b0) *
  EVaR(t * b0 / b; beta0).  With T and the weight's knot times scaled by
  r = b0 / b (and its values by 1 / r, so that it stays normalised), the
  substitution t' = r t gives L' = r L and a total of r times the total.
* Positive homogeneity.  Scaling the exposures by lam scales every D_j, and
  s*(lam D) = s*(D) / lam, so EVaR and each K_t^i scale by lam; with the
  premiums scaled too, L and the total scale by lam.
* Translation by drift.  Adding dmu to factor j's drift leaves gap and
  s^2 phi'' as they are, so the curve and the nodes do not move, and it adds
  -t * dmu * a_ij to each K_t^i: L moves by -dmu * A[:, j] * integral(t
  omega) and the total by -dmu * D_j times the same.  The points s* may
  still differ in their last bits (1 of 600 random curves did), so they are
  not compared.
* The Euler allocation is a gradient.  With department i's exposures and
  premium scaled by u_i, L^i is the derivative of the total in u_i at
  u = (1, ..., 1); a central difference with steps 1 +- h, h = 1e-4, is
  within ~h^2 of it.  Unlike ``full_allocation_gap``, which only sums L, this
  catches capital moved between departments.

The parameters stay within 1e-2..1e2, so s * D_j stays in float range up to
s = 1e300.  With exposures near 1e8 it does not: the solve can then find a
false root near 1e300, and homogeneity breaks (the expected failure below).
The two scaling tests add about 0.6 s to the suite together, the drift
translation about 0.4 s and the gradient test about 1 s.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    FactorPortfolio,
    GammaSubordinator,
    WeightFunction,
    allocate,
)

POSITIVE = st.floats(1e-2, 1e2)
BETA = st.floats(1e-6, 0.5)
REL_TOL = 1e-11  # of max(|total|, max|L|); up to 1e-12 over 4000 random cases in 1e-3..1e3,
# and up to 3.3e-15 over 600 drift translations
GRADIENT_TOL = 1e-8  # of max|L|; up to 3.2e-10 over 200 random portfolios


@st.composite
def factors(draw):
    kind, mu = draw(st.sampled_from("bgsc")), draw(st.floats(-10.0, 10.0))
    if kind == "b":
        return BrownianWithDrift(mu, draw(POSITIVE))
    if kind == "g":
        return GammaSubordinator(draw(POSITIVE), draw(POSITIVE), mu)
    if kind == "s":
        return AlphaStableSubordinator(draw(st.floats(0.1, 0.9)), mu)
    return CompoundPoissonExp(draw(POSITIVE), draw(POSITIVE), mu)


@st.composite
def portfolios(draw, min_departments=1):
    """1-3 factors of any kind, ``min_departments``-3 departments, and a
    uniform weight or a table of 3-4 knots."""
    kinds = draw(st.lists(factors(), min_size=1, max_size=3))
    n = draw(st.integers(min_departments, 3))
    A = draw(st.lists(st.lists(POSITIVE, min_size=len(kinds), max_size=len(kinds)),
                      min_size=n, max_size=n))
    premiums = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    T = draw(POSITIVE)
    inner = sorted(set(draw(st.lists(st.floats(0.05, 0.95), min_size=0, max_size=2))))
    if inner:
        times = [0.0] + [u * T for u in inner] + [T]
        weight = WeightFunction.table([(t, draw(st.floats(0.1, 1.0))) for t in times]).normalized(T)
    else:
        weight = WeightFunction.uniform(T)
    return FactorPortfolio(A, kinds, premiums, T, draw(BETA), weight=weight)


def assert_scaled(report, scaled, factor):
    scale = factor * max(abs(report.total_cevar), np.abs(report.L).max())
    assert abs(scaled.total_cevar - factor * report.total_cevar) <= REL_TOL * scale
    assert np.abs(scaled.L - factor * report.L).max() <= REL_TOL * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(portfolio=portfolios(), beta0=BETA)
def test_allocate_scales_with_minus_log_beta(portfolio, beta0):
    r = np.log(beta0) / np.log(portfolio.beta)
    T0 = portfolio.T * r
    weight = WeightFunction.table([(t * r, w / r) for t, w in portfolio.weight.knots]).normalized(T0)
    scaled = FactorPortfolio(portfolio.A, portfolio.factors, portfolio.premiums, T0, beta0,
                             weight=weight)
    assert_scaled(allocate(portfolio), allocate(scaled), r)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(portfolio=portfolios(), lam=POSITIVE)
def test_allocate_is_positively_homogeneous(portfolio, lam):
    scaled = FactorPortfolio(portfolio.A * lam, portfolio.factors, portfolio.premiums * lam,
                             portfolio.T, portfolio.beta, weight=portfolio.weight)
    assert_scaled(allocate(portfolio), allocate(scaled), lam)


# Exposures near 1e10 leave the solver's absolute range of s: the slope -1/F'
# of a curve point overflows in the K-curve's seeds, which the suite turns into
# an error.  Solving in the position's own scale (ROADMAP item 24) should give
# 2^33 times the total of the copy scaled by 2^-33, ~5.0166e10; ignoring the
# overflow instead gives a total of 0.0, which this test also refuses.
@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="the solver's range of s is absolute, not the position's")
def test_a_position_far_from_unit_scale_is_homogeneous():
    factor = CompoundPoissonExp(1.634073366424979e-05, 0.39286635859003083, -6.537888161856166)

    def total(exposure):
        return allocate(FactorPortfolio([[exposure]], [factor], [0.0], 2.0694434063286438,
                                        1.0063255520039812e-06)).total_cevar

    scaled = total(7415575271.9570465 * 2.0 ** -33)
    assert 2.0 ** 33 * scaled == pytest.approx(5.0166e10, rel=1e-4)
    assert total(7415575271.9570465) == pytest.approx(2.0 ** 33 * scaled, rel=REL_TOL)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(portfolio=portfolios(), data=st.data())
def test_allocate_translates_with_a_factor_drift(portfolio, data):
    j = data.draw(st.integers(0, len(portfolio.factors) - 1))
    shift = data.draw(st.floats(-10.0, 10.0))
    factors = list(portfolio.factors)
    factors[j] = dataclasses.replace(factors[j], mu=factors[j].mu + shift)
    moved = allocate(FactorPortfolio(portfolio.A, factors, portfolio.premiums, portfolio.T,
                                     portfolio.beta, weight=portfolio.weight))
    report = allocate(portfolio)
    step = -shift * portfolio.weight.time_moment()
    scale = max(abs(report.total_cevar), np.abs(report.L).max(),
                abs(moved.total_cevar), np.abs(moved.L).max())
    assert np.abs(moved.L - (report.L + step * portfolio.A[:, j])).max() <= REL_TOL * scale
    assert abs(moved.total_cevar - (report.total_cevar + step * portfolio.A[:, j].sum())) \
        <= REL_TOL * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(portfolio=portfolios(min_departments=2))
def test_allocation_is_the_gradient_of_the_total(portfolio):
    L, h = allocate(portfolio).L, 1e-4
    for i in range(portfolio.n):
        totals = []
        for u in (1.0 + h, 1.0 - h):
            A, premiums = portfolio.A.copy(), portfolio.premiums.copy()
            A[i] *= u
            premiums[i] *= u
            totals.append(allocate(FactorPortfolio(A, portfolio.factors, premiums, portfolio.T,
                                                   portfolio.beta, weight=portfolio.weight)).total_cevar)
        assert abs((totals[0] - totals[1]) / (2.0 * h) - L[i]) <= GRADIENT_TOL * np.abs(L).max()
