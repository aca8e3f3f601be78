"""The finiteness contract of the library's results.

The paper's risk measures are finite real numbers on the processes whose
Laplace transform exists, so ``evar``, ``euler_contributions`` and ``allocate``
return finite results or raise a ``LevyRiskError``: a result beyond float
range is a ``DomainError``, never an inf or a NaN.  The strategy reaches the
numerical extremes: drifts of +-1e300 and +-1e308, horizons down to 1e-300
and beta down to 1e-300.  RuntimeWarnings are errors (pyproject.toml), so a
numpy warning on the way to the check fails here too.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from levyrisk import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    EvarQuery,
    FactorPortfolio,
    GammaSubordinator,
    allocate,
    euler_contributions,
    evar,
)
from levyrisk.errors import LevyRiskError

POSITIVE = st.floats(1e-6, 1e6)
DRIFT = st.one_of(st.sampled_from([0.0, 1e300, -1e300, 1e308, -1e308]), st.floats(-1e6, 1e6))
HORIZON = st.one_of(st.just(0.0), st.floats(1e-300, 1e6))
BETA = st.floats(1e-300, 1.0, exclude_max=True)


@st.composite
def factors(draw):
    """One factor of any kind, its parameters in 1e-6..1e6 (alpha in (0, 1))."""
    kind, mu = draw(st.sampled_from("bgsc")), draw(DRIFT)
    if kind == "b":
        return BrownianWithDrift(mu, draw(POSITIVE))
    if kind == "g":
        return GammaSubordinator(draw(POSITIVE), draw(POSITIVE), mu)
    if kind == "s":
        return AlphaStableSubordinator(draw(st.floats(1e-6, 1.0 - 1e-6)), mu)
    return CompoundPoissonExp(draw(POSITIVE), draw(POSITIVE), mu)


@st.composite
def portfolios(draw):
    """1-3 factors and 1-3 departments, exposures and premiums in 1e-6..1e6,
    with a horizon T from HORIZON (T = 0 is replaced by 1e-300)."""
    kinds = draw(st.lists(factors(), min_size=1, max_size=3))
    n = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(POSITIVE, min_size=len(kinds), max_size=len(kinds)),
                      min_size=n, max_size=n))
    premiums = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    return FactorPortfolio(A, kinds, premiums, draw(HORIZON) or 1e-300, draw(BETA))


def finite_or_error(call):
    """The arrays ``call`` returns, all finite, or None where it raised a LevyRiskError."""
    try:
        values = call()
    except LevyRiskError:
        return None
    for value in values:
        assert np.isfinite(value).all(), values
    return values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(portfolio=portfolios(), t=HORIZON)
def test_results_are_finite_or_a_levyrisk_error(portfolio, t):
    finite_or_error(lambda: [evar(EvarQuery(portfolio.combination(None), t,
                                            portfolio.beta)).value])
    if t > 0.0:  # euler_contributions rejects t = 0 with a ValueError, as an argument
        finite_or_error(lambda: [euler_contributions(portfolio, t)])
    finite_or_error(lambda: [(r := allocate(portfolio)).L, r.K_curve, r.total_cevar,
                             r.full_allocation_gap])
