"""The nested G10/K21 rule and the level-batched panel driver of ``levyrisk._quad``."""
import math

import numpy as np
import pytest

from levyrisk import _quad
from levyrisk._quad import _GAP, _KRONROD, _U, adaptive_simpson
from levyrisk.errors import QuadratureBudgetError

U, KRONROD, GAUSS = _U, _KRONROD, _KRONROD - _GAP


def test_rule_nodes_ascend_in_the_unit_interval():
    assert len(U) == len(KRONROD) == len(GAUSS) == 21
    assert 0.0 < U[0] and U[-1] < 1.0 and np.all(np.diff(U) > 0)


def test_kronrod_weights_sum_to_one():
    assert KRONROD.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(KRONROD > 0)


def test_gauss_nodes_are_nested_legendre_nodes():
    x, w = np.polynomial.legendre.leggauss(10)
    nested = GAUSS != 0.0
    assert nested.sum() == 10
    assert np.allclose(U[nested], (x + 1.0) / 2.0, rtol=0, atol=1e-15)
    assert np.allclose(GAUSS[nested], w / 2.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("degree", range(32))
def test_exact_degrees(degree):
    exact = 1.0 / (degree + 1)
    assert abs(KRONROD @ U ** degree - exact) <= 1e-15
    if degree <= 19:
        assert abs(GAUSS @ U ** degree - exact) <= 1e-15
    else:
        # The error estimate |K21 - G10| sees degree 20 and above.
        assert abs(GAUSS @ U ** degree - exact) > 1e-13


def test_segments_start_as_six_panels_evaluated_left_to_right():
    calls = []

    def f(t):
        calls.append(t)
        return 3.0 * t * t

    assert adaptive_simpson(f, 0.0, 2.0, None, breakpoints=[0.5]) == pytest.approx(8.0, rel=1e-15)
    # u**2 substitution keeps a polynomial a polynomial, so no panel halves:
    # the starting panels of both segments are one call.
    assert len(calls) == 1
    ts = calls[0]
    assert ts.shape == (2 * 6 * 21,)
    assert np.all(np.diff(ts) > 0)
    assert 0.0 < ts[0] and ts[125] < 0.5 < ts[126] and ts[-1] < 2.0


def test_each_level_of_halving_is_one_call():
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(-t) * t ** 0.3

    value = adaptive_simpson(f, 0.0, 2.0, 1e-13, breakpoints=[0.5])
    assert value == pytest.approx(0.71108574607130133, rel=1e-13)
    sizes = [t.size for t in calls]
    # Every call after the first evaluates both halves of each pending panel.
    assert len(sizes) > 1 and sizes[0] == 252 and all(n % 42 == 0 for n in sizes[1:])
    assert all(np.all(np.diff(t) > 0) for t in calls)
    assert adaptive_simpson(f, 0.0, 2.0, 1e-13, breakpoints=[0.5]) == value


def test_a_range_without_segments_integrates_to_zero():
    # The caller's ends can meet, or cross by round-off; either range is empty.
    for a, b in ((1.0, 1.0), (1.0, 1.0 - 1e-15)):
        assert adaptive_simpson(np.sqrt, a, b, None) == 0.0
        pair = adaptive_simpson(lambda t: np.array([t, t]), a, b, None, breakpoints=[a])
        assert pair.shape == (2,) and not pair.any()


def test_float_list_and_array_integrands_agree_exactly():
    # An integrand of shape (N,) and a list or array of shape (1, N) of the
    # same values give the same result; k rows are integrated component-wise.
    def g(t):
        return np.exp(-t) * t ** 0.3

    args = (0.0, 2.0, 1e-13)
    as_float = adaptive_simpson(g, *args, breakpoints=[0.5])
    as_list = adaptive_simpson(lambda t: [g(t)], *args, breakpoints=[0.5])
    as_array = adaptive_simpson(lambda t: np.array([g(t)]), *args, breakpoints=[0.5])
    assert as_list.shape == as_array.shape == (1,)
    assert as_float == as_list[0] == as_array[0]
    pair_list = adaptive_simpson(lambda t: [g(t), np.cos(t)], *args)
    pair_array = adaptive_simpson(lambda t: np.array([g(t), np.cos(t)]), *args)
    assert np.array_equal(pair_list, pair_array)
    assert pair_array[1] == pytest.approx(math.sin(2.0), rel=1e-13)


def test_budget_error_carries_partial(monkeypatch):
    # Under t = u^2, t**0.3 is u**0.6: not a polynomial, so 1e-30 is out of reach.
    monkeypatch.setattr(_quad, "MAX_EVALS", 500)
    with pytest.raises(QuadratureBudgetError) as exc_info:
        adaptive_simpson(lambda t: np.array([t ** 0.3, np.ones_like(t)]), 0.0, 1.0, 1e-30)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial == pytest.approx([1.0 / 1.3, 1.0], rel=1e-8)


def test_budget_below_one_panel_has_no_partial(monkeypatch):
    monkeypatch.setattr(_quad, "MAX_EVALS", 20)
    with pytest.raises(QuadratureBudgetError) as exc_info:
        adaptive_simpson(np.sqrt, 0.0, 1.0, None)
    assert exc_info.value.partial is None
