"""Adaptive Gauss-Kronrod quadrature under the substitution t = a + (b - a) u**2.

Near t = 0 the EVaR integrands behave like sqrt(t) (Brownian) or t**(1/alpha)
(stable), with an unbounded derivative.  On each segment [a, b] between
breakpoints, t = a + (b - a) u**2 makes them smooth in u on [0, 1], and nested
G10/K21 panels integrate in u: the 21-node Kronrod rule contains the 10-node
Gauss rule, so one set of 21 evaluations gives the panel's value (K21) and its
error estimate |K21 - G10| (QUADPACK: Piessens, de Doncker-Kapenga, Ueberhuber
and Kahaner, 1983).  Each segment starts as three panels, u in [0, 1/3],
[1/3, 2/3] and [2/3, 1]: with fewer, whether a starting panel met the
tolerance depended on the parameters, so the cost jumped with them.  A panel
is accepted, as its K21 value, when its error estimate fits its share of
``tol`` (tol / #segments times its width in u); otherwise both halves are
evaluated and examined, left to right, so the result is deterministic.  There
is no depth limit: halving stops when the tolerance is met or the budget runs
out (:class:`QuadratureBudgetError`), so accuracy is never lost silently.

The integrand is called once per node with a float t and may return a float,
a sequence of floats or a numpy array.  A panel collects its 21 values in one
array and takes K21 and K21 - G10 as two dot products with the weights scaled
by the panel's u, so the work per node outside ``f`` is one list entry.

The routine keeps the name ``adaptive_simpson`` because ``bench/tracing.py``
wraps it by that name; a rename belongs in the same change as the tracer's.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureBudgetError

__all__ = ["adaptive_simpson"]

NODES = 21
DEFAULT_REL_TOL = 1e-10

# The 21-point Kronrod rule on [-1, 1], nonnegative half: abscissae, largest
# first, whose entries 1, 3, 5, 7 and 9 are the 10-point Gauss nodes; the
# Kronrod weights; and the Gauss weights of those five nodes.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _rule_on_unit_interval():
    """Arrays of the nodes u, ascending on [0, 1], their Kronrod weights and
    their Kronrod minus Gauss weights."""
    half = [(x, wk, wk - (_WG[k // 2] if k % 2 else 0.0))
            for k, (x, wk) in enumerate(zip(_XK, _WK))]
    nodes = [(-x, wk, dw) for x, wk, dw in half] + [(x, wk, dw) for x, wk, dw in half[-2::-1]]
    return (np.array([(1.0 + x) / 2.0 for x, _, _ in nodes]),
            np.array([wk / 2.0 for _, wk, _ in nodes]),
            np.array([dw / 2.0 for _, _, dw in nodes]))


_U, _KRONROD, _GAP = _rule_on_unit_interval()


def _norm(x):
    return float(np.max(np.abs(x)))


def adaptive_simpson(f, a, b, tol, breakpoints=None, max_evals=200_000):
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``f`` is called once per node with a float t in (a, b) and may return a
    float, a sequence of floats or a numpy array (integrated component-wise,
    error in the max norm); a float and a one-element sequence or array of
    the same value give the same result.  ``breakpoints`` inside [a, b]
    split it into segments.  With ``tol=None`` the tolerance is relative,
    1e-10 * (1 + max-norm of the summed |panels| of the first pass).  Raises
    :class:`QuadratureBudgetError` when ``max_evals`` evaluations do not
    suffice; its ``partial`` is the sum of the accepted panels plus the K21
    value of every unresolved one.
    """
    pts = sorted({float(a), float(b)} | {float(p) for p in breakpoints or ()})
    pts = [p for p in pts if a <= p <= b]
    evals = 0
    accepted = 0.0
    pending = []  # (t0, width, u0, u1, K21 value, |K21 - G10|)

    def panel(t0, width, u0, u1):
        nonlocal evals
        if evals + NODES > max_evals:
            raise QuadratureBudgetError(
                f"quadrature budget of {max_evals} evaluations exceeded on [{a}, {b}]",
                partial=sum((p[4] for p in pending), accepted) if evals else None,
            )
        evals += NODES
        h = u1 - u0
        u = u0 + h * _U
        y = np.asarray([f(t) for t in (t0 + width * u * u).tolist()], dtype=float)
        u *= 2.0 * width * h
        return (t0, width, u0, u1, (_KRONROD * u) @ y, _norm((_GAP * u) @ y))

    for t0, t1 in zip(pts[:-1], pts[1:]):
        for u0, u1 in ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)):
            pending.append(panel(t0, t1 - t0, u0, u1))
    if tol is None:
        tol = DEFAULT_REL_TOL * (1.0 + _norm(sum(abs(p[4]) for p in pending)))
    seg_tol = tol / (len(pts) - 1)
    pending.reverse()  # leftmost panel last, so it is resolved first
    while pending:
        t0, width, u0, u1, value, error = pending[-1]
        if error <= seg_tol * (u1 - u0):
            accepted = accepted + value
            pending.pop()
            continue
        um = 0.5 * (u0 + u1)
        left = panel(t0, width, u0, um)
        right = panel(t0, width, um, u1)
        pending[-1:] = [right, left]
    return accepted
