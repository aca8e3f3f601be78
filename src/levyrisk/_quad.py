"""Adaptive Gauss-Kronrod quadrature under the substitution x = a + (b - a) u**2.

The one caller, :func:`levyrisk.cevar.horizon_integral`, integrates in
x = ln(s) upward from ln s*(T), and its integrands fall with tau(e^x) as x
grows.  On each segment [a, b] between breakpoints, x = a + (b - a) u**2
packs the nodes toward the left end a, where the integrands are largest, and
nested G10/K21 panels integrate in u: the 21-node Kronrod rule contains the
10-node Gauss rule, so one set of 21 evaluations gives the panel's value (K21)
and its error estimate |K21 - G10| (QUADPACK: Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, 1983).  Each segment starts as PANELS = 6 equal
panels in u.  An integral costs about one integrand call per level, whatever
its nodes, and six panels resolve nearly every integral in its first call:
over seeds 1-20 of the benchmark's allocation workloads, 898 of 910
integrals took one call, against 33 with three panels and 762 with five.
Nodes per integral rose from 159-183 to 213-290, which costs little, since a
node is one array element.  A panel is accepted, as its K21 value, when its
error estimate fits its share of ``tol`` (tol / #segments times its width in
u); otherwise both halves are evaluated.  The caller passes ``tol=None``,
which sets the relative default DEFAULT_REL_TOL; only the tests pass an
absolute ``tol``.  There is no depth limit: halving stops when the
tolerance is met or the budget runs out (:class:`QuadratureBudgetError`), so
accuracy is never lost silently.

The work is batched by level.  The integrand takes a 1-D array of nodes and
returns an array of shape (N,), or (k, N) for k quantities at once.  The
starting panels of all segments are one call; after that each level of
halving is one call over every panel still pending, in the order of the
panels along [a, b].  The first level takes the starting panels' ends,
widths and nodes in u from module constants and broadcasts them over the
segments, so an integral that needs no halving (898 of 910 above) builds no
per-panel array; the halved panels get theirs when they are halved.  Every
level computes its nodes, K21 values and error estimates by the same
operations, in the same order, as per-panel arrays would: the results are
the same to the last bit.  Whether a panel is accepted depends on that panel
alone, so the panels evaluated do not depend on the order, and the accepted
values are summed level by level in that order: the result is deterministic.

The routine keeps the name ``adaptive_simpson`` because ``bench/tracing.py``
wraps it by that name; a rename belongs in the same change as the tracer's.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureBudgetError

__all__ = ["adaptive_simpson"]

NODES = 21
PANELS = 6  # the equal starting panels in u of each segment
DEFAULT_REL_TOL = 1e-10
MAX_EVALS = 200_000  # the evaluation budget of one call

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
# A segment's starting panels: their left and right ends in u, their widths h
# in u, and their nodes in u, one row each.
_STARTING_EDGES = np.array([np.arange(PANELS) / PANELS, np.arange(1, PANELS + 1) / PANELS])
_STARTING_H = _STARTING_EDGES[1] - _STARTING_EDGES[0]
_STARTING_U = _STARTING_EDGES[0][:, None] + _STARTING_H[:, None] * _U


def adaptive_simpson(f, a, b, tol, breakpoints=None):
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``f`` maps a 1-D array of N nodes in (a, b) to an array of shape (N,) or
    (k, N); the result is a float or an array of shape (k,), integrated
    component-wise with the error in the max norm, and shapes (N,) and (1, N)
    of the same values give the same result.  ``breakpoints`` inside [a, b]
    split it into segments; with b <= a there is none, and the result is 0.
    With ``tol=None`` the tolerance is relative, DEFAULT_REL_TOL * (1 +
    max-norm of the summed |panels| of the first level);
    :func:`levyrisk.cevar.horizon_integral` always asks for it.  Raises
    :class:`QuadratureBudgetError` when ``MAX_EVALS`` evaluations do not
    suffice; its ``partial`` is the sum of the accepted panels plus the K21
    value of every unresolved one.
    """
    if not a < b:
        # No segment: the caller's ends meet, or cross by round-off.
        return np.asarray(f(np.empty(0)), dtype=float).sum(axis=-1)
    pts = sorted({float(a), float(b)} | {float(p) for p in breakpoints or ()})
    pts = np.array([p for p in pts if a <= p <= b])
    segments = len(pts) - 1
    # The first level's panels are the starting panels of every segment: the
    # segment starts and widths, shape (segments, 1), broadcast over the
    # constants of the starting panels, shape (PANELS,).  Arrays with one
    # entry per panel (t0, width, u0, u1) are built only for panels that halve.
    t0, width = pts[:-1, None], (pts[1:] - pts[:-1])[:, None]
    u0, u1 = _STARTING_EDGES
    u, h = _STARTING_U, _STARTING_H
    pending = segments * PANELS
    evals = 0
    accepted = 0.0
    unresolved = None  # the K21 values of the panels about to be halved
    while True:
        if evals + NODES * pending > MAX_EVALS:
            raise QuadratureBudgetError(
                f"quadrature budget of {MAX_EVALS} evaluations exceeded on [{a}, {b}]",
                partial=accepted + unresolved.sum(axis=-1) if evals else None,
            )
        evals += NODES * pending
        nodes = t0[..., None] + width[..., None] * u * u
        panel_shape = nodes.shape[:-1]  # (segments, PANELS) on the first level, (pending,) after
        y = np.asarray(f(nodes.ravel()), dtype=float)
        # dt = 2 * width * u du on the panel u0 + h * _U; then one row per panel.
        y = (y.reshape(y.shape[:-1] + nodes.shape) * u).reshape(y.shape[:-1] + (pending, NODES))
        scale = (2.0 * width * h).ravel()
        value = (y @ _KRONROD) * scale
        error = np.abs(y @ _GAP) * scale
        if error.ndim > 1:
            error = error.max(axis=0)
        if tol is None:
            tol = DEFAULT_REL_TOL * (1.0 + float(np.abs(value).sum(axis=-1).max()))
        halve = (error.reshape(panel_shape) > tol / segments * h).ravel()
        if not halve.any():
            return accepted + value.sum(axis=-1)
        accepted = accepted + value[..., ~halve].sum(axis=-1)
        unresolved = value[..., halve]
        t0, width, u0, u1 = (np.repeat(np.broadcast_to(v, panel_shape).ravel()[halve], 2)
                             for v in (t0, width, u0, u1))
        u0[1::2] = u1[::2] = 0.5 * (u0[1::2] + u1[::2])
        h = u1 - u0
        u = u0[:, None] + h[:, None] * _U
        pending = u0.size
