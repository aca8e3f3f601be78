"""Adaptive Gauss-Legendre quadrature under the substitution t = a + (b - a) u**2.

Near t = 0 the EVaR integrands behave like sqrt(t) (Brownian) or t**(1/alpha)
(stable), with an unbounded derivative.  On each segment [a, b] between
breakpoints, t = a + (b - a) u**2 makes them smooth in u on [0, 1], and
16-node Gauss-Legendre panels integrate in u.  Each segment starts as two
panels, u in [0, 1/2] and [1/2, 1]: a whole-segment panel often met or missed
the tolerance narrowly, so the cost jumped with the parameters.  A panel is
accepted, as the sum of its halves, when that sum agrees with it to within its
share of ``tol`` (tol / #segments times its width in u); otherwise both halves
are examined, left to right, so the result is deterministic.  There is no
depth limit: halving stops when the tolerance is met or the budget runs out
(:class:`QuadratureBudgetError`), so accuracy is never lost silently.

The routine keeps the name ``adaptive_simpson`` because ``bench/tracing.py``
wraps it by that name; a rename belongs in the same change as the tracer's.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureBudgetError

__all__ = ["adaptive_simpson"]

NODES = 16
DEFAULT_REL_TOL = 1e-10

_x, _w = np.polynomial.legendre.leggauss(NODES)
_U = ((_x + 1.0) / 2.0).tolist()  # nodes on [0, 1], ascending
_W = (_w / 2.0).tolist()


def _norm(x):
    return float(np.max(np.abs(x)))


def adaptive_simpson(f, a, b, tol, breakpoints=None, max_evals=200_000):
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``f`` is called once per node with a float t in (a, b) and may return a
    float or a numpy array (integrated component-wise, error in the max
    norm).  ``breakpoints`` inside [a, b] split it into segments.  With
    ``tol=None`` the tolerance is relative, 1e-10 * (1 + max-norm of the
    summed |panels| of the first pass).  Raises
    :class:`QuadratureBudgetError` when ``max_evals`` evaluations do not
    suffice; its ``partial`` is the sum of the accepted panels plus the
    current estimate of every unresolved one.
    """
    pts = sorted({float(a), float(b)} | {float(p) for p in breakpoints or ()})
    pts = [p for p in pts if a <= p <= b]
    evals = 0
    accepted = 0.0
    pending = []  # (t0, width, u0, u1, estimate)

    def panel(t0, width, u0, u1):
        nonlocal evals
        if evals + NODES > max_evals:
            raise QuadratureBudgetError(
                f"quadrature budget of {max_evals} evaluations exceeded on [{a}, {b}]",
                partial=sum((p[4] for p in pending), accepted) if evals else None,
            )
        evals += NODES
        h = u1 - u0
        acc = 0.0
        for x, w in zip(_U, _W):
            u = u0 + h * x
            acc = acc + (w * u) * f(t0 + width * u * u)
        return acc * (2.0 * width * h)

    for t0, t1 in zip(pts[:-1], pts[1:]):
        for u0, u1 in ((0.0, 0.5), (0.5, 1.0)):
            pending.append((t0, t1 - t0, u0, u1, panel(t0, t1 - t0, u0, u1)))
    if tol is None:
        tol = DEFAULT_REL_TOL * (1.0 + _norm(sum(abs(p[4]) for p in pending)))
    seg_tol = tol / (len(pts) - 1)
    pending.reverse()  # leftmost panel last, so it is resolved first
    while pending:
        t0, width, u0, u1, whole = pending[-1]
        um = 0.5 * (u0 + u1)
        left = panel(t0, width, u0, um)
        right = panel(t0, width, um, u1)
        pending.pop()
        if _norm(left + right - whole) <= seg_tol * (u1 - u0):
            accepted = accepted + left + right
        else:
            pending += [(t0, width, um, u1, right), (t0, width, u0, um, left)]
    return accepted
