"""One-sided Levy claim factors represented by their Laplace exponents.

Every factor fixes the convention ``E[exp(-s W_t)] = exp(-t phi(s))`` for
s >= 0 and supplies analytic first and second derivatives of phi.  Parameters
are stored as Python floats, so an overflow at extreme s gives a silent inf
rather than a numpy warning.  Linear combinations of independent factors are
handled by :class:`FactorCombination`, whose exponent is the sum of the
component exponents at scaled arguments.

The exponents take a float s.  Along the stationary curve (the horizon
integral's nodes and the lockstep rounds of the K-curve) s is a numpy array,
and the methods that take it are ``dphi``, whose stable form branches on s
and so has an array form too, and the kernel ``gap_and_s2d2phi``: phi_gap and
s^2 phi'' in one call, from subexpressions the two share.  A kind inherits the
kernel ``(self.phi_gap(s), self.s2d2phi(s))``; the gamma, stable and
compound-Poisson kinds override it, and each override takes every value by
the operations of the float forms, in their order.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "LevyFactor",
    "BrownianWithDrift",
    "GammaSubordinator",
    "AlphaStableSubordinator",
    "CompoundPoissonExp",
    "FactorCombination",
    "laplace_exponent",
    "factor_from_dict",
]


class LevyFactor:
    """Base class: a Levy process given through its Laplace exponent phi."""

    kind: str = ""

    def __post_init__(self):
        """Store a dataclass kind's parameters as Python floats and check the
        ones ``_KIND_MAP`` names: mu must be finite, alpha must lie in (0, 1)
        and every other parameter must be positive and finite.  A plug-in kind
        (one not in ``_KIND_MAP``) is left as its own dataclass built it."""
        if self.kind not in _KIND_MAP:
            return
        for field in dataclasses.fields(self):
            object.__setattr__(self, field.name, float(getattr(self, field.name)))
        # mu last, so that an error names a kind's own parameters first.
        for name in sorted(_KIND_MAP[self.kind][1], key=lambda name: name == "mu"):
            value = getattr(self, _field(name))
            if name == "mu":
                ok, rule = math.isfinite(value), "be finite"
            elif name == "alpha":
                ok, rule = 0.0 < value < 1.0, "lie in (0, 1)"
            else:
                ok, rule = 0.0 < value < math.inf, "be positive and finite"
            if not ok:
                raise ValueError(f"{name} must {rule}, got {value}")

    def phi(self, s: float) -> float:
        raise NotImplementedError

    def dphi(self, s: float) -> float:
        raise NotImplementedError

    def d2phi(self, s: float) -> float:
        raise NotImplementedError

    def s2d2phi(self, s: float) -> float:
        """s^2 * phi''(s), in a form that stays in float range wherever
        phi_gap does.  This default suits a bounded phi'' (the Brownian kind);
        the kinds whose phi'' under- or overflows at extreme s override it."""
        return s * (s * self.d2phi(s))

    def phi_gap(self, s: float) -> float:
        """phi(s) - s*phi'(s), in a form immune to drift cancellation.

        The linear drift mu*s drops out of this difference identically, so
        each kind evaluates only its curved part; the naive difference loses
        all precision once mu*s dwarfs the curved part (large s).
        """
        raise NotImplementedError

    def gap_and_s2d2phi(self, s: np.ndarray):
        """(phi_gap(s), s^2 phi''(s)) at an array s: the one pass of a kind
        along the stationary curve.  This default calls the two methods; a
        kind overrides it where the two share work."""
        return self.phi_gap(s), self.s2d2phi(s)

    def mean_rate(self) -> float:
        """E[W_1] = phi'(0+); +inf for the stable kind."""
        return self.dphi(0.0)

    def slope_at_infinity(self) -> float:
        """lim_{s->inf} phi(s)/s = phi'(inf); -inf for the Brownian kind."""
        return self.dphi(math.inf)

    def params(self) -> dict:
        """Parameter dict keyed by the public parameter names."""
        return {name: getattr(self, _field(name)) for name in _KIND_MAP[self.kind][1]}


@dataclass(frozen=True)
class BrownianWithDrift(LevyFactor):
    """W_t = mu*t + sigma*B_t with phi(s) = mu*s - sigma^2 s^2 / 2."""

    mu: float
    sigma: float
    kind = "brownian"

    def phi(self, s):
        return self.mu * s - 0.5 * self.sigma * self.sigma * s * s

    def dphi(self, s):
        return self.mu - self.sigma * self.sigma * s

    def d2phi(self, s):
        return -self.sigma * self.sigma

    def phi_gap(self, s):
        return 0.5 * self.sigma * self.sigma * s * s


@dataclass(frozen=True)
class GammaSubordinator(LevyFactor):
    """Gamma process with drift: phi(s) = mu*s + a*ln(1 + s/b)."""

    a: float
    b: float
    mu: float = 0.0
    kind = "gamma"

    def phi(self, s):
        return self.mu * s + self.a * _log1p_ratio(s, self.b)

    def dphi(self, s):
        return self.mu + self.a / (self.b + s)

    def d2phi(self, s):
        bs = self.b + s
        return -(self.a / bs) / bs

    def s2d2phi(self, s):
        r = s / (self.b + s)
        return -self.a * r * r

    def phi_gap(self, s):
        z = s / self.b
        if z >= 1.0:
            return self.a * (_log1p_ratio(s, self.b) - s / (self.b + s))
        return self.a * _gap_series(z)

    def gap_and_s2d2phi(self, s):
        # phi_gap's two forms chosen elementwise, r = s/(b+s) shared with s^2 phi'':
        # ln(s) - ln(b) only where s/b overflows, the series only below s = b.
        with np.errstate(over="ignore"):
            z = s / self.b
        r = s / (self.b + s)
        gap = np.log1p(z)
        wide = z == math.inf
        if wide.any():
            gap[wide] = np.log(s[wide]) - math.log(self.b)
        gap -= r
        small = s < self.b
        if small.any():
            gap[small] = _gap_series(z[small])
        return self.a * gap, -self.a * r * r


@dataclass(frozen=True)
class AlphaStableSubordinator(LevyFactor):
    """One-sided alpha-stable subordinator with drift: phi(s) = mu*s + s^alpha."""

    alpha: float
    mu: float = 0.0
    kind = "stable"

    def phi(self, s):
        return self.mu * s + s ** self.alpha

    def dphi(self, s):
        if not isinstance(s, np.ndarray) and s == 0.0:
            return math.inf
        return self.mu + self.alpha * s ** (self.alpha - 1.0)

    def d2phi(self, s):
        return self.alpha * (self.alpha - 1.0) * s ** (self.alpha - 2.0)

    def s2d2phi(self, s):
        return self.alpha * (self.alpha - 1.0) * s ** self.alpha

    def phi_gap(self, s):
        return (1.0 - self.alpha) * s ** self.alpha

    def gap_and_s2d2phi(self, s):
        power = s ** self.alpha
        return (1.0 - self.alpha) * power, self.alpha * (self.alpha - 1.0) * power


@dataclass(frozen=True)
class CompoundPoissonExp(LevyFactor):
    """Compound Poisson with exponential jumps: phi(s) = mu*s + lam*s/(eta + s)."""

    lam: float
    eta: float
    mu: float = 0.0
    kind = "compound_poisson_exp"

    def phi(self, s):
        return self.mu * s + self.lam * s / (self.eta + s)

    def dphi(self, s):
        es = self.eta + s
        return self.mu + (self.lam / es) * (self.eta / es)

    def d2phi(self, s):
        es = self.eta + s
        return -2.0 * (self.lam / es) * (self.eta / es) / es

    def s2d2phi(self, s):
        es = self.eta + s
        r = s / es
        return -2.0 * self.lam * r * r * (self.eta / es)

    def phi_gap(self, s):
        es = self.eta + s
        return self.lam * (s / es) * (s / es)

    def gap_and_s2d2phi(self, s):
        es = self.eta + s
        r = s / es
        return self.lam * r * r, -2.0 * self.lam * r * r * (self.eta / es)


_KIND_MAP = {
    "brownian": (BrownianWithDrift, ("mu", "sigma")),
    "gamma": (GammaSubordinator, ("a", "b", "mu")),
    "stable": (AlphaStableSubordinator, ("alpha", "mu")),
    "compound_poisson_exp": (CompoundPoissonExp, ("lambda", "eta", "mu")),
}


def _log1p_ratio(s: float, b: float) -> float:
    """ln(1 + s/b), taken as ln(s) - ln(b) once s/b overflows."""
    z = s / b
    return math.log1p(z) if z < math.inf else math.log(s) - math.log(b)


def _gap_series(z):
    """ln(1 + z) - z/(1 + z) for 0 <= z < 1, where the closed form cancels.

    It cancels to ~z^2/2 as z -> 0.  With y = z/(2+z), log1p(z) = 2*atanh(y)
    and z/(1+z) = 2y/(1+y), so the gap is the sum of two positive terms,
    z^2/((1+z)(2+z)) and 2*(atanh(y) - y), the second summed as
    2*y^3 * sum_k w^k/(2k+3) with w = y^2 <= 1/9: 15 terms.
    """
    y = z / (2.0 + z)
    w = y * y
    p = 1/3 + w * (1/5 + w * (1/7 + w * (1/9 + w * (1/11 + w * (1/13 + w * (1/15 + w * (
        1/17 + w * (1/19 + w * (1/21 + w * (1/23 + w * (1/25 + w * (1/27 + w * (
            1/29 + w * (1/31))))))))))))))
    return z * z / ((1.0 + z) * (2.0 + z)) + 2.0 * y * w * p


def _field(name: str) -> str:
    """The dataclass field behind a public parameter name ("lambda" is a keyword)."""
    return "lam" if name == "lambda" else name


def factor_from_dict(spec: dict) -> LevyFactor:
    """Build a factor from ``{"kind": ..., <parameter names>...}``."""
    spec = dict(spec)
    try:
        kind = spec.pop("kind")
    except KeyError:
        raise ValueError("factor specification is missing 'kind'") from None
    if kind not in _KIND_MAP:
        raise ValueError(
            f"unknown factor kind {kind!r}; expected one of {sorted(_KIND_MAP)}"
        )
    cls, names = _KIND_MAP[kind]
    unknown = set(spec) - set(names)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for kind {kind!r}")
    kwargs = {_field(k): float(v) for k, v in spec.items()}
    return cls(**kwargs)


@dataclass(frozen=True)
class FactorCombination:
    """Weighted sum of independent factors: X_t = sum_j d_j * W_t^j.

    The combined exponent is phi(s) = sum_j phi_j(s * d_j).  ``active`` holds
    the (factor, weight) pairs with d_j > 0, the only ones any sum visits: a
    factor with d_j = 0 would be evaluated at s * 0 = 0, where a stable
    factor's phi' and phi'' are infinite.
    """

    factors: tuple
    weights: tuple

    def __init__(self, factors: Sequence[LevyFactor], weights: Sequence[float]):
        factors = tuple(factors)
        weights = tuple(float(d) for d in weights)
        if len(factors) != len(weights):
            raise ValueError(
                f"{len(factors)} factors but {len(weights)} weights"
            )
        if not all(0.0 <= d < math.inf for d in weights):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "active", tuple((f, d) for f, d in zip(factors, weights) if d))

    @classmethod
    def single(cls, factor: LevyFactor) -> "FactorCombination":
        return cls([factor], [1.0])

    def scaled(self, lam: float) -> "FactorCombination":
        if lam < 0:
            raise ValueError("scale must be nonnegative")
        return FactorCombination(self.factors, [lam * d for d in self.weights])

    def concat(self, other: "FactorCombination") -> "FactorCombination":
        return FactorCombination(
            self.factors + other.factors, self.weights + other.weights
        )

    # Plain loops rather than sum(generator): these run inside every
    # solve, where a generator's overhead outweighs the terms of a small position.

    def phi(self, s):
        total = 0.0
        for f, d in self.active:
            total += f.phi(s * d)
        return total

    def dphi(self, s):
        """d/ds of the combined exponent: sum_j d_j phi_j'(s d_j)."""
        total = 0.0
        for f, d in self.active:
            total += d * f.dphi(s * d)
        return total

    def d2phi(self, s):
        total = 0.0
        for f, d in self.active:
            total += d * d * f.d2phi(s * d)
        return total

    def s2d2phi(self, s):
        """s^2 * phi''(s) = sum_j (s d_j)^2 phi_j''(s d_j), in float range."""
        total = 0.0
        for f, d in self.active:
            total += f.s2d2phi(s * d)
        return total

    def phi_gap(self, s):
        """phi(s) - s*phi'(s) with every factor's drift cancelled exactly."""
        total = 0.0
        for f, d in self.active:
            total += f.phi_gap(s * d)
        return total

    def gap_and_s2d2phi(self, s):
        """(phi_gap(s), s2d2phi(s)) at an array s, one kernel call per factor."""
        gap = curvature = 0.0
        for f, d in self.active:
            g, c = f.gap_and_s2d2phi(s * d)
            gap += g
            curvature += c
        return gap, curvature

    def slopes(self, s):
        """phi_j'(s d_j), one row per active factor: slope_at_infinity at s = inf."""
        return np.array([f.dphi(s * d) for f, d in self.active])

    def mean_rate(self):
        """E[X_1] = sum_j d_j phi_j'(0+); +inf if any stable factor is active."""
        total = 0.0
        for f, d in self.active:
            total += d * f.mean_rate()
        return total

    def slope_at_infinity(self):
        """lim phi(s)/s; -inf when any Brownian factor is active."""
        total = 0.0
        for f, d in self.active:
            total += d * f.slope_at_infinity()
        return total

    def is_degenerate(self):
        return not self.active


def laplace_exponent(target, s: float, order: int = 0) -> float:
    """phi(s), phi'(s) or phi''(s) (``order`` 0, 1 or 2) of a factor or a
    :class:`FactorCombination`, under E[exp(-s W_t)] = exp(-t phi(s)).

    Raises :class:`DomainError` unless s is finite and nonnegative, and for
    phi''(0) of a position with infinite mean (an active stable factor);
    raises ``ValueError`` for any other order.
    """
    if not (s >= 0.0) or not math.isfinite(s):
        raise DomainError(f"s must be a finite nonnegative real, got {s}")
    methods = {0: target.phi, 1: target.dphi, 2: target.d2phi}
    if order not in methods:
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    if order == 2 and s == 0.0 and math.isinf(target.mean_rate()):
        raise DomainError("second derivative requires s in the interior (s > 0)")
    return methods[order](s)
