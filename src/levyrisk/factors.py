"""One-sided Levy claim factors represented by their Laplace exponents.

Every factor fixes the convention ``E[exp(-s W_t)] = exp(-t phi(s))`` for
s >= 0 and supplies analytic first and second derivatives of phi.  Linear
combinations of independent factors are handled by :class:`FactorCombination`,
whose exponent is the sum of the component exponents at scaled arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError

__all__ = [
    "LevyFactor",
    "BrownianWithDrift",
    "GammaSubordinator",
    "AlphaStableSubordinator",
    "CompoundPoissonExp",
    "FactorCombination",
    "laplace_exponent",
    "laplace_exponent_deriv",
    "combine",
    "combine_deriv",
    "factor_from_dict",
]


class LevyFactor:
    """Base class: a Levy process given through its Laplace exponent phi."""

    kind: str = ""

    def phi(self, s: float) -> float:
        raise NotImplementedError

    def dphi(self, s: float) -> float:
        raise NotImplementedError

    def d2phi(self, s: float) -> float:
        raise NotImplementedError

    def phi_gap(self, s: float) -> float:
        """phi(s) - s*phi'(s), in a form immune to drift cancellation.

        The linear drift mu*s drops out of this difference identically, so
        each kind evaluates only its curved part; the naive difference loses
        all precision once mu*s dwarfs the curved part (large s).
        """
        raise NotImplementedError

    def mean_rate(self) -> float:
        """E[W_1], i.e. phi'(0+); may be +inf (stable subordinator)."""
        raise NotImplementedError

    def slope_at_infinity(self) -> float:
        """lim_{s->inf} phi(s)/s; -inf for the Brownian kind."""
        raise NotImplementedError

    def gap_at_infinity(self) -> float:
        """lim_{s->inf} phi_gap(s): the jump rate for compound Poisson, else +inf."""
        return math.inf

    def params(self) -> dict:
        """Parameter dict keyed by the public parameter names."""
        raise NotImplementedError


@dataclass(frozen=True)
class BrownianWithDrift(LevyFactor):
    """W_t = mu*t + sigma*B_t with phi(s) = mu*s - sigma^2 s^2 / 2."""

    mu: float
    sigma: float
    kind = "brownian"

    def __post_init__(self):
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def phi(self, s):
        return self.mu * s - 0.5 * self.sigma * self.sigma * s * s

    def dphi(self, s):
        return self.mu - self.sigma * self.sigma * s

    def d2phi(self, s):
        return -self.sigma * self.sigma

    def phi_gap(self, s):
        return 0.5 * self.sigma * self.sigma * s * s

    def mean_rate(self):
        return self.mu

    def slope_at_infinity(self):
        return -math.inf

    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class GammaSubordinator(LevyFactor):
    """Gamma process with drift: phi(s) = mu*s + a*ln(1 + s/b)."""

    a: float
    b: float
    mu: float = 0.0
    kind = "gamma"

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (self.b > 0):
            raise ValueError(f"b must be positive, got {self.b}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def phi(self, s):
        return self.mu * s + self.a * math.log1p(s / self.b)

    def dphi(self, s):
        return self.mu + self.a / (self.b + s)

    def d2phi(self, s):
        bs = self.b + s
        return -(self.a / bs) / bs

    def phi_gap(self, s):
        return self.a * (math.log1p(s / self.b) - s / (self.b + s))

    def mean_rate(self):
        return self.mu + self.a / self.b

    def slope_at_infinity(self):
        return self.mu

    def params(self):
        return {"a": self.a, "b": self.b, "mu": self.mu}


@dataclass(frozen=True)
class AlphaStableSubordinator(LevyFactor):
    """One-sided alpha-stable subordinator with drift: phi(s) = mu*s + s^alpha."""

    alpha: float
    mu: float = 0.0
    kind = "stable"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def phi(self, s):
        return self.mu * s + s ** self.alpha

    def dphi(self, s):
        if s == 0.0:
            return math.inf
        return self.mu + self.alpha * s ** (self.alpha - 1.0)

    def d2phi(self, s):
        return self.alpha * (self.alpha - 1.0) * s ** (self.alpha - 2.0)

    def phi_gap(self, s):
        return (1.0 - self.alpha) * s ** self.alpha

    def mean_rate(self):
        return math.inf

    def slope_at_infinity(self):
        return self.mu

    def params(self):
        return {"alpha": self.alpha, "mu": self.mu}


@dataclass(frozen=True)
class CompoundPoissonExp(LevyFactor):
    """Compound Poisson with exponential jumps: phi(s) = mu*s + lam*s/(eta + s)."""

    lam: float
    eta: float
    mu: float = 0.0
    kind = "compound_poisson_exp"

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not (self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def phi(self, s):
        return self.mu * s + self.lam * s / (self.eta + s)

    def dphi(self, s):
        es = self.eta + s
        return self.mu + (self.lam / es) * (self.eta / es)

    def d2phi(self, s):
        es = self.eta + s
        return -2.0 * (self.lam / es) * (self.eta / es) / es

    def phi_gap(self, s):
        es = self.eta + s
        return self.lam * (s / es) * (s / es)

    def mean_rate(self):
        return self.mu + self.lam / self.eta

    def slope_at_infinity(self):
        return self.mu

    def gap_at_infinity(self):
        return self.lam

    def params(self):
        return {"lambda": self.lam, "eta": self.eta, "mu": self.mu}


_KIND_MAP = {
    "brownian": (BrownianWithDrift, ("mu", "sigma")),
    "gamma": (GammaSubordinator, ("a", "b", "mu")),
    "stable": (AlphaStableSubordinator, ("alpha", "mu")),
    "compound_poisson_exp": (CompoundPoissonExp, ("lambda", "eta", "mu")),
}


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
    kwargs = {("lam" if k == "lambda" else k): float(v) for k, v in spec.items()}
    return cls(**kwargs)


def _check_s(s: float) -> None:
    if not (s >= 0.0) or not math.isfinite(s):
        raise DomainError(f"s must be a finite nonnegative real, got {s}")


def laplace_exponent(factor: LevyFactor, s: float) -> float:
    """phi(s) under E[exp(-s W_t)] = exp(-t phi(s))."""
    _check_s(s)
    return factor.phi(s)


def laplace_exponent_deriv(factor: LevyFactor, s: float, order: int = 1) -> float:
    """Analytic phi'(s) or phi''(s)."""
    _check_s(s)
    if order == 1:
        return factor.dphi(s)
    if order == 2:
        if s == 0.0 and isinstance(factor, AlphaStableSubordinator):
            raise DomainError("second derivative requires s in the interior (s > 0)")
        return factor.d2phi(s)
    raise ValueError(f"order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class FactorCombination:
    """Weighted sum of independent factors: X_t = sum_j d_j * W_t^j.

    The combined exponent is phi(s) = sum_j phi_j(s * d_j).
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
        if any(d < 0 for d in weights):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weights", weights)

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

    def phi(self, s):
        return sum(f.phi(s * d) for f, d in zip(self.factors, self.weights))

    def dphi(self, s):
        """d/ds of the combined exponent: sum_j d_j phi_j'(s d_j)."""
        return sum(d * f.dphi(s * d) for f, d in zip(self.factors, self.weights))

    def d2phi(self, s):
        return sum(d * d * f.d2phi(s * d) for f, d in zip(self.factors, self.weights))

    def phi_gap(self, s):
        """phi(s) - s*phi'(s) with every factor's drift cancelled exactly."""
        return sum(f.phi_gap(s * d) for f, d in zip(self.factors, self.weights))

    def mean_rate(self):
        """E[X_1] = sum_j d_j phi_j'(0+); +inf if any stable factor is active."""
        total = 0.0
        for f, d in zip(self.factors, self.weights):
            if d == 0.0:
                continue
            m = f.mean_rate()
            if math.isinf(m):
                return math.inf
            total += d * m
        return total

    def slope_at_infinity(self):
        """lim phi(s)/s; -inf when any Brownian factor is active."""
        total = 0.0
        for f, d in zip(self.factors, self.weights):
            if d == 0.0:
                continue
            m = f.slope_at_infinity()
            if math.isinf(m):
                return -math.inf
            total += d * m
        return total

    def is_degenerate(self):
        return not any(self.weights)


def combine(combination: FactorCombination, s: float) -> float:
    """Combined exponent sum_j phi_j(s * d_j)."""
    _check_s(s)
    return combination.phi(s)


def combine_deriv(combination: FactorCombination, s: float) -> float:
    """s-derivative of the combined exponent, sum_j d_j phi_j'(s d_j)."""
    _check_s(s)
    return combination.dphi(s)
