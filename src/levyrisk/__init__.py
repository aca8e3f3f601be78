"""Entropic value-at-risk and Euler capital allocation for Levy insurance models."""

from .allocation import (
    AllocationReport,
    FactorPortfolio,
    allocate,
    brownian_allocation,
    brownian_contributions,
    brownian_s_star,
    euler_contributions,
    stable_allocation,
    stable_contributions,
)
from .cevar import CevarQuery, WeightFunction, cevar
from .errors import (
    ConfigError,
    DomainError,
    LevyRiskError,
    NoStationaryPointError,
    QuadratureBudgetError,
)
from .evar import (
    EvarQuery,
    EvarResult,
    evar,
    evar_closed_form_brownian,
)
from .factors import (
    AlphaStableSubordinator,
    BrownianWithDrift,
    CompoundPoissonExp,
    FactorCombination,
    GammaSubordinator,
    LevyFactor,
    factor_from_dict,
    laplace_exponent,
)
from .montecarlo import (
    RuinEstimate,
    SimulationConfig,
    adjustment_coefficient,
    empirical_evar,
    empirical_exponent_check,
    ruin_probability,
    sample_increments,
    validation_report,
    var_inf_bound_check,
)

__version__ = "0.1.0"
