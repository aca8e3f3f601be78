"""Seeded inputs and jobs of the three benchmark workloads.

Each workload builds one *round* of job inputs from ``--seed``. The round is
stratified: its shapes (departments, factor kinds, weight kind), horizons,
confidence levels and stable indices are fixed per slot, and the seed draws
the other factor parameters, exposures, premiums and weight knots, so every
seed gives a round with the same mix of cheap and dear jobs. A run repeats
whole rounds.

The benchmark keeps its own description of every input (``Job.spec``), from
which both the library objects and the independent checks are built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import levyrisk
from levyrisk.cevar import WeightFunction

import checks

# Factor kinds by letter: b = Brownian, s = alpha-stable, g = gamma,
# c = compound Poisson with exponential jumps.
KINDS = {
    "b": "brownian",
    "s": "stable",
    "g": "gamma",
    "c": "compound_poisson_exp",
}

# (departments, factor kinds, table weight). Every shape holds a Brownian or
# stable factor, so s* is interior for every t > 0. "bb" (Brownian-only) and
# "ss" (common-alpha stable) have closed-form allocations.
INTERIOR_SHAPES = [
    (2, "bb", False), (3, "bg", True), (4, "sc", False), (5, "bgc", False),
    (6, "sgc", False), (2, "bsgc", True), (3, "bc", False), (4, "sg", False),
    (5, "ss", False), (6, "bsg", True), (2, "sgcc", False), (3, "bcg", False),
    (4, "bsc", False), (5, "sgg", True), (6, "bgcc", False), (3, "sc", False),
]

# Gamma and compound-Poisson factors only: at small t the infimum sits at
# s -> inf and every such node runs the bracket scan to its end.
BOUNDARY_SHAPES = [
    (2, "g", False), (3, "c", False), (2, "gc", True), (3, "cc", False),
    (2, "gg", False), (3, "gcc", False), (4, "ggc", True), (3, "cg", False),
]

# Horizon T, beta and the stable index alpha cycle through these per slot,
# because they drive a job's cost: T and beta set how much of [0, T] lies
# before the boundary onset, and a small alpha slows the warm-started solves.
HORIZONS = (1.0, 2.0, 3.0)
BETAS = (0.01, 0.05, 0.1)
ALPHAS = (0.3, 0.4, 0.5, 0.6, 0.7)
DRAWS_PER_SHAPE = 2

MC_JOBS_PER_ROUND = 8
MC_PATHS = 20_000
MC_BETA = 0.05


@dataclass(frozen=True)
class Job:
    """One input: the benchmark's own spec and the library objects built from it."""

    spec: dict
    portfolio: Optional[object] = None
    closed_form: Optional[str] = None


def _factor_params(kind, rng, alpha):
    mu = float(rng.uniform(-0.5, 0.5))
    if kind == "brownian":
        return {"mu": mu, "sigma": float(rng.uniform(0.3, 2.0))}
    if kind == "stable":
        return {"alpha": alpha, "mu": mu}
    if kind == "gamma":
        return {"a": float(rng.uniform(0.5, 3.0)), "b": float(rng.uniform(0.5, 4.0)), "mu": mu}
    return {"lambda": float(rng.uniform(0.5, 3.0)), "eta": float(rng.uniform(0.5, 3.0)), "mu": mu}


def _exposures(n, m, rng):
    A = rng.uniform(0.0, 1.0, (n, m))
    A[rng.random((n, m)) < 0.3] = 0.0
    for j in range(m):
        if A[:, j].sum() == 0.0:
            A[rng.integers(n), j] = rng.uniform(0.2, 1.0)
    for i in range(n):
        if A[i].sum() == 0.0:
            A[i, rng.integers(m)] = rng.uniform(0.2, 1.0)
    return A


def _portfolio_job(slot, shape, rng):
    n, letters, table = shape
    kinds = [KINDS[c] for c in letters]
    alpha = ALPHAS[slot % len(ALPHAS)]
    factors = [dict(kind=k, **_factor_params(k, rng, alpha)) for k in kinds]
    A = _exposures(n, len(kinds), rng)
    T = HORIZONS[(slot // len(BETAS)) % len(HORIZONS)]
    beta = BETAS[slot % len(BETAS)]
    premiums = rng.uniform(0.0, 0.3, n)
    knots = None
    if table:
        raw = [(0.0, rng.uniform(0.2, 1.0)), (float(rng.uniform(0.2, 0.6)) * T, rng.uniform(0.2, 1.0)),
               (T, rng.uniform(0.2, 1.0))]
        knots = WeightFunction.table(raw).normalized(T).knots
    spec = {"factors": factors, "A": A, "premiums": premiums, "T": T, "beta": beta, "knots": knots}
    weight = WeightFunction.table(knots) if knots else None
    portfolio = levyrisk.FactorPortfolio(
        A, [levyrisk.factor_from_dict(f) for f in factors], premiums, T, beta, weight=weight
    )
    closed = {"bb": "brownian", "ss": "stable"}.get(letters)
    return Job(spec=spec, portfolio=portfolio, closed_form=closed)


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def interior_inputs(seed):
    rng = _rng(seed, 1)
    return [_portfolio_job(k, shape, rng) for k, shape in enumerate(INTERIOR_SHAPES * DRAWS_PER_SHAPE)]


def boundary_inputs(seed):
    rng = _rng(seed, 2)
    return [_portfolio_job(k, shape, rng) for k, shape in enumerate(BOUNDARY_SHAPES * DRAWS_PER_SHAPE)]


def mc_inputs(seed):
    # Slot k of round r simulates with seed base + r * MC_JOBS_PER_ROUND + k,
    # so every job draws fresh paths while rounds repeat the same work.
    base = int(_rng(seed, 3).integers(0, 2**31))
    return [Job(spec={"base": base, "slot": k}) for k in range(MC_JOBS_PER_ROUND)]


def mc_seed(job, rnd):
    return job.spec["base"] + rnd * MC_JOBS_PER_ROUND + job.spec["slot"]


def run_allocate(job, rnd):
    return levyrisk.allocate(job.portfolio)


def run_validation(job, rnd):
    config = levyrisk.SimulationConfig(seed=mc_seed(job, rnd), n_paths=MC_PATHS)
    return levyrisk.validation_report(config, beta=MC_BETA)


def check_allocate(job, rnd, report):
    return checks.check_allocation(job.spec, job.closed_form, report)


def check_validation(job, rnd, report):
    return checks.check_validation(report, MC_BETA)


def cli_portfolio(job, rnd):
    """(portfolio, seed, n_paths) whose serialised config the CLI is timed on."""
    if job.portfolio is not None:
        return job.portfolio, 0, MC_PATHS
    portfolio = levyrisk.FactorPortfolio(
        [[1.0]], [levyrisk.BrownianWithDrift(mu=0.1, sigma=1.0)], [0.0], 1.0, MC_BETA
    )
    return portfolio, mc_seed(job, rnd), MC_PATHS


@dataclass(frozen=True)
class Workload:
    name: str
    ref_part: str  # reference-kernel part that tracks this workload's speed
    ref_repeats: int  # executions per kernel sample, so a sample spans ~5% of a job
    make_inputs: object
    run: object
    check: object


WORKLOADS = {
    "alloc_interior": Workload("alloc_interior", "interp", 1, interior_inputs, run_allocate, check_allocate),
    "alloc_boundary": Workload("alloc_boundary", "interp", 5, boundary_inputs, run_allocate, check_allocate),
    "mc_validate": Workload("mc_validate", "array", 1, mc_inputs, run_validation, check_validation),
}
