"""Spans and counts at levyrisk's layer boundaries, recorded from outside.

The tracer replaces public functions by wrappers. ``levyrisk.cevar`` and
``levyrisk.evar`` as package attributes are the *functions*, so modules are
reached through ``sys.modules``, and every levyrisk module that imported a
wrapped function by name gets the wrapper too. Factor exponents are counted
on the four factor classes without spans, because they run ~10^5 times a job.

A span's self time is its duration minus the durations of its child spans.
Spans of the coarse layers are kept in memory with their job index and
parent; the solver and pointwise EVaR spans, thousands per job, are only
summed.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

import levyrisk
from levyrisk.errors import LevyRiskError

FACTOR_CLASSES = ("BrownianWithDrift", "GammaSubordinator", "AlphaStableSubordinator", "CompoundPoissonExp")
FACTOR_METHODS = ("phi", "dphi", "d2phi", "phi_gap")
ROUGH_TOL = 1e-4  # tolerance of the rough pass whose result only seeds the fine tolerance

# (module, function, span name, kept as a span record)
SPANNED = [
    ("levyrisk.evar", "solve_stationary", "evar.solve", False),
    ("levyrisk.evar", "evar", "evar.evar", False),
    ("levyrisk._quad", "adaptive_simpson", "quad.adaptive_simpson", True),
    ("levyrisk.cevar", "cevar", "cevar.cevar", True),
    ("levyrisk.allocation", "allocate", "allocation.allocate", True),
    ("levyrisk.montecarlo", "validation_report", "montecarlo.validation_report", True),
    ("levyrisk.montecarlo", "ruin_probability", "montecarlo.ruin_probability", True),
    ("levyrisk.montecarlo", "var_inf_bound_check", "montecarlo.var_inf_bound_check", True),
    ("levyrisk.montecarlo", "empirical_evar", "montecarlo.empirical_evar", True),
    ("levyrisk.montecarlo", "empirical_exponent_check", "montecarlo.empirical_exponent_check", True),
]


class Tracer:
    """Installs the wrappers; holds counts, summed span times and span records."""

    def __init__(self):
        self.counts = Counter()
        self.total = Counter()  # span name -> summed duration (s)
        self.self_time = Counter()  # span name -> summed self time (s)
        self.child_of = Counter()  # "parent>child" -> summed child duration (s)
        self.records = []  # [job, name, start, end, parent record index]
        self.job = None
        self._stack = []  # open spans: [name, start, child seconds, record index]
        self._restore = []

    # -- spans ------------------------------------------------------------
    def _enter(self, name, keep):
        index = None
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            index = len(self.records)
            self.records.append([self.job, name, 0.0, 0.0, parent])
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _exit(self):
        name, start, child, index = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.child_of[f"{parent[0]}>{name}"] += duration
        if index is not None:
            self.records[index][2:4] = [start, end]

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, fn, name, keep):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            except LevyRiskError:
                self.counts[f"{name}.raises"] += 1
                raise
            finally:
                self._exit()
            self.counts[f"{name}.calls"] += 1
            if name == "evar.solve":
                self.counts["evar.solve.iterations"] += result[1]
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "levyrisk"]
        for module_name, attr, name, keep in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._spanned(original, name, keep)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for cls_name in FACTOR_CLASSES:
            cls = getattr(levyrisk.factors, cls_name)
            for method in FACTOR_METHODS:
                self._patch(cls, method, self._counted(getattr(cls, method), f"factors.{method}"))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


def _solve_hook(tracer, args, kwargs):
    if kwargs.get("s0") is not None or len(args) > 4 and args[4] is not None:
        tracer.counts["evar.solve.warm"] += 1
    return args, kwargs


def _evar_hook(tracer, args, kwargs):
    # cevar's evaluator calls evar() at t = 0 by design, and at t > 0 only
    # after its warm-started solve raised: those are the fallbacks.
    if tracer.inside("cevar.cevar") and args[0].t > 0.0:
        tracer.counts["cevar.fallback_evar_calls"] += 1
    return args, kwargs


def _quad_hook(tracer, args, kwargs):
    f = args[0]
    tol = kwargs["tol"] if "tol" in kwargs else args[3]
    rough = tol == ROUGH_TOL
    counts = tracer.counts
    counts["quad.passes"] += 1

    def counted(x):
        counts["quad.evals"] += 1
        counts["quad.rough_evals"] += rough
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _paths_hook(tracer, args, kwargs):
    config = kwargs.get("config")
    if config is None:
        config = next(a for a in args if isinstance(a, levyrisk.SimulationConfig))
    tracer.counts["montecarlo.paths_simulated"] += config.n_paths
    return args, kwargs


HOOKS = {
    "evar.solve": _solve_hook,
    "evar.evar": _evar_hook,
    "quad.adaptive_simpson": _quad_hook,
    "montecarlo.ruin_probability": _paths_hook,
    "montecarlo.var_inf_bound_check": _paths_hook,
    "montecarlo.empirical_evar": _paths_hook,
    "montecarlo.empirical_exponent_check": _paths_hook,
}


def layer_metrics(tracer, jobs):
    """Per-job per-layer metrics, keyed by the names in BENCHMARK.json."""
    c, tot, own = tracer.counts, tracer.total, tracer.self_time
    per = 1.0 / jobs
    count = "count/job"
    sec = "s/job"
    rows = {
        "factors.phi_gap_calls": (c["factors.phi_gap"], count),
        "factors.phi_calls": (c["factors.phi"], count),
        "factors.dphi_calls": (c["factors.dphi"], count),
        "factors.d2phi_calls": (c["factors.d2phi"], count),
        "evar.solve_calls": (c["evar.solve.calls"] + c["evar.solve.raises"], count),
        "evar.solve_warm_calls": (c["evar.solve.warm"], count),
        "evar.solve_raises": (c["evar.solve.raises"], count),
        "evar.solve_iterations": (c["evar.solve.iterations"], count),
        "evar.solve_s": (tot["evar.solve"], sec),
        "evar.evar_calls": (c["evar.evar.calls"] + c["evar.evar.raises"], count),
        "evar.evar_s": (tot["evar.evar"], sec),
        "quad.passes": (c["quad.passes"], count),
        "quad.evals": (c["quad.evals"], count),
        "quad.rough_evals": (c["quad.rough_evals"], count),
        "quad.self_s": (own["quad.adaptive_simpson"], sec),
        "cevar.calls": (c["cevar.cevar.calls"] + c["cevar.cevar.raises"], count),
        "cevar.s": (tot["cevar.cevar"], sec),
        "cevar.fallback_evar_calls": (c["cevar.fallback_evar_calls"], count),
        "allocation.allocate_s": (tot["allocation.allocate"], sec),
        "allocation.self_s": (own["allocation.allocate"], sec),
        "allocation.check_s": (tracer.child_of["allocation.allocate>cevar.cevar"], sec),
        "montecarlo.validation_report_s": (tot["montecarlo.validation_report"], sec),
        "montecarlo.ruin_probability_s": (tot["montecarlo.ruin_probability"], sec),
        "montecarlo.var_inf_bound_check_s": (tot["montecarlo.var_inf_bound_check"], sec),
        "montecarlo.empirical_evar_s": (tot["montecarlo.empirical_evar"], sec),
        "montecarlo.empirical_exponent_check_s": (tot["montecarlo.empirical_exponent_check"], sec),
        "montecarlo.paths_simulated": (c["montecarlo.paths_simulated"], count),
    }
    return {name: {"value": value * per, "unit": unit} for name, (value, unit) in rows.items()}
