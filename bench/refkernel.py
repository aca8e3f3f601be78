"""Fixed reference kernel that measures the machine's current speed.

The benchmark runs one part of this kernel after every job and divides the
job's wall time by the part's time (see README.md for which part tracks which
workload, and the measurements behind the choice). It must never import
levyrisk, so that a change to the library cannot move it.

One ``ref_ms`` is one execution of a part; ``ref_s`` is 1000 of them.
"""
from __future__ import annotations

import math
import time

import numpy as np

INTERP_STEPS = 2_500
ARRAY_SHAPE = (10_000, 100)
ARRAY_SEED = 20_131_102


class _Term:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def gap(self, s):
        return self.a * (math.log1p(s / self.b) - s / (self.b + s))

    def root(self, s):
        return self.a * math.sqrt(s) + s


_TERMS = [_Term(1.0 + 0.1 * k, 2.0 + 0.05 * k) for k in range(4)]
_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


def interp_part() -> float:
    """Interpreted float loop: method calls in generator sums over log1p and sqrt.

    Small objects and generator sums make its interpreter footprint resemble
    pure-Python numerical code, which a bare arithmetic loop does not.
    """
    acc = 0.0
    s = 0.1
    for _ in range(INTERP_STEPS):
        acc += sum(f.gap(s * d) for f, d in zip(_TERMS, _WEIGHTS))
        acc += sum(f.root(s * d) for f, d in zip(_TERMS, _WEIGHTS))
        s *= 1.001
    return acc


def array_part() -> float:
    """numpy draws, a row-wise sort and a cumulative sum on 10^6 elements.

    The arrays outgrow the caches, as simulated path matrices do.
    """
    rng = np.random.default_rng(ARRAY_SEED)
    times = np.sort(rng.uniform(0.0, 1.0, ARRAY_SHAPE), axis=1)
    claims = np.cumsum(rng.exponential(1.0, ARRAY_SHAPE), axis=1)
    return float(np.min(1.5 * times - claims))


PARTS = {"interp": interp_part, "array": array_part}


def time_parts(names, repeats=1) -> dict:
    """Mean wall seconds of one execution of each named part over `repeats` runs."""
    out = {}
    for name in names:
        part = PARTS[name]
        t0 = time.perf_counter()
        for _ in range(repeats):
            part()
        out[name] = (time.perf_counter() - t0) / repeats
    return out
