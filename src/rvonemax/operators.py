"""Elementary step operators acting on a single component value.

Three randomized operators are provided. The uniform step resets a value to
a different one chosen uniformly at random. The unit step adds or subtracts
1 with equal probability. The harmonic step jumps by j in {1, ..., r-1} with
probability proportional to 1/j, direction chosen uniformly.

Under the ring metric every step wraps around. Under the interval metric a
step leaving [0, r-1] is infeasible and is discarded: step() returns None
and the caller leaves the component unchanged. The direction and size are
drawn before the feasibility check; there is no re-draw.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .space import MetricKind


class StepOperatorKind(Enum):
    UNIFORM = "uniform"
    PLUS_MINUS_ONE = "pm1"
    HARMONIC = "harmonic"

    @classmethod
    def parse(cls, name: str) -> "StepOperatorKind":
        key = name.strip().lower()
        aliases = {"uniform": cls.UNIFORM, "pm1": cls.PLUS_MINUS_ONE, "+-1": cls.PLUS_MINUS_ONE,
                   "plusminus1": cls.PLUS_MINUS_ONE, "harmonic": cls.HARMONIC}
        if key not in aliases:
            raise ValueError(f"unknown step operator {name!r}; expected uniform, pm1 or harmonic")
        return aliases[key]


def harmonic_pmf(r: int) -> np.ndarray:
    """Probability vector over step sizes j = 1..r-1, entry j proportional to 1/j.

    The normalizer is the (r-1)th harmonic number, so every entry satisfies
    pmf[j-1] = (1/j) / H_{r-1} >= 1 / (j * (1 + ln r)).
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    weights = 1.0 / np.arange(1, r, dtype=np.float64)
    return weights / weights.sum()


class HarmonicTable:
    """Precomputed inverse-CDF table for harmonic step sizes over [1, r-1].

    Built once per alphabet size and shared; sampling is a binary search in
    the cumulative table, O(log r) per draw.
    """

    __slots__ = ("r", "pmf", "cdf")

    def __init__(self, r: int):
        self.r = r
        self.pmf = harmonic_pmf(r)
        cdf = np.cumsum(self.pmf)
        cdf[-1] = 1.0  # guard against cumulative rounding
        self.cdf = cdf

    def sample(self, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self.cdf, rng.random(), side="right")) + 1

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self.cdf, rng.random(size), side="right") + 1


@lru_cache(maxsize=128)
def harmonic_table(r: int) -> HarmonicTable:
    return HarmonicTable(r)


def step(kind: StepOperatorKind, metric: MetricKind, current: int, r: int,
         rng: np.random.Generator) -> int | None:
    """Apply one elementary step to a component value.

    Returns the new value, or None when the drawn move is infeasible under
    the interval metric. The uniform step is metric-independent and never
    infeasible.
    """
    if not (0 <= current < r):
        raise ValueError(f"current value must lie in [0, {r - 1}], got {current}")
    if kind is StepOperatorKind.UNIFORM:
        v = int(rng.integers(0, r - 1))
        return v if v < current else v + 1
    if kind is StepOperatorKind.PLUS_MINUS_ONE:
        jump = 1
    else:
        jump = harmonic_table(r).sample(rng)
    if int(rng.integers(0, 2)) == 0:
        jump = -jump
    value = current + jump
    if metric is MetricKind.RING:
        return value % r
    if 0 <= value < r:
        return value
    return None
