"""Elementary step operators acting on a single component value.

Three randomized operators are provided. The uniform step resets a value to
a different one chosen uniformly at random. The unit step adds or subtracts
1 with equal probability. The harmonic step jumps by j in {1, ..., r-1} with
probability proportional to 1/j, direction chosen uniformly: by the law
F[j] = P[jump <= j] of HarmonicTable, which every harmonic consumer reads.

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
    weights = np.arange(1, r, dtype=np.float64)
    np.divide(1.0, weights, out=weights)  # in place: a large table faults in fewer pages
    return np.divide(weights, weights.sum(), out=weights)


class HarmonicTable:
    """The harmonic jump law over [1, r-1], the one every consumer reads:
    F[j] = P[jump <= j] for j = 0..r-1 (F[0] = 0, F[r-1] exactly 1.0), and
    jump(u), the jump at uniform(s) u in [0, 1) by a binary search in F,
    O(log r) per draw. Built once per r and shared, so pmf and F are read-only.
    """

    __slots__ = ("pmf", "F")

    def __init__(self, r: int):
        self.pmf = harmonic_pmf(r)
        self.F = np.zeros(r)
        np.cumsum(self.pmf, out=self.F[1:])
        self.F[-1] = 1.0  # guard against cumulative rounding
        self.pmf.flags.writeable = self.F.flags.writeable = False

    def jump(self, u):
        return np.searchsorted(self.F, u, "right")


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
    jump = (1 if kind is StepOperatorKind.PLUS_MINUS_ONE
            else int(harmonic_table(r).jump(rng.random())))
    if int(rng.integers(0, 2)) == 0:
        jump = -jump
    value = current + jump
    if metric is MetricKind.RING:
        return value % r
    if 0 <= value < r:
        return value
    return None
