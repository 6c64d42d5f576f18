"""Empirical one-step drift estimation at planted potential levels.

The estimator plants search points at prescribed potential levels (exact
Hamming level, exact fitness level, or an explicit per-component distance
vector), applies a single mutation-selection round, and averages the
one-step drop of the chosen potential. Planting makes conditioning on a
level exact instead of waiting for natural visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import RunConfig, one_iteration, subseed
from .potentials import Potential, potential_value
from .space import MetricKind, ProblemInstance


@dataclass(frozen=True)
class DriftEstimate:
    """Mean one-step potential drop at one level, with a 95% normal CI."""

    level: float
    mean_drop: float
    confidence_halfwidth: float
    samples: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.confidence_halfwidth < 0:
            raise ValueError("confidence_halfwidth must be >= 0")


def harmonic_number(k: int) -> float:
    """Partial sum H_k = 1 + 1/2 + ... + 1/k; satisfies ln k <= H_k <= ln k + 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.fsum(1.0 / i for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# Planted-state drift estimation
# ---------------------------------------------------------------------------

def _max_component_distance(instance: ProblemInstance, i: int) -> int:
    r = instance.params.r
    if instance.metric is MetricKind.RING:
        return r // 2
    z = int(instance.target[i])
    return max(z, r - 1 - z)


def realize_distances(instance: ProblemInstance, distances: Sequence[int],
                      rng: np.random.Generator) -> np.ndarray:
    """Construct a point whose per-component distances to the target are as
    given, choosing uniformly among the feasible sides."""
    params = instance.params
    if len(distances) != params.n:
        raise ValueError(f"need {params.n} distances, got {len(distances)}")
    r = params.r
    x = np.array(instance.target, dtype=np.int64)
    for i, d in enumerate(distances):
        d = int(d)
        if d == 0:
            continue
        if d < 0 or d > _max_component_distance(instance, i):
            raise ValueError(f"distance {d} infeasible at position {i}")
        z = int(instance.target[i])
        if instance.metric is MetricKind.RING:
            options = list({(z - d) % r, (z + d) % r})
        else:
            options = [v for v in (z - d, z + d) if 0 <= v < r]
        x[i] = options[int(rng.integers(0, len(options)))]
    return x


def plant_state_at_hamming(instance: ProblemInstance, k: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Corrupt k uniformly chosen positions of the target to wrong values."""
    params = instance.params
    if not (0 <= k <= params.n):
        raise ValueError(f"hamming level must lie in [0, {params.n}], got {k}")
    x = np.array(instance.target, dtype=np.int64)
    where = rng.choice(params.n, size=k, replace=False)
    wrong = rng.integers(0, params.r - 1, size=k)
    x[where] = wrong + (wrong >= x[where])  # uniform over the r-1 wrong values
    return x


def plant_state_at_fitness(instance: ProblemInstance, s: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Construct a point with fitness exactly s by spreading unit distance
    increments over randomly chosen components with remaining headroom."""
    n = instance.params.n
    caps = [_max_component_distance(instance, i) for i in range(n)]
    reachable = sum(caps)  # can undercut n*(r-1) when an interval target is interior
    if not (0 <= s <= reachable):
        raise ValueError(f"fitness level must lie in [0, {reachable}] for this target, got {s}")
    dist = [0] * n
    room = [i for i in range(n) if caps[i] > 0]
    for _ in range(s):
        j = int(rng.integers(0, len(room)))
        i = room[j]
        dist[i] += 1
        if dist[i] == caps[i]:
            room[j] = room[-1]
            room.pop()
    return realize_distances(instance, dist, rng)


def estimate_drift(config: RunConfig, potential: Potential, conditioning: Sequence,
                   samples: int) -> list[DriftEstimate]:
    """Estimate the mean one-step potential drop at each conditioning entry.

    Each entry is either an integer level (Hamming level for the hamming
    potential, fitness level for the fitness potential) or an explicit
    per-component distance vector (required for exp_weight). For every
    sample a fresh state is planted at that level and a single
    mutation-selection round of the configured algorithm is applied.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if len(conditioning) == 0:
        raise ValueError("need at least one conditioning level")
    instance = config.instance
    estimates = []
    for index, cond in enumerate(conditioning):
        rng = np.random.default_rng(subseed(config.seed, index))
        if np.isscalar(cond) or isinstance(cond, (int, np.integer)):
            level_kind = potential.kind
            if level_kind == "exp_weight":
                raise ValueError("exp_weight conditioning requires an explicit distance vector")
            plant = (plant_state_at_hamming if level_kind == "hamming"
                     else plant_state_at_fitness)
            make_state = lambda g, c=int(cond): plant(instance, c, g)  # noqa: E731
        else:
            vector = tuple(int(v) for v in cond)
            make_state = lambda g, v=vector: realize_distances(instance, v, g)  # noqa: E731
        drops = np.empty(samples)
        level = None
        for j in range(samples):
            x = make_state(rng)
            before = potential_value(potential, instance, x)
            x_next = one_iteration(config.algorithm, config.operator, instance, x, rng)
            drops[j] = before - potential_value(potential, instance, x_next)
            if level is None:
                level = before
        sd = float(drops.std(ddof=1))
        estimates.append(DriftEstimate(level=float(level),
                                       mean_drop=float(drops.mean()),
                                       confidence_halfwidth=1.96 * sd / math.sqrt(samples),
                                       samples=samples))
    return estimates
