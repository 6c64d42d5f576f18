"""Empirical one-step drift estimation at planted potential levels.

The estimator plants search points at prescribed potential levels (exact
Hamming level, exact fitness level, or an explicit per-component distance
vector), applies a single mutation-selection round, and averages the
one-step drop of the chosen potential. Planting makes conditioning on a
level exact instead of waiting for natural visits. The samples of a level
are planted, stepped and scored as (S, n) numpy arrays, S rows at a time.

A fitness level s is planted by spreading s units of distance over the
components, each unit on a uniform component with room left (component i
has room up to its largest distance c_i). That loop is simulated by
rejection in rounds. A row that still needs k units draws min(k, n)
labels in a round, each a uniform component among those with room at the
start of the round, and a label adds a unit iff its component still has
room. So an accepted label is uniform over the components with room left,
and a round never passes the s-th unit. The row's distances after the
round are min(d + label counts, c), whatever the order of its labels, so
the rounds give exactly the loop's law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import RunConfig, one_iteration, subseed
from .potentials import Potential, potential_value
from .space import MetricKind, ProblemInstance, _scaled


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

BLOCK_ROWS = 1024  # rows planted and stepped at once; bounds the arrays' memory


def _realize(instance: ProblemInstance, dist: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Rows of points at the given (S, n) per-component distances from the
    target, each value on a side chosen uniformly among the feasible ones."""
    r = instance.params.r
    z = instance.target
    up = rng.integers(0, 2, dist.shape) == 1
    if instance.metric is MetricKind.RING:
        # both sides are feasible; they coincide when d = 0 or 2d = r
        return np.where(up, z + dist, z - dist) % r
    up_ok, down_ok = z + dist < r, z - dist >= 0
    return np.where(up_ok & (up | ~down_ok), z + dist, z - dist)


def realize_distance_rows(instance: ProblemInstance, distances: Sequence[int], rows: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(rows, n) points whose per-component distances to the target are as
    given, each value on a side chosen uniformly among the feasible ones."""
    n = instance.params.n
    dist = np.asarray(distances, dtype=np.int64)
    if dist.shape != (n,):
        raise ValueError(f"need {n} distances, got {len(distances)}")
    bad = np.flatnonzero((dist < 0) | (dist > instance.max_distances))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"distance {int(dist[i])} infeasible at position {i}")
    return _realize(instance, np.broadcast_to(dist, (rows, n)), rng)


def plant_state_at_hamming(instance: ProblemInstance, k: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Corrupt k uniformly chosen positions of the target to wrong values;
    the one-row call of plant_rows_at_hamming."""
    return plant_rows_at_hamming(instance, k, 1, rng)[0]


def plant_rows_at_hamming(instance: ProblemInstance, k: int, rows: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(rows, n) points, each the target with k uniformly chosen positions set
    to uniform wrong values, from n + k uniforms per row (see
    _place_at_hamming)."""
    n = instance.params.n
    if not (0 <= k <= n):
        raise ValueError(f"hamming level must lie in [0, {n}], got {k}")
    return _place_at_hamming(np.broadcast_to(instance.target, (rows, n)),
                             rng.random((rows, n + k)), instance.params.r)


def _place_at_hamming(targets: np.ndarray, u: np.ndarray, r: int) -> np.ndarray:
    """A copy of the (rows, n) target rows, each with k positions set to
    wrong values drawn from its row of n + k uniforms u: the positions of
    its k smallest keys u[:n], in position order, take its k draws
    w = floor(u[n:] * (r-1)) from [0, r-2], w standing for w + (w >= x).
    So uniform u give a uniform k-subset set to uniform wrong values; at
    k = n the subset is every position, and no keys are sorted."""
    x = np.array(targets, dtype=np.int64)
    rows, n = x.shape
    k = u.shape[1] - n
    picked = (slice(None), slice(None))  # at k = n, every position; its keys go unused
    if k < n:
        picked = np.arange(rows)[:, None], np.sort(np.argsort(u[:, :n], axis=1)[:, :k], axis=1)
    wrong = _scaled(u[:, n:], r - 1)
    x[picked] = wrong + (wrong >= x[picked])
    return x


def plant_rows_at_fitness(instance: ProblemInstance, s: int, rows: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(rows, n) points with fitness exactly s: each row spreads s unit
    distance increments over uniformly chosen components with headroom left.

    Placed by rejection in rounds (see the module docstring), BLOCK_ROWS
    rows at a time: no round draws more than BLOCK_ROWS * n uniforms.
    """
    reachable = instance.max_fitness
    if not (0 <= s <= reachable):
        raise ValueError(f"fitness level must lie in [0, {reachable}] for this target, got {s}")
    dist = np.zeros((rows, instance.params.n), dtype=np.int64)
    for lo in range(0, rows, BLOCK_ROWS):
        _spread(dist[lo:lo + BLOCK_ROWS], s, instance.max_distances, rng)
    return _realize(instance, dist, rng)


def _spread(d: np.ndarray, s: int, caps: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the zero rows of d with s units each, in rounds of up to n labels
    per row: uniforms scaled to indices among the row's components with room."""
    n = d.shape[1]
    live = np.arange(len(d) if s else 0)
    need = np.full(len(live), s)
    while live.size:
        k = np.minimum(need, n)
        room = d[live] < caps
        cnt = room.sum(axis=1)
        pick = _scaled(rng.random(int(k.sum())), np.repeat(cnt, k))  # among the row's open ones
        labels = np.flatnonzero(room)[pick + np.repeat(np.cumsum(cnt) - cnt, k)]
        new = np.bincount(labels, minlength=live.size * n).reshape(live.size, n)
        new += d[live]
        np.minimum(new, caps, out=new)
        d[live] = new
        need = s - new.sum(axis=1)
        live, need = live[need > 0], need[need > 0]
        del labels, new, pick, room  # freed before the next draws: a round holds a few blocks


def plant_state_at_fitness(instance: ProblemInstance, s: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Construct a point with fitness exactly s by spreading unit distance
    increments over randomly chosen components with remaining headroom; the
    one-row call of plant_rows_at_fitness."""
    return plant_rows_at_fitness(instance, s, 1, rng)[0]


def estimate_drift(config: RunConfig, potential: Potential, conditioning: Sequence,
                   samples: int) -> list[DriftEstimate]:
    """Estimate the mean one-step potential drop at each conditioning entry.

    Each entry is either an integer level (Hamming level for the hamming
    potential, fitness level for the fitness potential) or an explicit
    per-component distance vector (required for exp_weight). For every
    sample a fresh state is planted at that level and a single
    mutation-selection round of the configured algorithm is applied. The
    samples of a level are drawn in blocks of BLOCK_ROWS rows from the
    generator seeded with subseed(seed, level index).
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
            if potential.kind == "exp_weight":
                raise ValueError("exp_weight conditioning requires an explicit distance vector")
            plant = (plant_rows_at_hamming if potential.kind == "hamming"
                     else plant_rows_at_fitness)
            level = int(cond)
        else:
            plant, level = realize_distance_rows, tuple(int(v) for v in cond)
        drops = np.empty(samples)
        for lo in range(0, samples, BLOCK_ROWS):
            x = plant(instance, level, min(BLOCK_ROWS, samples - lo), rng)
            # the rows of a level all score the same (k, s or the vector's), so score one
            before = potential_value(potential, instance, x[:1])[0]
            x_next = one_iteration(config.algorithm, config.operator, instance, x, rng)
            drops[lo:lo + len(x)] = before - potential_value(potential, instance, x_next)
        sd = float(drops.std(ddof=1))
        estimates.append(DriftEstimate(level=float(before),
                                       mean_drop=float(drops.mean()),
                                       confidence_halfwidth=1.96 * sd / math.sqrt(samples),
                                       samples=samples))
    return estimates
