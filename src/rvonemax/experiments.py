"""Replicated run-time studies over (n, r) grids and scaling-law fitting.

A plan sweeps a grid of problem sizes over chosen algorithms and step
operators, with declarative policies for the hidden target and the start
point. A cell (one n, r, algorithm and operator) is the unit of seeding,
set-up and dispatch: its seed is a keyed hash of the cell identity under
the plan's base seed, its replicates are run_batch's sub-seeds of it, its
random targets and planted starts come from one set-up stream, and its
runs go to the engine together. So a cell's results do not depend on the
grid or on execution order.

Aggregates can be fed to a least-squares fitter with a small catalog of
named scaling models (all linear in their coefficients).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .algorithms import (DEFAULT_ITERATION_CAP, AlgorithmKind, RunConfig, _hits, _lockstep,
                         _map_runs, _replicate, run, subseed)
from .drift import _place_at_hamming, plant_state_at_hamming
from .operators import StepOperatorKind
from .space import MetricKind, ProblemInstance, SpaceParams, _read_only_points, _scaled

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_seed(base_seed: int, key: str) -> int:
    """Platform-stable 64-bit seed for a named unit of work."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8,
                             key=(base_seed & _MASK64).to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


class TargetPolicy(Enum):
    ALL_ZERO = "zero"
    CENTER = "center"
    UNIFORM_RANDOM = "random"

    @classmethod
    def parse(cls, name: str) -> "TargetPolicy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown target policy {name!r}") from None


class StartKind(Enum):
    UNIFORM_RANDOM = "random"
    FIXED_HAMMING = "hamming"
    ALL_MAX_DISTANCE = "maxdist"


@dataclass(frozen=True)
class StartPolicy:
    kind: StartKind
    hamming_k: int | None = None

    def __post_init__(self) -> None:
        if self.kind is StartKind.FIXED_HAMMING:
            if self.hamming_k is None or self.hamming_k < 0:
                raise ValueError("fixed-hamming start needs a non-negative k")
        elif self.hamming_k is not None:
            raise ValueError(f"start policy {self.kind.value!r} takes no k")

    @classmethod
    def uniform_random(cls) -> "StartPolicy":
        return cls(StartKind.UNIFORM_RANDOM)

    @classmethod
    def fixed_hamming(cls, k: int) -> "StartPolicy":
        return cls(StartKind.FIXED_HAMMING, k)

    @classmethod
    def all_max_distance(cls) -> "StartPolicy":
        return cls(StartKind.ALL_MAX_DISTANCE)


@dataclass(frozen=True)
class ExperimentPlan:
    grid: tuple[tuple[int, int], ...]
    algorithms: tuple[AlgorithmKind, ...]
    operators: tuple[StepOperatorKind, ...]
    metric: MetricKind
    target_policy: TargetPolicy = TargetPolicy.ALL_ZERO
    start_policy: StartPolicy = StartPolicy.uniform_random()
    replicates: int = 100
    base_seed: int = 0
    iteration_cap: int = DEFAULT_ITERATION_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple((int(n), int(r)) for n, r in self.grid))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "operators", tuple(self.operators))
        if not self.grid:
            raise ValueError("grid must not be empty")
        if not self.algorithms or not self.operators:
            raise ValueError("need at least one algorithm and one operator")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.iteration_cap < 1:
            raise ValueError(f"iteration_cap must be >= 1, got {self.iteration_cap}")
        k = self.start_policy.hamming_k
        for n, r in self.grid:
            SpaceParams(n=n, r=r)  # rejects n < 1, r < 2 and r >= 2**53
            if k is not None and k > n:
                raise ValueError(f"fixed-hamming k={k} exceeds n={n}")


@dataclass(frozen=True)
class AggregateResult:
    """Per-cell statistics of the uncapped hitting times."""

    n: int
    r: int
    algorithm: AlgorithmKind
    operator: StepOperatorKind
    metric: MetricKind
    mean: float
    std_error: float
    median: float
    replicates: int
    capped_count: int

    @property
    def censored(self) -> bool:
        return self.capped_count > 0


def build_target(policy: TargetPolicy, params: SpaceParams,
                 rng: np.random.Generator | None) -> np.ndarray:
    """Target vector of a replicate; only the random policy draws from rng,
    n uniforms mapped to floor(u * r)."""
    if policy is TargetPolicy.ALL_ZERO:
        return np.zeros(params.n, dtype=np.int64)
    if policy is TargetPolicy.CENTER:
        return np.full(params.n, params.r // 2, dtype=np.int64)
    return _scaled(rng.random(params.n), params.r)


def _farthest(metric: MetricKind, r: int, targets: np.ndarray) -> np.ndarray:
    """The value farthest from each target value; on the interval ties are
    broken toward r-1."""
    if metric is MetricKind.RING:
        return (targets + r // 2) % r
    return np.where(targets > (r - 1) - targets, 0, r - 1)


def build_start(policy: StartPolicy, instance: ProblemInstance,
                rng: np.random.Generator | None) -> np.ndarray | None:
    """Start point for a replicate, or None to let the run sample uniformly;
    only the fixed-Hamming policy draws from rng."""
    if policy.kind is StartKind.UNIFORM_RANDOM:
        return None
    if policy.kind is StartKind.FIXED_HAMMING:
        return plant_state_at_hamming(instance, policy.hamming_k, rng)
    return _farthest(instance.metric, instance.params.r, instance.target)


def _cell(plan: ExperimentPlan, n: int, r: int, algorithm: AlgorithmKind,
          operator: StepOperatorKind, reps: range):
    """(config, seeds, targets, starts): replicates `reps` of one cell as a
    batch of _map_runs, a template config and the replicates' columns.

    The cell's seed is stable_seed(base_seed, "n|r|algo|op|metric"), and
    replicate k runs with subseed(cell seed, k), as in run_batch. Only a
    random target and a planted start draw, from the cell's set-up stream
    default_rng(stable_seed(base_seed, cell + "|setup")): replicate k's
    draws are row k of it, one row of uniforms per replicate in the order
    build_target and build_start draw (the target's n, then the n + k of
    plant_rows_at_hamming), reached by advancing the stream past the rows
    before reps. A zero or center target is the template's own, shared by
    the cell (targets is None), and so is a uniform start (starts is None:
    each run draws its own); the random targets and the other starts are
    read-only (len(reps), n) blocks, each range-checked once.
    """
    cell = f"{n}|{r}|{algorithm.value}|{operator.value}|{plan.metric.value}"
    params = SpaceParams(n=n, r=r)
    policy, kind = plan.target_policy, plan.start_policy.kind
    lead = n if policy is TargetPolicy.UNIFORM_RANDOM else 0  # the target's uniforms
    k = plan.start_policy.hamming_k if kind is StartKind.FIXED_HAMMING else None
    draws = np.empty((len(reps), lead + (0 if k is None else n + k)))
    if draws.shape[1]:
        rng = np.random.default_rng(stable_seed(plan.base_seed, cell + "|setup"))
        rng.bit_generator.advance(reps.start * draws.shape[1])  # one 64-bit output per uniform
        rng.random(out=draws)
    targets = _read_only_points(_scaled(draws[:, :n], r), params) if lead else None
    instance = ProblemInstance(params=params, metric=plan.metric,
                               target=targets[0] if lead else build_target(policy, params, None))
    rows = targets if lead else instance.target[None, :]
    starts = None
    if k is not None:
        starts = _place_at_hamming(np.broadcast_to(rows, (len(reps), n)), draws[:, lead:], r)
    elif kind is StartKind.ALL_MAX_DISTANCE:
        starts = np.broadcast_to(_farthest(plan.metric, r, rows), (len(reps), n))
    if starts is not None:
        starts = _read_only_points(starts, params)
    seed = stable_seed(plan.base_seed, cell)
    config = RunConfig(algorithm=algorithm, operator=operator, instance=instance, seed=seed,
                       iteration_cap=plan.iteration_cap)
    return config, subseed(seed, np.arange(reps.start, reps.stop, dtype=np.uint64)), targets, starts


def _replicate_config(plan: ExperimentPlan, n: int, r: int, algorithm: AlgorithmKind,
                      operator: StepOperatorKind, rep: int) -> RunConfig:
    """The RunConfig of one replicate, built by the constructors from the
    one-replicate _cell."""
    return _replicate(0, *_cell(plan, n, r, algorithm, operator, range(rep, rep + 1)))


def column_summary(times, capped) -> tuple[float, float, float, int]:
    """(mean, std_error, median, capped count) of runs given as columns of
    hitting times and of capped flags, the statistics over the uncapped runs:
    none gives nan mean and median, fewer than two give std_error 0.0."""
    times, capped = np.asarray(times)[~capped].astype(np.float64), int(np.count_nonzero(capped))
    if times.size == 0:
        return float("nan"), 0.0, float("nan"), capped
    std_error = float(times.std(ddof=1) / math.sqrt(times.size)) if times.size > 1 else 0.0
    o, k = np.sort(times), times.size  # one sort: np.median partitions twice, several times slower
    return float(times.mean()), std_error, float((o[(k - 1) // 2] + o[k // 2]) / 2), capped


def hitting_time_summary(records) -> tuple[float, float, float, int]:
    """column_summary of records with `.hitting_time` and `.capped`."""
    return column_summary(np.array([rec.hitting_time for rec in records], dtype=np.float64),
                          np.array([rec.capped for rec in records], dtype=bool))


def execute_plan(plan: ExperimentPlan) -> list[AggregateResult]:
    """Run the whole plan, one cell at a time; one aggregate per grid cell x
    algorithm x operator; a lockstep cell from its _hits column alone."""
    out = []
    for (n, r), algorithm, operator in product(plan.grid, plan.algorithms, plan.operators):
        cell = _cell(plan, n, r, algorithm, operator, range(plan.replicates))
        if _lockstep(cell[0]):
            hits = _hits(*cell)
            summary = column_summary(hits, hits > plan.iteration_cap)
        else:
            summary = hitting_time_summary(_map_runs(run, *cell))
        mean, std_error, median, capped = summary
        out.append(AggregateResult(n=n, r=r, algorithm=algorithm, operator=operator,
                                   metric=plan.metric, mean=mean, std_error=std_error,
                                   median=median, replicates=plan.replicates,
                                   capped_count=capped))
    return out


# ---------------------------------------------------------------------------
# Scaling-law fitting
# ---------------------------------------------------------------------------

class DegenerateModelError(ValueError):
    """Raised when a fit's design matrix is rank deficient."""


MODELS: dict[str, tuple[tuple[str, object], ...]] = {
    # c * (r-1) * n * ln(n)
    "uniform_rnlogn": (("(r-1)*n*log(n)", lambda n, r: (r - 1.0) * n * math.log(n)),),
    # a * n * r + b * n * ln(n)
    "pm1_r_plus_logn": (("n*r", lambda n, r: n * r),
                        ("n*log(n)", lambda n, r: n * math.log(n))),
    # c * n * ln(r) * (ln(n) + ln(r))
    "harmonic_polylog": (("n*log(r)*(log(n)+log(r))",
                          lambda n, r: n * math.log(r) * (math.log(n) + math.log(r))),),
    # a * ln(r)^2 + b * ln(r) + c
    "quadratic_log_r": (("log(r)^2", lambda n, r: math.log(r) ** 2),
                        ("log(r)", lambda n, r: math.log(r)),
                        ("1", lambda n, r: 1.0)),
    # a * r + b
    "linear_r": (("r", lambda n, r: float(r)), ("1", lambda n, r: 1.0)),
}


@dataclass(frozen=True)
class ScalingFit:
    model: str
    terms: tuple[str, ...]
    coefficients: tuple[float, ...]
    r_squared: float
    residuals: tuple[float, ...]

    def predict(self, n: int, r: int) -> float:
        features = MODELS[self.model]
        return float(sum(c * f(float(n), float(r))
                         for c, (_, f) in zip(self.coefficients, features)))


def _as_points(results) -> list[tuple[float, float, float]]:
    points = []
    for item in results:
        if isinstance(item, AggregateResult):
            points.append((float(item.n), float(item.r), float(item.mean)))
        else:
            n, r, value = item
            points.append((float(n), float(r), float(value)))
    return points


def fit_scaling(results, model: str) -> ScalingFit:
    """Closed-form least squares of a named model over per-cell means."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choices: {sorted(MODELS)}")
    points = _as_points(results)
    features = MODELS[model]
    if len(points) < 4:
        raise ValueError(f"need at least 4 cells, got {len(points)}")
    if len(features) >= len(points):
        raise ValueError(f"model {model!r} has {len(features)} coefficients "
                         f"but only {len(points)} cells")
    if any(not math.isfinite(v) for _, _, v in points):
        raise ValueError("cannot fit non-finite cell means (censored aggregates?)")
    design = np.array([[f(n, r) for _, f in features] for n, r, _ in points])
    values = np.array([v for _, _, v in points])
    rank = np.linalg.matrix_rank(design)
    if rank < len(features):
        involved = [name for j, (name, _) in enumerate(features)
                    if np.linalg.matrix_rank(np.delete(design, j, axis=1)) == rank]
        raise DegenerateModelError(f"design matrix is rank deficient; "
                                   f"collinear terms: {', '.join(involved)}")
    coef, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    fitted = design @ coef
    residuals = values - fitted
    ss_res = float((residuals ** 2).sum())
    ss_tot = float(((values - values.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(model=model, terms=tuple(name for name, _ in features),
                      coefficients=tuple(float(c) for c in coef),
                      r_squared=r_squared,
                      residuals=tuple(float(v) for v in residuals))
