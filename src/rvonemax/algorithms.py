"""RLS and the (1+1) EA with pluggable step operator and instrumentation.

Both algorithms keep a population of one and accept an offspring whenever
its fitness is not worse. RLS steps in exactly one uniformly chosen
position per iteration; the (1+1) EA steps in each position independently
with probability 1/n. The run records the hitting time, i.e. the 1-based
index of the first iteration whose offspring evaluates to fitness 0 (0 when
the initial point is already optimal).

Runs are deterministic functions of their seed. Replicates of a batch use
sub-seeds derived from (seed, index) via subseed(), so batches reproduce
exactly regardless of execution order or worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import StepOperatorKind, harmonic_table, step
from .potentials import Potential, potential_value
from .space import MetricKind, ProblemInstance, as_point, fitness, sample_uniform_point

DEFAULT_ITERATION_CAP = 10**10

_BLOCK = 4096
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


class AlgorithmKind(Enum):
    RLS = "rls"
    ONE_PLUS_ONE_EA = "ea"

    @classmethod
    def parse(cls, name: str) -> "AlgorithmKind":
        key = name.strip().lower()
        aliases = {"rls": cls.RLS, "ea": cls.ONE_PLUS_ONE_EA, "(1+1)ea": cls.ONE_PLUS_ONE_EA,
                   "oneplusone": cls.ONE_PLUS_ONE_EA}
        if key not in aliases:
            raise ValueError(f"unknown algorithm {name!r}; expected 'rls' or 'ea'")
        return aliases[key]


def subseed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed: seed XOR golden-ratio multiple of index.

    subseed(seed, 0) == seed & mask, so the first replicate of a batch is
    bit-identical to a plain run with the batch seed.
    """
    return (seed ^ ((index * _GOLDEN) & _MASK64)) & _MASK64


@dataclass(frozen=True, eq=False)
class RunConfig:
    algorithm: AlgorithmKind
    operator: StepOperatorKind
    instance: ProblemInstance
    seed: int
    iteration_cap: int = DEFAULT_ITERATION_CAP
    initial_point: np.ndarray | None = None
    trace_potentials: tuple[Potential, ...] | None = None

    def __post_init__(self) -> None:
        if self.iteration_cap < 1:
            raise ValueError(f"iteration_cap must be >= 1, got {self.iteration_cap}")
        if self.initial_point is not None:
            object.__setattr__(self, "initial_point", as_point(self.initial_point, self.instance.params))
        if self.trace_potentials is not None:
            # identifiers like "fitness" or "expweight:1.5" are accepted too
            object.__setattr__(self, "trace_potentials",
                               tuple(Potential.parse(p) if isinstance(p, str) else p
                                     for p in self.trace_potentials))


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one run; hitting_time is None exactly when the run was capped."""

    hitting_time: int | None
    capped: bool
    final_fitness: int
    evaluations: int  # initial sample plus one offspring evaluation per iteration
    trace: tuple[tuple[int, tuple[float, ...]], ...] | None = None


def mutate(algorithm: AlgorithmKind, operator: StepOperatorKind, instance: ProblemInstance,
           x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One mutation (no selection): returns the offspring and the number of
    positions selected for an elementary step, before feasibility filtering."""
    n, r = instance.params.n, instance.params.r
    if algorithm is AlgorithmKind.RLS:
        selected = np.asarray([rng.integers(0, n)])
    else:
        selected = np.flatnonzero(rng.random(n) < 1.0 / n)
    y = np.array(x, dtype=np.int64)
    for i in selected:
        v = step(operator, instance.metric, int(y[i]), r, rng)
        if v is not None:
            y[i] = v
    return y, int(selected.size)


def one_iteration(algorithm: AlgorithmKind, operator: StepOperatorKind,
                  instance: ProblemInstance, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One full mutation-selection round; returns the retained point."""
    y, _ = mutate(algorithm, operator, instance, x, rng)
    return y if fitness(instance, y) <= fitness(instance, x) else np.array(x, dtype=np.int64)


def run(config: RunConfig) -> RunRecord:
    """Execute one seeded run until the optimum is evaluated or the cap hits."""
    rng = np.random.default_rng(subseed(config.seed, 0))
    instance = config.instance
    if config.initial_point is not None:
        x0 = np.array(config.initial_point, dtype=np.int64)
    else:
        x0 = sample_uniform_point(instance.params, rng)
    hit, final_fit, trace = _simulate(instance, config.algorithm, config.operator, rng,
                                      x0, config.iteration_cap, config.trace_potentials)
    capped = hit is None
    iterations = config.iteration_cap if capped else hit
    return RunRecord(hitting_time=hit, capped=capped, final_fitness=final_fit,
                     evaluations=iterations + 1,
                     trace=None if trace is None else tuple(trace))


def run_batch(config: RunConfig, replicates: int, workers: int = 1) -> list[RunRecord]:
    """Run independent replicates with sub-seeds subseed(config.seed, k).

    Results are ordered by replicate index and identical for any worker
    count; workers > 1 distributes replicates over processes.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return _map_runs(run, [_with_seed(config, subseed(config.seed, k))
                           for k in range(replicates)], workers)


def _map_runs(run_fn, configs: list[RunConfig], workers: int) -> list[RunRecord]:
    """run_fn over configs in order; workers > 1 spreads them over processes.

    Callers pass the `run` of their own module, so a wrapper installed on
    that module-level name sees every call.
    """
    if workers <= 1 or len(configs) == 1:
        return [run_fn(c) for c in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_fn, configs, chunksize=max(1, len(configs) // (4 * workers))))


def _with_seed(config: RunConfig, seed: int) -> RunConfig:
    return RunConfig(algorithm=config.algorithm, operator=config.operator,
                     instance=config.instance, seed=seed,
                     iteration_cap=config.iteration_cap,
                     initial_point=config.initial_point,
                     trace_potentials=config.trace_potentials)


def _simulate(instance, algorithm, operator, rng, x0, cap, trace_pots):
    """Hot loop. Scalar state in Python lists, randomness drawn in blocks.

    Returns (hitting_time or None, final_fitness, trace or None).
    """
    params = instance.params
    n, r = params.n, params.r
    ring = instance.metric is MetricKind.RING
    z = instance.target.tolist()
    x = x0.tolist()
    if ring:
        dist = [min(abs(a - b), r - abs(a - b)) for a, b in zip(x, z)]
    else:
        dist = [abs(a - b) for a, b in zip(x, z)]
    fit = sum(dist)

    pots = trace_pots or ()
    trace = [] if pots else None
    if trace is not None:
        trace.append((0, tuple(potential_value(p, instance, np.asarray(x)) for p in pots)))
    if fit == 0:
        return 0, 0, trace

    rls = algorithm is AlgorithmKind.RLS
    uniform_op = operator is StepOperatorKind.UNIFORM
    pm1_op = operator is StepOperatorKind.PLUS_MINUS_ONE
    table = harmonic_table(r) if operator is StepOperatorKind.HARMONIC else None

    block = _BLOCK
    inv_n = 1.0 / n
    counts = pos = raws = signs = jumps = ()
    cp = pp = up = sp = jp = block
    pending: list[tuple[int, int, int]] = []
    t = 0

    while t < cap:
        t += 1
        if rls:
            b = 1
        else:
            if cp == block:
                counts = rng.binomial(n, inv_n, size=block).tolist()
                cp = 0
            b = counts[cp]
            cp += 1
        if b == 0:
            if trace is not None:
                trace.append((t, trace[-1][1]))
            continue
        if b == 1:
            if pp == block:
                pos = rng.integers(0, n, size=block).tolist()
                pp = 0
            chosen = (pos[pp],)
            pp += 1
        else:
            seen = set()
            picks = []
            while len(picks) < b:
                if pp == block:
                    pos = rng.integers(0, n, size=block).tolist()
                    pp = 0
                v = pos[pp]
                pp += 1
                if v not in seen:
                    seen.add(v)
                    picks.append(v)
            chosen = picks

        del pending[:]
        delta = 0
        for i in chosen:
            cur = x[i]
            if uniform_op:
                if up == block:
                    raws = rng.integers(0, r - 1, size=block).tolist()
                    up = 0
                v = raws[up]
                up += 1
                new = v if v < cur else v + 1
            else:
                if pm1_op:
                    jump = 1
                else:
                    if jp == block:
                        jumps = table.sample_block(rng, block).tolist()
                        jp = 0
                    jump = jumps[jp]
                    jp += 1
                if sp == block:
                    signs = rng.integers(0, 2, size=block).tolist()
                    sp = 0
                if signs[sp] == 0:
                    jump = -jump
                sp += 1
                new = cur + jump
                if ring:
                    new %= r
                elif new < 0 or new >= r:
                    continue  # infeasible step, component unchanged
            zd = z[i]
            nd = new - zd
            if nd < 0:
                nd = -nd
            if ring and r - nd < nd:
                nd = r - nd
            delta += nd - dist[i]
            pending.append((i, new, nd))

        if delta <= 0 and pending:
            for i, new, nd in pending:
                x[i] = new
                dist[i] = nd
            fit += delta
        if trace is not None:
            trace.append((t, tuple(potential_value(p, instance, np.asarray(x)) for p in pots)))
        if fit == 0:
            return t, 0, trace

    return None, fit, trace
