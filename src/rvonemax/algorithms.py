"""RLS and the (1+1) EA with pluggable step operator and instrumentation.

Both algorithms keep a population of one and accept an offspring whenever
its fitness is not worse. RLS steps in exactly one uniformly chosen
position per iteration; the (1+1) EA steps in each position independently
with probability 1/n. The run records the hitting time, i.e. the 1-based
index of the first iteration whose offspring evaluates to fitness 0 (0 when
the initial point is already optimal).

RLS is simulated in lockstep over a batch of runs. A step at position i is
accepted, and changes x_i, with a closed-form probability a_i = w_i / per
that depends on d_i alone, so in continuous time, with iterations at rate
norm = per * n, the positions are independent chains: position i moves at
rate w_i by its move conditioned on acceptance, and the rejected
iterations come at rate norm - sum(w). The kernel advances every
(replicate, unfinished position) lane of a batch as numpy arrays, one move
per lane and round: a lane draws e ~ Exp(1), adds e / w_i to its clock
and moves. A run's hitting time is its number of moves M plus a Poisson
count of rejected iterations, of mean norm * tau - sum(e), with tau its
last lane's clock and sum(e) all its lanes' draws. Traced and capped runs
are replayed with their moves recorded, merged by clock, with that count
split over the intervals between moves. A batch costs about its largest
number of moves at one position in numpy rounds, plus a few calls per run.

The (1+1) EA is simulated rejection-free (the n-fold way of Bortz, Kalos
and Lebowitz; Gillespie's SSA), one event per iteration in which some
selected position takes a not-worse step (a feasible step that does not
raise its own distance to the target). Position i does so with
probability a_i / n, independently of the others, with RLS's a_i; in any
other iteration each selected step is discarded as infeasible or raises the
fitness, so x is unchanged. The waits between events come from a Poisson
process of such steps, the positions that step not-worse are picked by
their weight w_i and move by the conditioned law, and the other selected
positions are drawn with their step conditioned on missing, until the
offspring is sure to be rejected; their number, Bin(n, 1/n), comes from
Generator.binomial. A run costs about its number of events, not its number
of iterations.

The lockstep kernel and the EA's loop, _simulate_ea, leave the step operator
to a per-position law (_law for the EA's uniform and harmonic steps, its
vectorized closed forms _lane_law for RLS), which owns the weights and the
conditioned moves, and _law also the misses and the pick index; the harmonic
laws, and one_iteration, read the jump law F of the shared
operators.HarmonicTable. The EA's +-1 law is written inline in its loop
instead: its weights are 1 or 2, one pick ticket per unit, so a pick with
its move, and a miss, each take one uniform, and no +-1 event calls a law.
Every kernel takes a start point the config lacks as the first n draws of
the run's stream, and builds a trace after the run with one builder, _trace,
which scores the points after the run's accepted changes a block at a time.

Runs are deterministic functions of their seed, and run one after another
in the calling process. Replicates of a batch use sub-seeds derived from
(seed, index) via subseed(), so batches reproduce exactly regardless of
execution order. An EA run draws from default_rng(seed). An RLS run draws
from counter-based streams keyed by _mix(seed) (_uniforms, _poisson): each
value is a function of the seed, the position and the round, so its record
is the same alone (run) and in any lockstep batch, whatever LANES is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from math import lgamma, log1p, sqrt

import numpy as np

from .operators import StepOperatorKind, harmonic_table, step
from .potentials import Potential, potential_value
from .space import (MetricKind, ProblemInstance, _scaled, as_point, component_distances,
                    fitness, sample_uniform_point)  # fitness: a name bench/tracer.py swaps

DEFAULT_ITERATION_CAP = 10**10
LANES = 8192  # lanes (replicate x position) the lockstep RLS kernel holds at once

_BLOCK = 4096
_TRACE_BLOCK = 1024  # changes _trace scores at once
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PAIR = np.arange(2, dtype=np.uint64)
_SECOND = np.uint64(1 << 63)  # key ^ _SECOND: the stream 2**63 counters on, for Poisson counts
_POISSON_MAX = 2**63 - 1 - 10 * sqrt(2**63 - 1)  # Generator.poisson's bound


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
    bit-identical to a plain run with the batch seed. A uint64 array index
    (with seed in [0, 2**64)) gives each index's sub-seed."""
    return (seed ^ ((index * _GOLDEN) & _MASK64)) & _MASK64


def _mix(z):
    """The SplitMix64 finalizer of each word of the uint64 array z."""
    z = (z ^ z >> 30) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> 27) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> 31


def _uniforms(keys, counters):
    """Uniform doubles in [0, 1): the value at each counter of the stream
    of each key (uint64 arrays, broadcast), each computed on its own, so in
    any order or batch (a counter-based generator, Salmon et al., SC'11).

    The stream of a key, _mix(seed), is SplitMix64 started at the key: at
    counter c, the top 53 bits of _mix(key + (c + 1) * golden), mod 2**64.
    Only arrays are used, since numpy warns on uint64 scalar overflow."""
    return (_mix(keys + (counters + np.uint64(1)) * np.uint64(_GOLDEN)) >> 11) * 2.0**-53


def _poisson(keys, means):
    """One Poisson(mean) count per key, exactly, from the key's stream.

    Below 10, inversion of the uniform u at counter 0: the least k with
    P[X <= k] > u. From 10 on, PTRS (Hoermann, "The transformed rejection
    method for generating Poisson random variables", 1993), as numpy's
    Generator.poisson draws it: try a of every key still drawing in pass a,
    from counters 2a and 2a + 1, up to the key's first accepted try. A mean
    above numpy's bound, _POISSON_MAX, is a ValueError there and here."""
    means = np.asarray(means, dtype=np.float64)
    if not (means <= _POISSON_MAX).all():
        raise ValueError(f"Poisson means must lie in [0, {_POISSON_MAX:.6g}]")
    counts = np.zeros(means.size, dtype=np.int64)
    ids, k = np.flatnonzero(means < 10), 0
    lam, u = means[ids], _uniforms(keys[ids], _PAIR[:1])
    cdf = p = np.exp(-lam)  # P[X <= k] and P[X = k]
    while ids.size:
        going = (u >= cdf) & (p > 0)  # a cdf that stops growing ends at its last k
        counts[ids[~going]] = k
        ids, lam, u, p, cdf = (a[going] for a in (ids, lam, u, p, cdf))
        k += 1
        p = p * lam / k
        cdf = cdf + p
    ids, t = np.flatnonzero(means >= 10), 0
    while ids.size:
        # try t of every key still drawing; the log test only where the quick one fails
        lam = means[ids]
        b = 0.931 + 2.53 * np.sqrt(lam)
        a, vr = -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2)
        uv = _uniforms(keys[ids, None], np.uint64(2 * t) + _PAIR)
        U, V = uv[:, 0] - 0.5, uv[:, 1]
        us = np.maximum(0.5 - np.abs(U), 1e-300)  # 0 only at U = -0.5, which k < 0 rejects
        k = np.floor((2 * a / us + b) * U + lam + 0.43)
        take = (us >= 0.07) & (V <= vr)
        i = np.flatnonzero(~take & (k >= 0) & ((us >= 0.013) | (V <= us)))
        invalpha = 1.1239 + 1.1328 / (b[i] - 3.4)
        take[i] = (np.log(V[i] * invalpha / (a[i] / us[i] ** 2 + b[i]))
                   <= k[i] * np.log(lam[i]) - lam[i] - [lgamma(v) for v in k[i] + 1])
        counts[ids[take]] = k[take]
        ids, t = ids[~take], t + 1
    return counts


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
        object.__setattr__(self, "seed", self.seed & _MASK64)  # its generator seed, mod 2**64
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
    """One mutation-selection round on every row of the (S, n) array x at
    once; returns the (S, n) retained points.

    RLS selects one uniform column per row, the (1+1) EA each cell with
    probability 1/n. Each selected cell steps by the law of operators.step,
    and a row keeps its offspring iff its fitness is not worse: iff the
    distance changes at its selected cells sum to <= 0.
    """
    x = np.array(x, dtype=np.int64)  # a copy, into which kept offspring cells go
    m, n = x.shape
    r = instance.params.r
    if n != instance.params.n or x.min() < 0 or x.max() >= r:
        raise ValueError(f"points must be rows of {instance.params.n} values in [0, {r - 1}]")
    if algorithm is AlgorithmKind.RLS:
        rows, cols = np.arange(m), rng.integers(0, n, m)
    else:
        rows, cols = np.nonzero(rng.random((m, n)) < 1.0 / n)
    cur = x[rows, cols]
    if operator is StepOperatorKind.UNIFORM:
        v = rng.integers(0, r - 1, cur.size)
        new = v + (v >= cur)
    else:
        jump = (1 if operator is StepOperatorKind.PLUS_MINUS_ONE
                else harmonic_table(r).jump(rng.random(cur.size)))
        new = np.where(rng.integers(0, 2, cur.size) == 0, cur - jump, cur + jump)
        if instance.metric is MetricKind.RING:
            new %= r
        else:
            new = np.where((new >= 0) & (new < r), new, cur)  # infeasible: discarded
    z, metric = instance.target[cols], instance.metric
    change = np.zeros(m, dtype=np.int64)  # each row's fitness change, summed exactly
    np.add.at(change, rows, (component_distances(metric, new, z, r)
                             - component_distances(metric, cur, z, r)))
    keep = change[rows] <= 0
    x[rows[keep], cols[keep]] = new[keep]
    return x


def run(config: RunConfig) -> RunRecord:
    """Execute one seeded run until the optimum is evaluated or the cap hits."""
    if _lockstep(config):
        return _run_lanes(config, np.array([config.seed], dtype=np.uint64))[0]
    # an EA run draws from default_rng(seed): its start point first, when the config has none
    rng = np.random.default_rng(config.seed)
    x0 = (config.initial_point if config.initial_point is not None
          else sample_uniform_point(config.instance.params, rng))
    changes = [] if config.trace_potentials else None
    hit, final_fit = _simulate_ea(config.instance, config.operator, rng, x0,
                                  config.iteration_cap, changes)
    capped = hit is None
    iterations = config.iteration_cap if capped else hit
    trace = None
    if changes is not None:
        changes = np.array(changes, dtype=np.int64).reshape(-1, 3).T  # frees the list
        trace = _trace(config.instance, config.trace_potentials, x0, changes, iterations)
    return RunRecord(hitting_time=hit, capped=capped, final_fitness=final_fit,
                     evaluations=iterations + 1, trace=trace)


def run_batch(config: RunConfig, replicates: int) -> list[RunRecord]:
    """Run independent replicates with sub-seeds subseed(config.seed, k),
    ordered by replicate index."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return _map_runs(run, config, subseed(config.seed, np.arange(replicates, dtype=np.uint64)))


def _map_runs(run_fn, config: RunConfig, seeds, targets=None, starts=None) -> list[RunRecord]:
    """The record of each replicate of a batch, in order (a run_batch, or a
    plan cell).

    Replicate k is the template config with seed seeds[k], target
    targets[k] and start starts[k]; seeds is a uint64 array, targets and
    starts are read-only (replicates, n) blocks, range-checked once as a
    whole, and None means the config's own target or start serves every
    replicate. Lockstep batches (RLS, and the EA at n = 1) go to the
    lockstep kernel (_run_lanes). Other replicates are built one at a time
    as configs (_replicate) and go to run_fn: callers pass the `run` of
    their own module, so a wrapper installed on that module-level name sees
    every call that is not a lockstep group.
    """
    if not _lockstep(config):
        return [run_fn(_replicate(k, config, seeds, targets, starts)) for k in range(len(seeds))]
    return _run_lanes(config, seeds, targets, starts)


def _replicate(k, config, seeds, targets=None, starts=None):
    """Replicate k of a batch (see _map_runs) as its own config, built by
    the RunConfig and ProblemInstance constructors."""
    instance = config.instance
    if targets is not None:
        instance = ProblemInstance(instance.params, instance.metric, targets[k])
    return replace(config, instance=instance, seed=int(seeds[k]),
                   initial_point=config.initial_point if starts is None else starts[k])


def _trace(instance, potentials, x0, changes, last):
    """The trace rows (t, values) for t = 0, ..., last of a run from x0:
    row t holds the potentials at the point after every change of an
    iteration <= t.

    changes = (iteration, position, new value) are arrays in the order the
    run made its changes. The point after each change is built by forward
    fill per position and scored _TRACE_BLOCK changes at a time, so the
    memory is O(_TRACE_BLOCK * n) beside the O(last) rows.
    """
    when, pos, new = changes
    points = x0[None]
    scores = [np.column_stack([potential_value(p, instance, points) for p in potentials])]
    for lo in range(0, when.size, _TRACE_BLOCK):
        at, to = pos[lo:lo + _TRACE_BLOCK], new[lo:lo + _TRACE_BLOCK]
        latest = np.full((at.size, x0.size), -1)  # per position, its latest change in the block
        latest[np.arange(at.size), at] = np.arange(at.size)
        np.maximum.accumulate(latest, axis=0, out=latest)
        points = np.where(latest >= 0, to[latest], points[-1])
        scores.append(np.column_stack([potential_value(p, instance, points)
                                       for p in potentials]))
    rows = list(map(tuple, np.concatenate(scores).tolist()))
    steps = np.searchsorted(when, np.arange(last + 1), "right").tolist()
    return tuple((t, rows[s]) for t, s in enumerate(steps))


# ---------------------------------------------------------------------------
# Rejection-free (1+1) EA
# ---------------------------------------------------------------------------

def _simulate_ea(instance, operator, rng, x0, cap, changes):
    """Rejection-free (1+1) EA: one loop pass per iteration in which some
    selected position takes a not-worse step, a feasible step that does not
    raise that position's own distance d_i.

    Position i takes one with probability a_i / n, independently of the
    others, where a_i = w_i / per is RLS's acceptance probability (_law);
    in any other iteration each selected step is discarded as infeasible or
    raises the fitness, so x is unchanged. So the not-worse steps are the
    points of a Poisson process of rate q_i = -log1p(-a_i / n) per iteration
    at each i. The kernel thins proposals of rate c * sum(w), with c the
    largest possible q_i / w_i: a proposal is the law's pick, position i
    with probability w_i / sum(w) and its move conditioned on acceptance,
    and is kept with probability q_i / (c w_i). From a hazard E ~ Exp(1)
    the next proposal is E / (c sum(w)) iterations ahead; the first kept
    one fixes the event iteration, the kept ones after it in that iteration
    complete the set G of positions that step not-worse, and the hazard
    left over is a fresh Exp(1) for the next event. Every other position is
    selected with probability (1 - a_i) / (n - a_i), independently: of
    K ~ Bin(n, 1/n) distinct uniform candidates (K from Generator.binomial),
    each outside G is kept with probability (1 - a_i) / (1 - a_i / n) and
    takes the step conditioned on missing (`miss`), and the drawing stops as
    soon as the offspring is sure to be rejected.

    The uniform and harmonic steps take their law from _law. The +-1 law is
    written inline, so that none of its events calls a closure: position
    i's state is (w_i, toward_i) (_pm1_state), per = 2 and bound = max w_i,
    1 on the interval and 2 on the ring. `live` holds a pick ticket per
    unit of weight: i, the move toward z_i, while w_i >= 1, and i + n, the
    move away, while w_i = 2 (on the ring at 2 d_i >= r - 1). A proposal
    is the ticket at one uniform index of live, never rejected, and is kept
    iff w_i = 2 or, at w_i = 1 on the ring, a second uniform is below
    `thin` = q_i / c. A live candidate is kept with probability n / (2n -
    1) and steps away (infeasible at the interval's edge); one at w_i = 2
    is never kept. A finished one steps to x_i - 1 or x_i + 1 by one
    uniform. Each move's new distance follows from d_i alone: d_i - 1
    toward, r - 1 - d_i for the away move of w_i = 2 on the ring, and
    d_i + 1 for a miss.

    Returns (hitting_time or None, final_fitness). A list `changes` (None
    when untraced) gets the (iteration, position, new value) of every
    accepted change, from which _trace builds the trace after the run.
    """
    n, r = instance.params.n, instance.params.r
    ring = instance.metric is MetricKind.RING
    x, z = x0.tolist(), instance.target.tolist()
    dist = component_distances(instance.metric, x0, instance.target, r).tolist()
    fit = sum(dist)
    if fit == 0:
        return 0, 0

    unit = operator is StepOperatorKind.PLUS_MINUS_ONE
    draw = _draws(rng.random)
    if unit:
        w, toward = [0] * n, [1] * n
        live = []  # ticket i when w_i >= 1, moving toward z_i; i + n when w_i = 2, away
        for i in range(n):
            if dist[i]:
                w[i], toward[i] = _pm1_state(x[i], z[i], dist[i], r, ring)
                live += (i, i + n)[:w[i]]
        total, per, bound = len(live), 2, 2 if ring else 1
    else:
        pick, settle, miss, w, total, per, bound = _law(operator, r, ring, x, z, dist, draw)
    norm = per * n  # position i takes a not-worse step with probability w_i / norm
    c = -log1p(-bound / norm) / bound  # q_i / w_i grows with w_i: its largest value
    thin = -log1p(-1 / norm) / c  # a +-1 ring proposal at w_i = 1 is kept with this probability
    hazard = _draws(rng.standard_exponential)
    selected = _draws(lambda size: rng.binomial(n, 1.0 / n, size))
    position = _draws(lambda size: rng.integers(0, n, size))
    e = hazard()  # to the next proposal, from the end of iteration t
    t = 0

    while True:
        rate = c * total  # proposals per iteration
        marked, pending, delta = [], [], 0
        h = None  # the hazard left in the event iteration, once it is known
        while True:
            if not unit:
                i, new = pick()
                wi = w[i]
                # kept with probability q_i / (c w_i), which is 1 at w_i = bound
                keep = wi == bound or draw() * c * wi < -log1p(-wi / norm)
                zi = z[i]
                nd = new - zi if new > zi else zi - new
                if ring and r - nd < nd:
                    nd = r - nd
            elif not ring:
                i = live[int(draw() * total)]
                keep, new, nd = True, x[i] + toward[i], dist[i] - 1
            else:
                i = live[int(draw() * total)]
                if i < n:
                    new, nd = (x[i] + toward[i]) % r, dist[i] - 1
                else:
                    i -= n
                    new, nd = (x[i] - toward[i]) % r, r - 1 - dist[i]
                keep = w[i] == 2 or draw() < thin
            if keep and i not in marked:
                # a not-worse step at i
                if h is None:
                    wait = 1 + int(e / rate)
                    if wait > cap - t:
                        return None, fit
                    t += wait
                    h = rate * wait - e
                marked.append(i)
                delta += nd - dist[i]
                pending.append((i, new, nd))
            step = hazard()
            if h is None:
                e += step
            elif step < h:
                h -= step
            else:
                e = step - h
                break

        # the other selected positions, until the offspring is sure to be rejected
        k = selected()
        candidates = []
        while k and delta <= 0:
            i = position()
            if i in candidates:
                continue
            candidates.append(i)
            k -= 1
            if i in marked:
                continue
            wi = w[i]
            if not unit:
                if wi and draw() * (norm - wi) >= n * (per - wi):
                    continue
                new = miss(i, draw() * (per - wi))
                if new is None:
                    continue  # infeasible step, component unchanged
                zi = z[i]
                nd = new - zi if new > zi else zi - new
                if ring and r - nd < nd:
                    nd = r - nd
            else:
                if wi == 2:
                    continue
                if not wi:
                    new = x[i] - 1 if draw() < 0.5 else x[i] + 1
                elif draw() * (norm - 1) < n:
                    new = x[i] - toward[i]
                else:
                    continue
                if ring:
                    new %= r
                elif not 0 <= new < r:
                    continue  # infeasible step, component unchanged
                nd = dist[i] + 1
            delta += nd - dist[i]
            pending.append((i, new, nd))

        if delta <= 0:
            fit += delta
            if not unit:
                for i, new, nd in pending:
                    total = settle(i, new, nd)
            else:
                for i, new, nd in pending:
                    x[i] = new
                    if not (nd and dist[i]) or ring and (2 * nd >= r - 1 or 2 * dist[i] >= r - 1):
                        # the state changes only when i finishes, re-enters or is at a ring tie
                        old = w[i]
                        w[i], toward[i] = _pm1_state(new, z[i], nd, r, ring)
                        if not old:
                            live.append(i)
                        elif not nd:
                            _drop(live, i)
                        if old == 2 > w[i]:
                            _drop(live, i + n)
                        elif w[i] == 2 > old:
                            live.append(i + n)
                    dist[i] = nd
                total = len(live)
            if changes is not None:
                changes += [(t, i, new) for i, new, _ in pending]
        if fit == 0:
            return t, 0


def _pm1_state(x, z, d, r, ring):
    """(w_i, toward_i) of the +-1 step at x_i = x with d_i = d > 0, or the
    finished (0, 1) at d = 0: x + toward_i is accepted, and x - toward_i too
    when w_i = 2 (on the ring, when 2d >= r - 1)."""
    if d == 0:
        return 0, 1
    if ring:
        return (2 if 2 * d >= r - 1 else 1), (-1 if (x - z) % r == d else 1)
    return 1, (-1 if x > z else 1)


# ---------------------------------------------------------------------------
# Per-position step laws
# ---------------------------------------------------------------------------

def _law(operator, r, ring, x, z, dist, draw):
    """(pick, settle, miss, w, total, per, bound): the closed-form step law
    of every position of a run, and the index the EA kernel picks from.

    A step at position i is accepted (feasible, and lands within distance
    d_i of z_i) and changes x_i with probability a_i = w_i / per, and w_i
    never exceeds bound; total is sum(w). pick() returns (i, new): i with
    probability w_i / total, and new drawn from the step at i conditioned
    on acceptance. settle(i, new, d) moves x_i to new != x_i at distance d
    from z_i: it sets x_i, d_i, the law state, w_i, the index and total,
    and returns the new total. miss(i, s) maps s uniform on [0, per - w_i)
    to the step at i conditioned on the rest: None for an infeasible step,
    else a value farther than d_i from z_i. x and dist are the run's lists,
    updated in place; draw is its stream of uniforms, from which pick draws.

    The uniform step counts values (per = bound = r - 1) and picks by a
    binary descent through a Fenwick tree over the integer weights, whose
    remainder gives the move. The harmonic step adds the jump-law mass
    F[j] = P[jump <= j] of the jumps over both signs (per = 2; bound 1 on
    the interval, 2 on the ring), and picks by thinning: a uniform position
    of `live`, those with w_i > 0, is kept with probability w_i / bound, and
    the kept draw, uniform on [0, w_i), gives the move.
    """
    if operator is StepOperatorKind.UNIFORM:
        per = bound = r - 1
        pick, settle, miss, w = _uniform_law(r, ring, x, z, dist, draw)
    else:
        per, bound = 2, 2.0 if ring else 1.0
        pick, settle, miss, w = _jump_law(r, ring, x, z, dist, draw, bound)
    # each law starts with every position finished (w_i = 0, not in the
    # index); the unfinished ones are settled into place
    total = 0
    for i in range(len(x)):
        if dist[i]:
            total = settle(i, x[i], dist[i])
    return pick, settle, miss, w, total, per, bound


def _uniform_law(r, ring, x, z, dist, draw):
    n = len(x)
    w = [0] * n
    lo = list(z)  # position i's run starts at lo_i, see settle; [z_i] when finished
    offset = [0] * n  # x_i's offset in its run
    tree = [0] * (n + 1)  # tree[k] sums w over the positions (k - (k & -k), k]
    top = 1 << (n.bit_length() - 1)  # where the binary descent starts
    total = 0

    def pick():
        # descend to the position whose cumulative weight range holds the
        # target; the remainder is the offset within it
        s = int(draw() * total)
        i, bit = 0, top
        while bit:
            k = i + bit
            if k <= n and tree[k] <= s:
                i = k
                s -= tree[k]
            bit >>= 1
        if s >= offset[i]:
            s += 1
        return i, (lo[i] + s) % r

    def settle(i, new, d):
        """The values within distance d of z_i are the run lo_i, lo_i + 1,
        ... (mod r) of length w_i + 1, new among them."""
        nonlocal total
        x[i] = new
        dist[i] = d
        zi = z[i]
        if ring:
            start, wi = (zi - d, 2 * d) if 2 * d + 1 < r else (0, r - 1)
        else:
            start = zi - d if zi > d else 0
            wi = (zi + d if zi + d < r else r - 1) - start
        lo[i] = start
        offset[i] = (new - start) % r
        change = wi - w[i]
        w[i] = wi
        k = i + 1
        while k <= n:
            tree[k] += change
            k += k & -k
        total += change
        return total

    def miss(i, s):
        return (lo[i] + w[i] + 1 + int(s)) % r

    return pick, settle, miss, w


def _jump_law(r, ring, x, z, dist, draw, bound):
    n = len(x)
    F = harmonic_table(r).F.tolist()
    w = [0.0] * n
    states = [(1, 0.0, 1.0)] * n  # (toward, F[J], F[L-1]): see settle
    live = []  # the positions with w_i > 0
    total = 0

    def pick():
        while True:
            v = draw() * len(live)
            k = int(v)
            i = live[k]
            s = (v - k) * bound
            if s < w[i]:
                break
        toward, near, far = states[i]
        if s < near:
            return i, (x[i] + toward * bisect_right(F, s)) % r
        j = bisect_right(F, far + (s - near))
        return i, (x[i] - toward * (j if j < r else r - 1)) % r

    def settle(i, new, d):
        """The accepted steps are new + toward*j for j in [1, J] and
        new - toward*j (mod r) for j in [L, r-1]."""
        nonlocal total
        x[i] = new
        dist[i] = d
        old = w[i]
        if d == 0:
            wi = 0.0
            states[i] = (1, 0.0, 1.0)
            _drop(live, i)
        else:
            if not old:
                live.append(i)
            zi = z[i]
            if ring:
                toward = -1 if (new - zi) % r == d else 1
                J, L = (2 * d, r - 2 * d) if 2 * d < r else (r - 1, 1)
            elif new > zi:
                toward, J, L = -1, (2 * d if 2 * d < new else new), r
            else:
                toward, J, L = 1, (2 * d if 2 * d < r - 1 - new else r - 1 - new), r
            near, far = F[J], F[L - 1]
            wi = near + (1.0 - far)
            states[i] = (toward, near, far)
        total += wi - old
        w[i] = wi
        return total

    def miss(i, s):
        """x_i + toward*j for j in [J+1, r-1], or x_i - toward*j for j in [1, L-1]."""
        toward, near, _ = states[i]
        if s < 1.0 - near:
            j = bisect_right(F, near + s)
            new = x[i] + toward * (j if j < r else r - 1)
        else:
            new = x[i] - toward * bisect_right(F, s - (1.0 - near))
        if ring:
            return new % r
        return new if 0 <= new < r else None

    return pick, settle, miss, w


def _drop(live, k):
    """Remove entry k from the list live, moving its last entry into k's
    place; O(len(live)) for the search, which is short at the n of a run."""
    at = live.index(k)
    last = live.pop()
    if at < len(live):
        live[at] = last


def _draws(method):
    """A function that returns the next of the values method(size) draws in
    blocks whose size doubles up to _BLOCK, e.g. _draws(rng.random); it runs
    in C."""
    def blocks():
        size = 64
        while True:
            yield method(size).tolist()
            size = min(2 * size, _BLOCK)

    return chain.from_iterable(blocks()).__next__


# ---------------------------------------------------------------------------
# Lockstep RLS batches
# ---------------------------------------------------------------------------

def _lockstep(config):
    """Whether the config runs on the lockstep kernel: RLS, and the EA at
    n = 1, which selects its one position in every iteration and so is RLS."""
    return config.algorithm is AlgorithmKind.RLS or config.instance.params.n == 1


def _lane_law(operator, r, ring):
    """(per, move): the closed-form step law of _law, vectorized over lanes.

    move(x, z, d, u) takes arrays of lane values x, targets z, distances d
    and uniforms u in [0, 1), and returns (w, new): the lanes' weights (a
    step is accepted with probability w / per, as in _law; w = 0 at d = 0)
    and, where w > 0, their accepted moves, drawn from the step conditioned
    on acceptance by inverting s = u * w, uniform on [0, w), as _law's pick
    does. On the interval the accepted values lie in [0, r - 1], so a move
    there takes no modulo; only the ring's moves wrap.
    """
    if operator is StepOperatorKind.UNIFORM:
        def move(x, z, d, u):
            # the accepted values are the run start, start + 1, ... (mod r) of
            # length w + 1, x at offset `at` among them
            if ring:
                full = 2 * d + 1 >= r
                start, w = np.where(full, 0, z - d), np.where(full, r - 1, 2 * d)
                at = (x - start) % r
            else:
                start = np.maximum(z - d, 0)
                w = np.minimum(z + d, r - 1) - start
                at = x - start
            s = (u * w).astype(np.int64)
            s += s >= at
            s += start
            return w, s % r if ring else s
        return r - 1, move

    if operator is StepOperatorKind.PLUS_MINUS_ONE:
        def move(x, z, d, u):
            # x + toward is accepted when d > 0, and on the ring x - toward too
            # when 2d >= r - 1
            if not ring:
                return np.minimum(d, 1), np.where(x > z, x - 1, x + 1)
            toward = np.where((x - z) % r == d, -1, 1)
            w = np.where(2 * d >= r - 1, 2, np.minimum(d, 1))
            return w, (x + np.where(u * w < 1.0, toward, -toward)) % r
        return 2, move

    F = harmonic_table(r).F  # F[j] = P[jump <= j]

    def move(x, z, d, u):
        # the accepted steps are x + toward*j for j in [1, J], mass F[J], and
        # x - toward*j (mod r) for j in [L, r-1], mass 1 - F[L-1]
        if not ring:
            up = x > z
            w = F[np.minimum(2 * d, np.where(up, x, r - 1 - x))]
            j = np.searchsorted(F, u * w, "right")
            return w, np.where(up, x - j, x + j)
        toward = np.where((x - z) % r == d, -1, 1)
        tie = 2 * d >= r
        near, far = F[np.where(tie, r - 1, 2 * d)], F[np.where(tie, 0, r - 2 * d - 1)]
        w = near + (1.0 - far)
        s = u * w
        low = s < near
        j = np.minimum(np.searchsorted(F, np.where(low, s, far + (s - near)), "right"), r - 1)
        return w, (x + np.where(low, toward, -toward) * j) % r
    return 2, move


def _advance(config, seeds, targets=None, starts=None, record=False):
    """Advance every (replicate, unfinished position) lane of a lockstep
    batch (see _map_runs) to its target.

    Position i of a replicate moves at the points of a Poisson clock of
    rate w_i, independently of the others (RLS accepts a step at i on the
    strength of d_i alone), by its conditioned accepted move; the rejected
    iterations are a Poisson process of rate norm - sum(w), norm = per * n.
    So each round a lane draws e ~ Exp(1), adds e / w_i to its clock and
    moves, and a replicate's hitting time is T = M + Poisson(norm tau -
    sum(e)), with M its moves, tau its last lane's clock and sum(e) all its
    lanes' draws: the rejected iterations up to its last move. A replicate
    draws from the counter streams of its key _mix(seed) (_uniforms): its
    start point, when it has none, at counters 0 to n - 1, lane i's pair
    (e's uniform, the move's) in round t at n + 2(t n + i) and the next,
    and its Poisson count from key ^ _SECOND (_poisson); so its T depends
    on its seed alone, not on the batch, its group or LANES. A round drops
    the lanes it finished by one index gather per lane array, which keeps
    the others in batch order.

    Returns (hits, starts, per, moves): hits is the int64 array of the T,
    starts the (replicates, n) array of start points, and moves is []
    without record, and with it the arrays (lane, clock, new value, old and
    new distance, change of w) of every move, lane k * n + i being position
    i of replicate k.
    """
    instance = config.instance
    n, r, ring = instance.params.n, instance.params.r, instance.metric is MetricKind.RING
    per, move = _lane_law(config.operator, r, ring)
    keys = _mix(np.array(seeds, dtype=np.uint64))
    if starts is None:
        starts = (_scaled(_uniforms(keys[:, None], np.arange(n, dtype=np.uint64)), r)
                  if config.initial_point is None
                  else np.broadcast_to(config.initial_point, (len(seeds), n)))
    x = starts.reshape(-1)
    z = np.tile(instance.target, len(seeds)) if targets is None else targets.reshape(-1)
    d = component_distances(instance.metric, x, z, r)
    lane = np.flatnonzero(d)  # the unfinished lanes, in batch order
    clock, spent = np.zeros(lane.size), np.zeros(lane.size)
    tau, spent_all = np.zeros((2, x.size))  # per lane: its final clock and sum(e)
    moves = np.zeros(x.size, dtype=np.int64)
    x, z, d = x[lane], z[lane], d[lane]
    log = []
    t = start = size = 0
    while lane.size:
        if t == start + size:
            # the next 1, 2, 4, ... rounds' pairs, at most LANES: lane j's in round t is
            # chunk[t - start, :, row[j]]; key + c * golden is the stream of key from c on
            start, size = t, min(2 * size or 1, max(1, LANES // lane.size))
            row = np.arange(lane.size)
            owner = lane // n  # lane - owner * n is lane % n, at a fraction of its cost
            first = (n + 2 * (lane - owner * n)).astype(np.uint64) * np.uint64(_GOLDEN)
            first += keys[owner]
            del owner  # not held through the rounds
            chunk = _uniforms(first, (2 * n * np.arange(start, start + size))
                              .astype(np.uint64)[:, None, None] + _PAIR[:, None])
        e, u = chunk[t - start].take(row, axis=1)  # take: chunk[t - start][:, row], faster
        e = -np.log1p(-e)
        w, x = move(x, z, d, u)
        clock += e / w
        spent += e
        nd = component_distances(instance.metric, x, z, r)
        if record:
            log.append((lane, clock.copy(), x, d, nd, move(x, z, nd, u)[0] - w))
        d = nd
        t += 1
        done = d == 0
        if done.any():
            # index gathers: a fraction of the cost of boolean masks (and nonzero
            # of a bool array, of an int one)
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            ids = lane[gone]
            tau[ids], spent_all[ids], moves[ids] = clock[gone], spent[gone], t
            lane, x, z, d, clock, spent, row = (a[keep] for a in (lane, x, z, d, clock, spent,
                                                                  row))

    # per replicate; each reduction runs over the replicate's own lanes only
    offsets = np.arange(0, moves.size, n)
    counts = _poisson(keys ^ _SECOND, np.maximum(per * n * np.maximum.reduceat(tau, offsets)
                                                 - np.add.reduceat(spent_all, offsets), 0.0))
    hits = np.add.reduceat(moves, offsets) + counts  # no move: mean 0, so count 0
    if record:
        log = ([np.concatenate(column) for column in zip(*log)] if log
               else [np.zeros(0, dtype=np.int64)] * 6)
    return hits, starts, per, log


def _groups(config, seeds, targets=None, starts=None):
    """A lockstep batch's columns (see _map_runs) in groups of at most LANES
    lanes, which bound memory: a replicate's T is the same in any group."""
    size = max(1, LANES // config.instance.params.n)
    for lo in range(0, len(seeds), size):
        yield [None if c is None else c[lo:lo + size] for c in (seeds, targets, starts)]


def _hits(config, seeds, targets=None, starts=None):
    """The int64 column of a lockstep batch's hitting times T (see _advance);
    a replicate is capped where T > iteration_cap."""
    return np.concatenate([_advance(config, *group)[0]
                           for group in _groups(config, seeds, targets, starts)])


def _run_lanes(config, seeds, targets=None, starts=None):
    """The RunRecords of a lockstep batch (see _map_runs), from its hits
    column; each replicate's record is the same in any batch.

    A traced batch is replayed with its moves recorded (see _replay), and
    so is each replicate of an untraced one with T above the cap."""
    def replayed(*columns):
        return [record for group in _groups(config, *columns)
                for record in _replay(config, *group)]
    if config.trace_potentials:
        return replayed(seeds, targets, starts)
    hits = _hits(config, seeds, targets, starts)
    # records are frozen, so runs with equal hitting times share one
    shared = {hit: RunRecord(hitting_time=hit, capped=False, final_fitness=0,
                             evaluations=hit + 1) for hit in set(hits.tolist())}
    records = [shared[hit] for hit in hits.tolist()]
    again = np.flatnonzero(hits > config.iteration_cap)
    if again.size:
        rows = [None if column is None else column[again] for column in (targets, starts)]
        for k, record in zip(again.tolist(), replayed(seeds[again], *rows)):
            records[k] = record
    return records


def _replay(config, seeds, targets=None, starts=None):
    """Records of a lockstep batch from its recorded moves.

    The moves of a replicate's lanes, merged by clock, are its accepted
    moves in order; between moves k - 1 and k the rejected iterations come
    at rate norm - total_(k-1), total being sum(w) after move k - 1. So,
    given their number (the Poisson count _advance draws), they fall into
    the intervals multinomially in proportion to (norm - total_(k-1))
    (t_k - t_(k-1)), which gives each move's iteration, the trace rows, the
    state at the cap and the capped-prefix property exactly. The
    multinomial comes from default_rng(seed), built for that replicate
    alone, so a replayed record is the same in any batch too. A replicate
    with a target of its own gets an instance built by the ProblemInstance
    constructor.
    """
    hits, starts, per, (lane, clock, new, old, nd, change) = _advance(
        config, seeds, targets, starts, record=True)
    instance = config.instance
    n = instance.params.n
    owner = lane // n
    order = np.lexsort((clock, owner))  # stable: a lane's moves keep their order
    bounds = np.searchsorted(owner[order], np.arange(len(seeds) + 1)).tolist()
    return [_replayed_record(
                config, instance if targets is None else
                ProblemInstance(instance.params, instance.metric, targets[k]),
                int(hits[k]), int(seeds[k]), starts[k], per * n,
                *(a[order[bounds[k]:bounds[k + 1]]] for a in (lane % n, clock, new, old, nd,
                                                              change)))
            for k in range(len(seeds))]


def _replayed_record(config, instance, hit, seed, x0, norm, pos, clock, new, old, nd, change):
    """One replicate's record from its moves in clock order (see _replay);
    change is the change of sum(w) at each move."""
    cap = config.iteration_cap
    m = pos.size
    # every lane ends at w = 0, so the total before move k is minus the
    # changes from move k on
    rate = np.maximum(norm + np.cumsum(change[::-1])[::-1], 0.0)
    weights = rate * np.diff(clock, prepend=0.0)
    skipped = np.zeros(m, dtype=np.int64)
    if hit > m:
        if not weights.sum() > 0.0:
            weights[-1] = 1.0
        skipped = np.random.default_rng(seed).multinomial(hit - m, weights / weights.sum())
    when = np.arange(1, m + 1) + np.cumsum(skipped)  # the iteration of each move
    done = int(np.searchsorted(when, cap, "right"))  # moves by the cap
    fit = int(component_distances(instance.metric, x0, instance.target,
                                  instance.params.r).sum())
    final = fit + int((nd[:done] - old[:done]).sum())
    trace = None
    if config.trace_potentials:
        trace = _trace(instance, config.trace_potentials, x0,
                       (when[:done], pos[:done], new[:done]), min(hit, cap))
    if hit > cap:
        return RunRecord(hitting_time=None, capped=True, final_fitness=final,
                         evaluations=cap + 1, trace=trace)
    return RunRecord(hitting_time=hit, capped=False, final_fitness=0, evaluations=hit + 1,
                     trace=trace)
