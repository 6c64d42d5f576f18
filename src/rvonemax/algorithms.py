"""RLS and the (1+1) EA with pluggable step operator and instrumentation.

Both algorithms keep a population of one and accept an offspring whenever
its fitness is not worse. RLS steps in exactly one uniformly chosen
position per iteration; the (1+1) EA steps in each position independently
with probability 1/n. The run records the hitting time, i.e. the 1-based
index of the first iteration whose offspring evaluates to fitness 0 (0 when
the initial point is already optimal).

RLS is simulated rejection-free (the n-fold way of Bortz, Kalos and
Lebowitz; Gillespie's SSA). A step at position i is accepted and changes
x_i with a closed-form probability a_i, so the iterations up to the next
accepted move are Geometric(sum(a)/n), the move lands at i with probability
a_i / sum(a), and it is drawn conditioned on acceptance. A run costs about
its number of accepted moves, not its number of iterations.

The (1+1) EA is simulated the same way, one event per iteration in which
some selected position takes a not-worse step (a feasible step that does
not raise its own distance to the target). Position i does so with
probability a_i / n, independently of the others, with RLS's a_i; in any
other iteration each selected step is discarded as infeasible or raises the
fitness, so x is unchanged. The waits between events come from a Poisson
process of such steps, the positions that step not-worse are picked as RLS
picks them and move by RLS's conditioned law, and the other selected
positions are drawn with their step conditioned on missing, until the
offspring is sure to be rejected. A run costs about its number of events,
not its number of iterations.

Neither kernel knows the step operator: the per-position law (_law) owns
the weights, the conditioned moves and misses, and the pick index.

Runs are deterministic functions of their seed. Replicates of a batch use
sub-seeds derived from (seed, index) via subseed(), so batches reproduce
exactly regardless of execution order or worker count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import chain
from math import log, log1p

import numpy as np

from .operators import StepOperatorKind, harmonic_table, step
from .potentials import Potential, potential_value
from .space import (MetricKind, ProblemInstance, as_point, component_distances, fitness,
                    sample_uniform_point)

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
    """One mutation-selection round on every row of the (S, n) array x at
    once; returns the (S, n) retained points.

    RLS selects one uniform column per row, the (1+1) EA each cell with
    probability 1/n. Each selected cell takes a step with the law of
    operators.step, and a row keeps its offspring iff its fitness is not
    worse.
    """
    x = np.asarray(x, dtype=np.int64)
    m, n = x.shape
    r = instance.params.r
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
                else harmonic_table(r).sample_block(rng, cur.size))
        new = np.where(rng.integers(0, 2, cur.size) == 0, cur - jump, cur + jump)
        if instance.metric is MetricKind.RING:
            new %= r
        else:
            new = np.where((new >= 0) & (new < r), new, cur)  # infeasible: discarded
    y = x.copy()
    y[rows, cols] = new
    keep = fitness(instance, y) <= fitness(instance, x)
    return np.where(keep[:, None], y, x)


def run(config: RunConfig) -> RunRecord:
    """Execute one seeded run until the optimum is evaluated or the cap hits."""
    rng = np.random.default_rng(subseed(config.seed, 0))
    instance = config.instance
    if config.initial_point is not None:
        x0 = np.array(config.initial_point, dtype=np.int64)
    else:
        x0 = sample_uniform_point(instance.params, rng)
    simulate = _simulate_rls if config.algorithm is AlgorithmKind.RLS else _simulate_ea
    hit, final_fit, trace = simulate(instance, config.operator, rng, x0,
                                     config.iteration_cap, config.trace_potentials)
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
    return _map_runs(run, [replace(config, seed=subseed(config.seed, k))
                           for k in range(replicates)], workers)


def _map_runs(run_fn, configs: list[RunConfig], workers: int) -> list[RunRecord]:
    """run_fn over configs in order; workers > 1 spreads them over processes.

    Callers pass the `run` of their own module, so a wrapper installed on
    that module-level name sees every call.
    """
    if workers <= 1 or len(configs) == 1:
        return [run_fn(c) for c in configs]
    # imported here, as it loads multiprocessing, which serial runs never need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_fn, configs, chunksize=max(1, len(configs) // (4 * workers))))


def _start(instance, x0, trace_pots):
    """Scalar state of a run: values, target, per-position distances, fitness,
    and the trace (None when no potentials are traced) with its row 0."""
    dist = component_distances(instance.metric, x0, instance.target, instance.params.r).tolist()
    trace = None
    if trace_pots:
        trace = [(0, tuple(potential_value(p, instance, x0) for p in trace_pots))]
    return x0.tolist(), instance.target.tolist(), dist, sum(dist), trace


# ---------------------------------------------------------------------------
# Rejection-free (1+1) EA
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _selection_cdf(n):
    """The array [P[K <= k] for k = 0, 1, ...] for K ~ Bin(n, 1/n), n >= 2,
    the number of positions an EA iteration selects.

    The pmf comes from the recurrence P[K = k + 1] / P[K = k] =
    (n - k) / (k + 1) / (n - 1), started from an unnormalized first term,
    and the list is cut where the next term no longer changes the sum; the
    partial sums are divided by the total, so the last entry is exactly 1.0.
    The pmf is unimodal with its mode at 0 or 1, so the dropped tail is
    below 1e-15.
    """
    sums = [1.0]
    term = total = 1.0
    for k in range(n):
        term *= (n - k) / (k + 1) / (n - 1)
        if total + term == total:
            break
        total += term
        sums.append(total)
    return np.array(sums) / total


def _simulate_ea(instance, operator, rng, x0, cap, trace_pots):
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
    K ~ Bin(n, 1/n) distinct uniform candidates, each outside G is kept
    with probability (1 - a_i) / (1 - a_i / n) and takes the step
    conditioned on missing (`miss`), and the drawing stops as soon as the
    offspring is sure to be rejected.

    Returns (hitting_time or None, final_fitness, trace or None); the trace
    repeats the previous row for every iteration of a wait.
    """
    params = instance.params
    n, r = params.n, params.r
    if n == 1:
        # the one position is selected in every iteration: the EA is RLS
        return _simulate_rls(instance, operator, rng, x0, cap, trace_pots)
    ring = instance.metric is MetricKind.RING
    x, z, dist, fit, trace = _start(instance, x0, trace_pots)
    if fit == 0:
        return 0, 0, trace
    pots = trace_pots or ()

    draw = _draws(rng.random)
    pick, settle, miss, w, total, per, bound = _law(operator, r, ring, x, z, dist, draw)
    norm = per * n  # position i takes a not-worse step with probability w_i / norm
    c = -log1p(-bound / norm) / bound  # q_i / w_i grows with w_i: its largest value
    cdf = _selection_cdf(n)
    hazard = _draws(rng.standard_exponential)
    selected = _draws(lambda size: np.searchsorted(cdf, rng.random(size), "right"))
    position = _draws(lambda size: rng.integers(0, n, size))
    e = hazard()  # to the next proposal, from the end of iteration t
    t = 0

    while True:
        rate = c * total  # proposals per iteration
        marked, pending, delta = [], [], 0
        h = None  # the hazard left in the event iteration, once it is known
        while True:
            i, new = pick()
            wi = w[i]
            # kept with probability q_i / (c w_i), which is 1 at w_i = bound
            if (wi == bound or draw() * c * wi < -log1p(-wi / norm)) and i not in marked:
                # a not-worse step at i
                if h is None:
                    wait = 1 + int(e / rate)
                    if trace is not None:
                        row = trace[-1][1]
                        trace.extend((j, row) for j in range(t + 1, min(t + wait, cap + 1)))
                    if wait > cap - t:
                        return None, fit, trace
                    t += wait
                    h = rate * wait - e
                marked.append(i)
                zi = z[i]
                nd = new - zi if new > zi else zi - new
                if ring and r - nd < nd:
                    nd = r - nd
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
            wi = w[i]
            if i in marked or wi and draw() * (norm - wi) >= n * (per - wi):
                continue
            new = miss(i, draw() * (per - wi))
            if new is None:
                continue  # infeasible step, component unchanged
            zi = z[i]
            nd = new - zi if new > zi else zi - new
            if ring and r - nd < nd:
                nd = r - nd
            delta += nd - dist[i]
            pending.append((i, new, nd))

        if delta <= 0:
            fit += delta
            for i, new, nd in pending:
                total = settle(i, new, nd)
        if trace is not None:
            trace.append((t, tuple(potential_value(p, instance, np.asarray(x)) for p in pots)))
        if fit == 0:
            return t, 0, trace


# ---------------------------------------------------------------------------
# Per-position step laws
# ---------------------------------------------------------------------------

def _law(operator, r, ring, x, z, dist, draw):
    """(pick, settle, miss, w, total, per, bound): the closed-form step law
    of every position of a run, and the index the kernels pick from.

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
    remainder gives the move. The jump steps add the jump-law mass of the
    jumps over both signs (per = 2; bound 1 on the interval, 2 on the ring),
    and pick by thinning: a uniform position of `live`, those with w_i > 0,
    is kept with probability w_i / bound, and the kept draw, uniform on
    [0, w_i), gives the move. The +-1 step's jump is 1, and the harmonic
    step's is read from F[j] = P[jump <= j].
    """
    if operator is StepOperatorKind.UNIFORM:
        per = bound = r - 1
        pick, settle, miss, w = _uniform_law(r, ring, x, z, dist, draw)
    else:
        per, bound = 2, 2.0 if ring else 1.0
        make = _unit_law if operator is StepOperatorKind.PLUS_MINUS_ONE else _jump_law
        pick, settle, miss, w = make(r, ring, x, z, dist, draw, bound)
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


def _unit_law(r, ring, x, z, dist, draw, bound):
    n = len(x)
    w = [0] * n
    toward = [1] * n  # x_i + toward_i is accepted when d_i > 0: see settle
    live, slot = [], [0] * n  # slot[i] is the index of position i in live
    total = 0

    def pick():
        while True:
            i = live[int(draw() * len(live))]
            s = draw() * bound
            if s < w[i]:
                return i, (x[i] + toward[i] if s < 1.0 else x[i] - toward[i]) % r

    def settle(i, new, d):
        """x_i + toward_i is accepted when d > 0, and x_i - toward_i too
        when w_i = 2 (on the ring, when 2d >= r - 1)."""
        nonlocal total
        x[i] = new
        dist[i] = d
        old = w[i]
        if d == 0:
            wi, toward[i] = 0, 1
            _toggle(live, slot, i)
        else:
            if not old:
                _toggle(live, slot, i)
            if ring:
                wi = 2 if 2 * d >= r - 1 else 1
                toward[i] = -1 if (new - z[i]) % r == d else 1
            else:
                wi, toward[i] = 1, (-1 if new > z[i] else 1)
        total += wi - old
        w[i] = wi
        return total

    def miss(i, s):
        """x_i - toward_i for s < 1 and, when d_i = 0, x_i + toward_i for s >= 1."""
        new = x[i] - toward[i] if s < 1.0 else x[i] + toward[i]
        if ring:
            return new % r
        return new if 0 <= new < r else None

    return pick, settle, miss, w


def _jump_law(r, ring, x, z, dist, draw, bound):
    n = len(x)
    F = [0.0] + harmonic_table(r).cdf.tolist()
    w = [0.0] * n
    states = [(1, 0.0, 1.0)] * n  # (toward, F[J], F[L-1]): see settle
    live, slot = [], [0] * n  # slot[i] is the index of position i in live
    total = 0

    def pick():
        while True:
            i = live[int(draw() * len(live))]
            s = draw() * bound
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
            _toggle(live, slot, i)
        else:
            if not old:
                _toggle(live, slot, i)
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


def _toggle(live, slot, i):
    """Remove position i from live if it is there, else append it, keeping
    slot[j] the index of each j in live; O(1)."""
    k = slot[i]
    if k < len(live) and live[k] == i:
        last = live.pop()
        if last != i:
            live[k] = last
            slot[last] = k
    else:
        slot[i] = len(live)
        live.append(i)


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
# Rejection-free RLS
# ---------------------------------------------------------------------------

def _simulate_rls(instance, operator, rng, x0, cap, trace_pots):
    """Rejection-free RLS: one loop pass per accepted move.

    Each pass draws the wait W ~ Geometric(sum(a)/n) by inversion, then the
    law's pick: i with probability a_i / sum(a) and the accepted move at i;
    settling it updates x_i, d_i, the law state of i and sum(a).

    Returns (hitting_time or None, final_fitness, trace or None); the trace
    repeats the previous row for every iteration of a wait.
    """
    params = instance.params
    n, r = params.n, params.r
    ring = instance.metric is MetricKind.RING
    x, z, dist, fit, trace = _start(instance, x0, trace_pots)
    if fit == 0:
        return 0, 0, trace
    pots = trace_pots or ()

    draw = _draws(rng.random)
    pick, settle, _, _, total, per, _ = _law(operator, r, ring, x, z, dist, draw)
    norm = per * n  # an iteration makes an accepted move with probability total / norm
    t = 0
    known = None  # the total that log_q belongs to

    while True:
        if total != known:
            known, p = total, total / norm
            log_q = log1p(-p) if p < 1.0 else None  # None: every iteration moves
        wait = 1 if log_q is None else 1 + int(log(1.0 - draw()) / log_q)
        if trace is not None:
            row = trace[-1][1]
            trace.extend((s, row) for s in range(t + 1, min(t + wait, cap + 1)))
        if wait > cap - t:
            return None, fit, trace
        t += wait

        i, new = pick()
        zi = z[i]
        nd = new - zi if new > zi else zi - new
        if ring and r - nd < nd:
            nd = r - nd
        fit += nd - dist[i]
        total = settle(i, new, nd)
        if trace is not None:
            trace.append((t, tuple(potential_value(q, instance, np.asarray(x)) for q in pots)))
        if fit == 0:
            return t, 0, trace
