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

Neither kernel knows the step operator: the per-position law (_law for the
EA, its vectorized closed forms _lane_law for RLS) owns the weights and the
conditioned moves, and _law also the misses and the pick index. Both
kernels start their runs the same way (_setup: the runs' generators,
built in one pass, then their start points), and both build a trace after
the run with one builder, _trace, which scores the points after the run's
accepted changes a block at a time.

Runs are deterministic functions of their seed, and run one after another
in the calling process. Replicates of a batch use sub-seeds derived from
(seed, index) via subseed(), so batches reproduce exactly regardless of
execution order. Each RLS run draws from its own generator in chunks
shaped by its own state only, so its record is the same alone (run) and in
any lockstep batch.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from math import log1p

import numpy as np

from .operators import StepOperatorKind, harmonic_table, step
from .potentials import Potential, potential_value
from .space import (MetricKind, ProblemInstance, as_point, component_distances, fitness,
                    sample_uniform_point)

DEFAULT_ITERATION_CAP = 10**10
LANES = 2048  # lanes (replicate x position) the lockstep RLS kernel advances at once

_BLOCK = 4096
_TRACE_BLOCK = 1024  # changes _trace scores at once
_CHUNK_ROUNDS = 8  # the most rounds of uniforms a lockstep replicate draws at once
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF


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


def _hash_constants(init, mult, count):
    """A column of SeedSequence's hash constant after k steps, init * mult**k
    mod 2**32, for k = 0..count: it depends only on the step index."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)],
                    dtype=np.uint32)[:, None]


# numpy's SeedSequence: 16 hash steps fill and mix its 4-word pool, and 8
# more draw generate_state(4, np.uint64) out of it
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(value, constants):
    """SeedSequence's hash of each row of value, row j at the step of
    constants[j] (mod 2**32)."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ value >> 16


def _generators(seeds):
    """The generators np.random.default_rng(seed) returns for 64-bit seeds,
    with the same streams, built in one pass.

    numpy's SeedSequence hash of every seed runs at once on uint32 rows: the
    entropy pool is [lo32, hi32, 0, 0] (an absent word hashes as 0, so a
    one-word seed hashes as its two-word form), mixed word by word, then
    drawn out as the 4 uint64 words PCG64 asks for. PCG64 seeds itself from
    those words through _Pooled, so no generator state is written by hand.
    One seed goes to default_rng itself, since the pass has a fixed cost of
    several default_rng calls.
    """
    if not all(0 <= seed <= _MASK64 for seed in seeds):
        raise ValueError("generator seeds must lie in [0, 2**64)")
    if len(seeds) == 1:
        return [np.random.default_rng(seeds[0])]
    # imported here: numpy.random would add about 15 ms to `import rvonemax`
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Pooled(ISeedSequence):
        """The precomputed generate_state(4, np.uint64) of one seed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    wide = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, wide.size), dtype=np.uint32)
    pool[0], pool[1] = wide & _MASK32, wide >> 32
    pool = _hash(pool, _MIX_HASH[:5])
    for src in range(4):
        # mix every other word with the hash of word src; these three steps
        # read only word src, so they run as one
        dst = [k for k in range(4) if k != src]
        mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                 - np.uint32(0x4973F715) * _hash(pool[src], _MIX_HASH[4 + 3 * src:8 + 3 * src]))
        pool[dst] = mixed ^ mixed >> 16
    state = _hash(np.concatenate([pool, pool]), _STATE_HASH).astype(np.uint64)
    words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return [Generator(PCG64(_Pooled(row))) for row in words]


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
    if _lockstep(config):
        return _run_lanes(config, [config.seed])[0]
    (rng,), (x0,) = _setup(config, [config.seed])
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
    return _map_runs(run, config, [subseed(config.seed, k) for k in range(replicates)])


def _map_runs(run_fn, config: RunConfig, seeds, targets=None, starts=None) -> list[RunRecord]:
    """The record of each replicate of a batch, in order (a run_batch, or a
    plan cell).

    Replicate k is the template config with seed seeds[k], target
    targets[k] and start starts[k]; targets and starts are read-only
    (replicates, n) blocks, range-checked once as a whole, and None means
    the config's own target or start serves every replicate. Lockstep
    batches (RLS, and the EA at n = 1) go to the lockstep kernel in groups
    of at most LANES lanes. Other replicates are built one at a time as
    configs (_replicate) and go to run_fn: callers pass the `run` of their
    own module, so a wrapper installed on that module-level name sees every
    call that is not a lockstep group. A replicate's record is the same in
    any group, so the grouping does not change any result.
    """
    if not _lockstep(config):
        return [run_fn(_replicate(k, config, seeds, targets, starts)) for k in range(len(seeds))]
    size = max(1, LANES // config.instance.params.n)
    return [record for lo in range(0, len(seeds), size)
            for record in _run_lanes(config, *(None if column is None else column[lo:lo + size]
                                               for column in (seeds, targets, starts)))]


def _replicate(k, config, seeds, targets=None, starts=None):
    """Replicate k of a batch (see _map_runs) as its own config, built by
    the RunConfig and ProblemInstance constructors."""
    instance = config.instance
    if targets is not None:
        instance = ProblemInstance(instance.params, instance.metric, targets[k])
    return replace(config, instance=instance, seed=seeds[k],
                   initial_point=config.initial_point if starts is None else starts[k])


def _setup(config, seeds, starts=None):
    """(rngs, starts): each replicate's generator default_rng(seed), all
    built in one pass, and its start point as row k of a (replicates, n)
    array: row k of starts, else the config's validated read-only point,
    else a uniform one, the generator's first draw."""
    rngs = _generators(seeds)
    if starts is None:
        if config.initial_point is None:
            starts = np.array([sample_uniform_point(config.instance.params, rng)
                               for rng in rngs])
        else:
            starts = np.broadcast_to(config.initial_point, (len(seeds), config.initial_point.size))
    return rngs, starts


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

    draw = _draws(rng.random)
    pick, settle, miss, w, total, per, bound = _law(operator, r, ring, x, z, dist, draw)
    norm = per * n  # position i takes a not-worse step with probability w_i / norm
    c = -log1p(-bound / norm) / bound  # q_i / w_i grows with w_i: its largest value
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
            i, new = pick()
            wi = w[i]
            # kept with probability q_i / (c w_i), which is 1 at w_i = bound
            if (wi == bound or draw() * c * wi < -log1p(-wi / norm)) and i not in marked:
                # a not-worse step at i
                if h is None:
                    wait = 1 + int(e / rate)
                    if wait > cap - t:
                        return None, fit
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
            if changes is not None:
                changes += [(t, i, new) for i, new, _ in pending]
        if fit == 0:
            return t, 0


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
    does.
    """
    if operator is StepOperatorKind.UNIFORM:
        def move(x, z, d, u):
            # the accepted values are the run start, start + 1, ... (mod r) of
            # length w + 1, x among them
            if ring:
                full = 2 * d + 1 >= r
                start, w = np.where(full, 0, z - d), np.where(full, r - 1, 2 * d)
            else:
                start = np.maximum(z - d, 0)
                w = np.minimum(z + d, r - 1) - start
            s = (u * w).astype(np.int64)
            s += s >= (x - start) % r
            return w, (start + s) % r
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

    F = np.concatenate(([0.0], harmonic_table(r).cdf))  # F[j] = P[jump <= j]

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
    lanes' draws: the rejected iterations up to its last move. Every
    replicate draws from its own generator: its start point when it has
    none, then its lanes' uniforms in chunks of (its unfinished lanes,
    rounds, 2) for the rounds 0-1, 2-5, 6-13, 14-21, ... (at most _CHUNK_ROUNDS
    and LANES // n at a time), then the Poisson count; the chunks depend
    only on the replicate's own state, so its T does too, in any batch.

    Returns (hits, rngs, starts, per, moves): starts is the (replicates, n)
    array of start points, and moves is [] without record, and with it the
    arrays (lane, clock, new value, old and new distance, change of w) of
    every move, lane k * n + i being position i of replicate k.
    """
    instance = config.instance
    n, r, ring = instance.params.n, instance.params.r, instance.metric is MetricKind.RING
    per, move = _lane_law(config.operator, r, ring)
    most = max(1, min(_CHUNK_ROUNDS, LANES // n))
    rngs, starts = _setup(config, seeds, starts)
    x_all = starts.reshape(-1)
    z_all = (np.tile(instance.target, len(seeds)) if targets is None
             else targets.reshape(-1))
    d_all = component_distances(instance.metric, x_all, z_all, r)
    lane = np.flatnonzero(d_all)  # the unfinished lanes, in batch order
    x, z, d = x_all[lane], z_all[lane], d_all[lane]
    clock, spent = np.zeros(lane.size), np.zeros(lane.size)
    tau, spent_all = np.zeros(d_all.size), np.zeros(d_all.size)
    moves = np.zeros(d_all.size, dtype=np.int64)
    log = []
    t = start = size = 0
    while lane.size:
        if t == start + size:
            start, size = t, min(2 * size or 2, most)
            chunk, row, end = np.empty((lane.size, size, 2)), np.arange(lane.size), 0
            for k, c in enumerate(np.bincount(lane // n, minlength=len(seeds)).tolist()):
                if c:
                    rngs[k].random(out=chunk[end:end + c])  # replicate k's (c, size, 2) draw
                    end += c
        u = chunk[row, t - start]
        e = -np.log1p(-u[:, 0])
        w, x = move(x, z, d, u[:, 1])
        clock += e / w
        spent += e
        nd = component_distances(instance.metric, x, z, r)
        if record:
            log.append((lane, clock.copy(), x, d, nd, move(x, z, nd, u[:, 1])[0] - w))
        d = nd
        t += 1
        done = d == 0
        if done.any():
            ids = lane[done]
            tau[ids], spent_all[ids], moves[ids] = clock[done], spent[done], t
            keep = ~done
            lane, x, z, d, clock, spent, row = (a[keep] for a in (lane, x, z, d, clock, spent,
                                                                  row))

    # per replicate; each reduction runs over the replicate's own lanes only
    offsets = np.arange(0, d_all.size, n)
    mean = np.maximum(per * n * np.maximum.reduceat(tau, offsets)
                      - np.add.reduceat(spent_all, offsets), 0.0).tolist()
    hits = [m and m + int(rng.poisson(v)) for m, v, rng in
            zip(np.add.reduceat(moves, offsets).tolist(), mean, rngs)]
    if record:
        log = ([np.concatenate(column) for column in zip(*log)] if log
               else [np.zeros(0, dtype=np.int64)] * 6)
    return hits, rngs, starts, per, log


def _run_lanes(config, seeds, targets=None, starts=None):
    """The RunRecords of a lockstep batch (see _map_runs), advanced together
    by _advance; each replicate's record is the same in any batch.

    A traced batch, and each replicate with T above the cap, is replayed
    with its moves recorded (see _replay)."""
    hits = _advance(config, seeds, targets, starts)[0]
    # records are frozen, so runs with equal hitting times share one
    shared = {hit: RunRecord(hitting_time=hit, capped=False, final_fitness=0,
                             evaluations=hit + 1) for hit in set(hits)}
    records = [shared[hit] for hit in hits]
    again = [k for k, hit in enumerate(hits)
             if config.trace_potentials or hit > config.iteration_cap]
    if again:
        rows = [None if column is None else column[again] for column in (targets, starts)]
        for k, record in zip(again, _replay(config, [seeds[k] for k in again], *rows)):
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
    multinomial is the replicate's last draw. A replicate with a target of
    its own gets an instance built by the ProblemInstance constructor.
    """
    hits, rngs, starts, per, (lane, clock, new, old, nd, change) = _advance(
        config, seeds, targets, starts, record=True)
    instance = config.instance
    n = instance.params.n
    owner = lane // n
    order = np.lexsort((clock, owner))  # stable: a lane's moves keep their order
    bounds = np.searchsorted(owner[order], np.arange(len(seeds) + 1)).tolist()
    return [_replayed_record(
                config, instance if targets is None else
                ProblemInstance(instance.params, instance.metric, targets[k]),
                hits[k], rngs[k], starts[k], per * n,
                *(a[order[bounds[k]:bounds[k + 1]]] for a in (lane % n, clock, new, old, nd,
                                                              change)))
            for k in range(len(seeds))]


def _replayed_record(config, instance, hit, rng, x0, norm, pos, clock, new, old, nd, change):
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
        skipped = rng.multinomial(hit - m, weights / weights.sum())
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
