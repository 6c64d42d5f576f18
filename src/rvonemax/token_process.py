"""One-dimensional token-movement process for comparing step-size laws.

A token starts uniformly on {0, ..., r}. Each round draws a step size d
from a fixed distribution over {1, ..., r}; the token moves from x to x - d
when d <= x and stays put otherwise. The hitting time is the number of
rounds until the token sits at 0.

The Monte-Carlo simulator is rejection-free (the n-fold way of Bortz,
Kalos and Lebowitz; Gillespie's SSA): a round that does not move only adds
one to the clock, so from x it draws the wait to the next move as
Geometric(P[d <= x]) and the move from the step law restricted to [1, x],
each by inverting its cdf (the harmonic one is operators.HarmonicTable's F)
at one uniform. Its cost is the number of moves, not of rounds; all
replicates of a batch advance together as numpy arrays, a jump drawn by a
guide table of the step cdf, and come back as the columns of a TokenBatch.
A law with one step size d0 (the unit law, for one) has no random round at
all: every wait is 1 and every jump d0, so its columns follow from the
starts in closed form, with no loop and no draw after the starts. An exact
expectation solver exploits the triangular structure of the chain
(position never increases), so no general linear solve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import subseed
from .operators import harmonic_pmf, harmonic_table

MAX_EXACT_STATES = 4096  # dense O(r^2) solve stays cheap up to here

NAMED_DISTRIBUTIONS = ("unit", "uniform", "harmonic")


class CapacityError(Exception):
    """Raised when a request exceeds a hard resource limit."""


class DivergenceError(Exception):
    """Raised when the expected hitting time is infinite."""


def token_step_pmf(distribution, r: int) -> np.ndarray:
    """Probability vector over step sizes d = 1..r.

    Accepts one of the named laws ("unit", "uniform", "harmonic") or an
    explicit length-r probability vector.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if isinstance(distribution, str):
        name = distribution.strip().lower()
        if name == "unit":
            p = np.zeros(r)
            p[0] = 1.0
        elif name == "uniform":
            p = np.full(r, 1.0 / r)
        elif name == "harmonic":
            p = harmonic_pmf(r + 1)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        return p
    p = np.asarray(distribution, dtype=np.float64)
    if p.shape != (r,):
        raise ValueError(f"explicit distribution must have length {r}, got shape {p.shape}")
    if not (np.isfinite(p) & (p >= 0)).all():  # NaN fails every comparison
        raise ValueError("step-size probabilities must be finite and non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"step-size probabilities must sum to 1, got {p.sum()!r}")
    return p.copy()


@dataclass(frozen=True, eq=False)
class TokenConfig:
    r: int
    distribution: object = "unit"  # name or explicit probability vector
    seed: int = 0
    iteration_cap: int = 10**10

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.iteration_cap < 1:
            raise ValueError("iteration_cap must be >= 1")
        token_step_pmf(self.distribution, self.r)  # validate eagerly


@dataclass(frozen=True)
class TokenRunRecord:
    hitting_time: int | None  # None exactly when the run was capped
    capped: bool
    final_position: int


def _step_cdf(distribution, r: int) -> np.ndarray:
    if isinstance(distribution, str) and distribution.strip().lower() == "harmonic":
        return harmonic_table(r + 1).F[1:]  # read-only, shared
    cdf = np.cumsum(token_step_pmf(distribution, r))
    cdf[-1] = 1.0  # guard against cumulative rounding
    return cdf


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """A token batch as read-only columns: int64 rounds (the hitting time
    where a run is not capped) and final_position, and bool capped."""

    rounds: np.ndarray
    final_position: np.ndarray
    capped: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.rounds, self.final_position, self.capped):
            column.flags.writeable = False


def token_run(config: TokenConfig) -> TokenRunRecord:
    """Simulate one seeded token run: row 0 of a batch of one."""
    batch = token_run_batch(config, 1)
    t, x, capped = (column.item() for column in (batch.rounds, batch.final_position, batch.capped))
    return TokenRunRecord(hitting_time=None if capped else t, capped=capped, final_position=x)


def token_run_batch(config: TokenConfig, replicates: int) -> TokenBatch:
    """Independent replicates, all drawn from one generator seeded with
    subseed(config.seed, 0); replicate k therefore depends on the batch size.

    The starts are the generator's first draw. A law with a single step size
    d0 draws nothing more: every wait is 1 and every jump d0, so from x a run
    makes min(x // d0, iteration_cap) moves and hits 0 iff they cover x. Any
    other law advances the replicates in lockstep (see _walk). A run is
    capped when its next move would land after round iteration_cap, or at
    once when no step size fits under its position.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    cdf = _step_cdf(config.distribution, config.r)
    cap = min(config.iteration_cap, np.iinfo(np.int64).max)
    rng = np.random.default_rng(subseed(config.seed, 0))
    position = rng.integers(0, config.r + 1, size=replicates)
    if ((cdf == 0.0) | (cdf == 1.0)).all():  # the cdf the walk uses steps once, at d0
        d0 = int(np.count_nonzero(cdf == 0.0)) + 1
        rounds = np.minimum(position // d0, cap)
        position -= rounds * d0
        capped = position > 0
    else:
        rounds, capped = _walk(cdf, cap, rng, position)
    return TokenBatch(rounds, position, capped)


def _inverse(cdf):
    """v -> np.searchsorted(cdf, v, "right") for arrays v in [0, cdf[-1]) by a
    guide table (Chen and Asau 1974) of m buckets, m a power of two in (2r,
    4r]: j starts at guide[floor(v m)] (v m is exact) and steps up while
    cdf[j] <= v, only in the lanes still moving after the first pass. A last
    entry set down to 1.0 is fine: every entry from the first above v is."""
    m = 1 << (cdf.size.bit_length() + 1)
    guide = np.searchsorted(cdf, np.arange(m) / m, side="right")

    def lookup(v):
        j = guide[(v * m).astype(np.intp)]
        more = np.flatnonzero(cdf[j] <= v)
        while more.size:
            j[more] += 1
            more = more[cdf[j[more]] <= v[more]]
        return j
    return lookup


def _walk(cdf, cap, rng, position):
    """(rounds, capped) of the runs from the starts in position, which it
    moves to their final positions.

    The runs advance in lockstep, one move per live run per event, from one
    uniform pair (u, v) per run: from x, with q = P[d <= x], the wait to the
    next move is 1 + floor(log1p(-u) / log1p(-q)) (Devroye 1986, X.2), 1
    where q = 1, and the jump is the step law restricted to [1, x] at v q.
    The cap test is made on the float wait, and only when a bound on the
    live runs' rounds plus the event's longest wait could pass the cap.
    """
    jump = _inverse(cdf)
    q = np.minimum(cdf, 1.0)  # q[x - 1] = P[d <= x]; cumulative rounding may exceed 1
    rounds = np.zeros(position.size, dtype=np.int64)
    capped = np.zeros(position.size, dtype=bool)
    bound = 0  # no live run has more rounds
    live = np.flatnonzero(position)
    # log1p(-q) is -inf where q = 1; a wait is inf where q is subnormal
    with np.errstate(divide="ignore", over="ignore"):
        slope = np.log1p(-q)
        while live.size:
            k = position[live] - 1  # q[k] = P[d <= x] at each live position x
            qk = q[k]
            stuck = qk == 0.0  # no step size fits under x: capped at once
            if stuck.any():
                capped[live[stuck]] = True
                live, k, qk = live[~stuck], k[~stuck], qk[~stuck]
            u, v = rng.random((2, live.size))
            fails = np.log1p(-u) / slope[k]  # the move comes after floor(fails) + 1 rounds
            longest = fails.max(initial=0.0)
            if longest >= cap - bound:  # an exact int-float comparison
                room = cap - rounds[live]
                # 2**63 - 1024 is the largest double below 2**63: an exact cast
                floor = np.minimum(fails, 2.0**63 - 1024).astype(np.int64)
                late = (fails >= 2.0**63) | (floor >= room)
                capped[live[late]] = True
                bound = int(cap - room[~late].min(initial=cap))
                live, k, qk, v, fails = live[~late], k[~late], qk[~late], v[~late], fails[~late]
                longest = fails.max(initial=0.0)
            bound += int(longest) + 1
            rounds[live] += fails.astype(np.int64) + 1
            x = k - jump(v * qk)  # v q < q = cdf[k], so the jump never exceeds x
            position[live] = x
            live = live[x > 0]
    return rounds, capped


def token_hitting_times_by_state(r: int, distribution) -> np.ndarray:
    """Exact expected hitting times E[x] for every start x in {0, ..., r}.

    Forward substitution over the triangular chain with the self-loop
    correction E[x] = (1 + sum_{d<=x} P[d] E[x-d]) / P[d <= x].
    """
    if r > MAX_EXACT_STATES:
        raise CapacityError(f"exact solve supports r <= {MAX_EXACT_STATES}, got {r}")
    pmf = token_step_pmf(distribution, r)
    p = np.concatenate(([0.0], pmf))  # p[d] for d = 0..r
    reach = np.cumsum(p)  # reach[x] = P[d <= x]
    expect = np.zeros(r + 1)
    for x in range(1, r + 1):
        if reach[x] <= 0.0:
            raise DivergenceError(f"state {x} can never move; expected hitting time is infinite")
        expect[x] = (1.0 + float(np.dot(p[1:x + 1], expect[x - 1::-1]))) / reach[x]
    return expect


def token_expected_hitting_time_exact(r: int, distribution) -> float:
    """Exact E[T] under the uniform start over {0, ..., r}."""
    return float(token_hitting_times_by_state(r, distribution).mean())
