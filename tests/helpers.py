"""Shared test oracles and statistical assertion helpers."""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict

import numpy as np
from scipy import stats

from rvonemax import (AlgorithmKind, MetricKind, ProblemInstance, RunConfig, SpaceParams,
                      StartKind, StepOperatorKind, TargetPolicy, fitness, harmonic_table,
                      mutate, sample_uniform_point, stable_seed, step, subseed, token_step_pmf)
from rvonemax.algorithms import _uniforms


class CountingGenerator:
    """A Generator whose method calls are recorded by name in `calls`, and
    the sizes of what they return in `sizes`."""

    def __init__(self, rng, calls):
        self._rng, self._calls, self.sizes = rng, calls, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._calls.append(name)
            out = method(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out
        return call


def assert_chi_square(counts, expected_probs, significance=0.001):
    """Goodness-of-fit check; fails only below the given significance."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected_probs, dtype=np.float64) * counts.sum()
    result = stats.chisquare(counts, expected)
    assert result.pvalue > significance, (
        f"chi-square rejected: p={result.pvalue:.3g} <= {significance} "
        f"(stat={result.statistic:.2f})")


def assert_same_distribution(sample_a, sample_b, significance=0.001):
    result = stats.ks_2samp(sample_a, sample_b)
    assert result.pvalue > significance, (
        f"KS rejected equality: p={result.pvalue:.3g} <= {significance}")


def reference_hitting_time(algorithm, operator, instance, rng, cap=10**7,
                           initial_point=None):
    """Plain mutation-selection loop built on the public mutate(); used as an
    independent oracle for the tuned engine inside run()."""
    if initial_point is None:
        x = sample_uniform_point(instance.params, rng)
    else:
        x = np.array(initial_point, dtype=np.int64)
    fx = fitness(instance, x)
    if fx == 0:
        return 0
    for t in range(1, cap + 1):
        y, _ = mutate(algorithm, operator, instance, x, rng)
        fy = fitness(instance, y)
        if fy == 0:
            return t
        if fy <= fx:
            x, fx = y, fy
    raise AssertionError("reference run exceeded its cap")


def reference_state_after(algorithm, operator, instance, x, iterations, rng):
    """The point after `iterations` rounds of the plain mutation-selection
    loop over mutate() from x; an oracle for the kernels' transition law."""
    x = np.array(x, dtype=np.int64)
    fx = fitness(instance, x)
    for _ in range(iterations):
        y, _ = mutate(algorithm, operator, instance, x, rng)
        fy = fitness(instance, y)
        if fy <= fx:
            x, fx = y, fy
    return x


def reference_one_iteration(algorithm, operator, instance, x, rng):
    """One mutation-selection round on one point through mutate(); an oracle
    for the row round algorithms.one_iteration."""
    y, _ = mutate(algorithm, operator, instance, x, rng)
    return y if fitness(instance, y) <= fitness(instance, x) else np.array(x, dtype=np.int64)


def _max_component_distance(instance, i):
    r = instance.params.r
    if instance.metric is MetricKind.RING:
        return r // 2
    z = int(instance.target[i])
    return max(z, r - 1 - z)


def reference_realize_distances(instance, distances, rng):
    """One point at the given per-component distances, a side drawn per
    component among the feasible ones; an oracle for the row planters."""
    r = instance.params.r
    x = np.array(instance.target, dtype=np.int64)
    for i, d in enumerate(distances):
        d = int(d)
        if d == 0:
            continue
        assert 0 < d <= _max_component_distance(instance, i)
        z = int(instance.target[i])
        if instance.metric is MetricKind.RING:
            options = sorted({(z - d) % r, (z + d) % r})
        else:
            options = [v for v in (z - d, z + d) if 0 <= v < r]
        x[i] = options[int(rng.integers(0, len(options)))]
    return x


def reference_plant_state_at_hamming(instance, k, rng):
    """The target with k uniformly chosen positions set to uniform wrong
    values, by rng.choice of the positions; an oracle for the row planters."""
    params = instance.params
    assert 0 <= k <= params.n
    x = np.array(instance.target, dtype=np.int64)
    where = rng.choice(params.n, size=k, replace=False)
    wrong = rng.integers(0, params.r - 1, size=k)
    x[where] = wrong + (wrong >= x[where])  # uniform over the r-1 wrong values
    return x


def reference_replicate_config(plan, n, r, algorithm, operator, rep):
    """The RunConfig of one replicate of a plan, built alone: its seed is
    subseed(cell seed, rep), and its set-up draws are row rep of the cell's
    set-up stream, reached by drawing and discarding the rows before it.
    The row's uniforms, drawn one at a time, give the random target
    (floor(u r) each), then n keys whose k smallest, in position order,
    take the planted wrong values floor(u (r-1)) drawn next; an exact
    oracle for the cell builder."""
    cell = f"{n}|{r}|{algorithm.value}|{operator.value}|{plan.metric.value}"
    rng = np.random.default_rng(stable_seed(plan.base_seed, cell + "|setup"))
    width = n if plan.target_policy is TargetPolicy.UNIFORM_RANDOM else 0
    if plan.start_policy.kind is StartKind.FIXED_HAMMING:
        width += n + plan.start_policy.hamming_k
    rng.random(rep * width)
    if plan.target_policy is TargetPolicy.ALL_ZERO:
        target = [0] * n
    elif plan.target_policy is TargetPolicy.CENTER:
        target = [r // 2] * n
    else:
        target = [math.floor(rng.random() * r) for _ in range(n)]
    start = None
    if plan.start_policy.kind is StartKind.FIXED_HAMMING:
        k = plan.start_policy.hamming_k
        keys = [rng.random() for _ in range(n)]
        start = list(target)
        for i in sorted(sorted(range(n), key=keys.__getitem__)[:k]):
            wrong = math.floor(rng.random() * (r - 1))
            start[i] = wrong + (wrong >= start[i])
    elif plan.start_policy.kind is StartKind.ALL_MAX_DISTANCE:
        if plan.metric is MetricKind.RING:
            start = [(z + r // 2) % r for z in target]
        else:  # farthest interval value; ties broken toward r-1
            start = [0 if z > r - 1 - z else r - 1 for z in target]
    instance = ProblemInstance(SpaceParams(n, r), plan.metric, target)
    return RunConfig(algorithm, operator, instance,
                     seed=subseed(stable_seed(plan.base_seed, cell), rep),
                     iteration_cap=plan.iteration_cap, initial_point=start)


def reference_plant_state_at_fitness(instance, s, rng):
    """One point at fitness s, one unit of distance at a time on a uniform
    component with headroom left; an oracle for the row planters."""
    n = instance.params.n
    caps = [_max_component_distance(instance, i) for i in range(n)]
    dist = [0] * n
    room = [i for i in range(n) if caps[i] > 0]
    for _ in range(s):
        j = int(rng.integers(0, len(room)))
        i = room[j]
        dist[i] += 1
        if dist[i] == caps[i]:
            room[j] = room[-1]
            room.pop()
    return reference_realize_distances(instance, dist, rng)


def exact_fitness_planting_law(caps, s):
    """The law {distance vector: probability} of the one-unit-at-a-time
    planting loop after s units with per-component caps: each unit goes to a
    uniform component below its cap (a DP over distance vectors)."""
    law = {(0,) * len(caps): 1.0}
    for _ in range(s):
        nxt = defaultdict(float)
        for dist, prob in law.items():
            room = [i for i, cap in enumerate(caps) if dist[i] < cap]
            for i in room:
                nxt[dist[:i] + (dist[i] + 1,) + dist[i + 1:]] += prob / len(room)
        law = nxt
    return dict(law)


def same_categorical_pvalue(counts_a, counts_b):
    """p-value of a chi-square test of homogeneity of two samples given as
    {category: count} mappings; categories seen fewer than 10 times in the
    two samples together are pooled into one."""
    keys = sorted(set(counts_a) | set(counts_b))
    table = np.array([[counts_a.get(k, 0) for k in keys], [counts_b.get(k, 0) for k in keys]])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table).pvalue


def assert_same_categorical(counts_a, counts_b, significance=0.001):
    pvalue = same_categorical_pvalue(counts_a, counts_b)
    assert pvalue > significance, (
        f"chi-square rejected homogeneity: p={pvalue:.3g} <= {significance}")


def reference_token_hitting_time(r, distribution, rng, cap=10**7):
    """Round-by-round token chain from a uniform start on {0, ..., r}: every
    round draws a step size d by inverse CDF and moves only when d <= x. Used
    as an independent oracle for the rejection-free kernel in token_run_batch."""
    cdf = np.cumsum(token_step_pmf(distribution, r)).tolist()
    cdf[-1] = 1.0
    x = int(rng.integers(0, r + 1))
    for t in range(cap + 1):
        if x == 0:
            return t
        if t == cap:
            break
        d = bisect.bisect_right(cdf, rng.random()) + 1
        if d <= x:
            x -= d
    raise AssertionError("reference token run exceeded its cap")


def reference_poisson(key, mean):
    """One Poisson(mean) count from the counter stream of key, by a plain
    loop: below a mean of 10, inversion of the uniform at counter 0; from 10
    on, PTRS tries a = 0, 1, ... from counters 2a and 2a + 1, up to the
    first accepted one. An exact oracle for algorithms._poisson."""
    def uniform(counter):
        return float(_uniforms(np.array([key], dtype=np.uint64),
                               np.array([counter], dtype=np.uint64))[0])

    if mean < 10:
        u, k = uniform(0), 0
        p = cdf = math.exp(-mean)  # P[X = k] and P[X <= k]
        while u >= cdf and p > 0:
            k += 1
            p = p * mean / k
            cdf += p
        return k
    b = 0.931 + 2.53 * math.sqrt(mean)
    a, vr = -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2)
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    for t in itertools.count():
        U, V = uniform(2 * t) - 0.5, uniform(2 * t + 1)
        us = max(0.5 - abs(U), 1e-300)
        k = math.floor((2 * a / us + b) * U + mean + 0.43)
        if us >= 0.07 and V <= vr:
            return k
        if k < 0 or (us < 0.013 and V > us):
            continue
        if (math.log(V * invalpha / (a / (us * us) + b))
                <= k * math.log(mean) - mean - math.lgamma(k + 1)):
            return k


class _ScriptedRng:
    """Stands in for a Generator inside operators.step: integers() and
    random() return the scripted draws in order."""

    def __init__(self, ints=(), floats=()):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, low, high=None):
        return self._ints.pop(0)

    def random(self):
        return self._floats.pop(0)


def step_outcomes(kind, metric, current, r):
    """Every outcome of operators.step as (probability, value or None), by
    scripting each possible draw: the uniform raw value, or the jump size
    (the left end of its CDF interval) and the sign."""
    if kind is StepOperatorKind.UNIFORM:
        return [(1.0 / (r - 1), step(kind, metric, current, r, _ScriptedRng(ints=[v])))
                for v in range(r - 1)]
    if kind is StepOperatorKind.PLUS_MINUS_ONE:
        return [(0.5, step(kind, metric, current, r, _ScriptedRng(ints=[sign])))
                for sign in (0, 1)]
    table = harmonic_table(r)
    F = table.F.tolist()  # jump j is drawn for u in [F[j-1], F[j])
    return [(table.pmf[j - 1] / 2, step(kind, metric, current, r,
                                        _ScriptedRng(ints=[sign], floats=[F[j - 1]])))
            for j in range(1, r) for sign in (0, 1)]


def exact_transition_matrix(algorithm, operator, instance):
    """The exact one-iteration transition matrix of the mutation-selection
    loop over all r^n points (n <= 3, r <= 5), in itertools.product order:
    entry [a, b] is P[x_{t+1} = point b | x_t = point a].

    It enumerates the selection subsets (RLS: one position, each with
    probability 1/n; the (1+1) EA: each subset S with probability
    (1/n)^|S| (1 - 1/n)^(n - |S|)) and every joint outcome of step_outcomes
    at the selected positions, and the offspring replaces x iff its fitness
    is not worse. The optimum is absorbing: a run stops there.
    """
    n, r = instance.params.n, instance.params.r
    assert n <= 3 and r <= 5, "the enumeration is meant for tiny instances"
    points = list(itertools.product(range(r), repeat=n))
    index = {x: k for k, x in enumerate(points)}
    fit = [fitness(instance, np.array(x)) for x in points]
    if algorithm is AlgorithmKind.RLS:
        subsets = [((i,), 1.0 / n) for i in range(n)]
    else:
        subsets = [(S, (1.0 / n) ** k * (1.0 - 1.0 / n) ** (n - k))
                   for k in range(n + 1) for S in itertools.combinations(range(n), k)]
    outcomes = {v: step_outcomes(operator, instance.metric, v, r) for v in range(r)}
    matrix = np.zeros((len(points), len(points)))
    for a, x in enumerate(points):
        if fit[a] == 0:
            matrix[a, a] = 1.0
            continue
        for S, selected in subsets:
            for joint in itertools.product(*(outcomes[x[i]] for i in S)):
                y, prob = list(x), selected
                for i, (p, value) in zip(S, joint):
                    prob *= p
                    if value is not None:
                        y[i] = value
                b = index[tuple(y)]
                matrix[a, b if fit[b] <= fit[a] else a] += prob
    return matrix


def exact_expected_hitting_time(matrix):
    """E[T] from a uniform start over all points under a matrix of
    exact_transition_matrix: the expected iterations to the optimum solve
    m = 1 + Q m on the other points (Q the matrix restricted to them), and
    are 0 at the optimum, the one point that stays put surely."""
    transient = np.diag(matrix) < 1.0
    q = matrix[np.ix_(transient, transient)]
    m = np.linalg.solve(np.eye(q.shape[0]) - q, np.ones(q.shape[0]))
    return float(m.sum() / matrix.shape[0])


def goodness_of_fit_pvalue(counts, probs, min_expected=5.0):
    """p-value of a chi-square goodness-of-fit test of the sample given as
    {category: count} against the law {category: probability}; categories
    expected fewer than min_expected times are pooled into one. A category
    the law gives no mass fails the test outright (p-value 0)."""
    if any(k not in probs or probs[k] <= 0 for k in counts):
        return 0.0
    total = sum(counts.values())
    keys = sorted(probs)
    observed = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
    expected = np.array([probs[k] for k in keys]) * total
    rare = expected < min_expected
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    keep = expected > 0
    observed, expected = observed[keep], expected[keep]
    expected *= observed.sum() / expected.sum()  # the law sums to 1 up to rounding
    return float(stats.chisquare(observed, expected).pvalue)


def binomial_pmf(n, p, k):
    return float(stats.binom.pmf(k, n, p))


__all__ = ["CountingGenerator", "assert_chi_square", "assert_same_categorical",
           "assert_same_distribution",
           "exact_expected_hitting_time", "exact_fitness_planting_law", "exact_transition_matrix",
           "goodness_of_fit_pvalue",
           "reference_hitting_time", "reference_one_iteration", "reference_poisson",
           "reference_plant_state_at_fitness", "reference_plant_state_at_hamming",
           "reference_realize_distances", "reference_replicate_config",
           "reference_state_after", "reference_token_hitting_time", "same_categorical_pvalue",
           "step_outcomes", "binomial_pmf", "AlgorithmKind"]
