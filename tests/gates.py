"""The statistical gates: each one's workload, fixed seed and pass rule, once.

A gate runs one statistical test's workload at a seed and returns (ok,
margin, uncapped, detail): the test's pass rule; how far the measured value
lies inside the rule's bounds, in the rule's units (negative on failure);
whether no run hit its iteration cap; and the measured values. GATES holds
each gate with the seed its test runs it at: the tests run it there, and
tools/seed_sweep.py runs it at other seeds. pytest does not collect this
module.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
from scipy import stats

from helpers import (exact_expected_hitting_time, exact_fitness_planting_law,
                     exact_transition_matrix, goodness_of_fit_pvalue, same_categorical_pvalue)
from rvonemax import (AlgorithmKind, ExperimentPlan, MetricKind, Potential, ProblemInstance,
                      RunConfig, SpaceParams, StartPolicy, StepOperatorKind, TargetPolicy,
                      TokenConfig, component_distances, estimate_drift, execute_plan,
                      fit_scaling, fitness, hamming_distance, harmonic_number, mutate,
                      plant_rows_at_fitness, potential_value, run_batch, sample_uniform_point,
                      token_expected_hitting_time_exact, token_run_batch)

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC

GATES = []  # (name, fixed seed, gate), in the order the sweep reports them


def _gate(name, seed):
    def register(gate):
        GATES.append((name, seed, gate))
        return gate
    return register


def check(name):
    """The named gate's outcome at its fixed seed."""
    seed, gate = next((seed, gate) for gate_name, seed, gate in GATES if gate_name == name)
    return gate(seed)


def assert_passes(name):
    ok, _, _, detail = check(name)
    assert ok, f"{name}: {detail}"


def _plan(grid, operators, replicates, seed, cap=10**10, algorithm=EA,
          start=StartPolicy.uniform_random()):
    return ExperimentPlan(grid=grid, algorithms=(algorithm,), operators=operators,
                          metric=MetricKind.INTERVAL, target_policy=TargetPolicy.ALL_ZERO,
                          start_policy=start, replicates=replicates, base_seed=seed,
                          iteration_cap=cap)


def _inside(value, lo, hi):
    """Distance of value inside [lo, hi]; negative outside."""
    return min(value - lo, hi - value)


def _uncapped(aggs):
    return all(agg.capped_count == 0 for agg in aggs)


def _zeros(n, r):
    return ProblemInstance(SpaceParams(n, r), MetricKind.INTERVAL, np.zeros(n, dtype=np.int64))


@_gate("criterion 1", 1001)
def criterion_1(seed):
    """RLS from Hamming distance 20 (n=20, r=4): mean of 2000 runs within 3%
    of n (r-1) H_20."""
    agg, = execute_plan(_plan(((20, 4),), (UNIFORM,), 2000, seed, 50_000, RLS,
                              StartPolicy.fixed_hamming(20)))
    expected = 20 * 3 * harmonic_number(20)
    rel_err = abs(agg.mean - expected) / expected
    return (rel_err <= 0.03 and agg.capped_count == 0, 0.03 - rel_err, agg.capped_count == 0,
            f"mean={agg.mean:.2f}, expected={expected:.2f}, rel_err={rel_err:.4f}")


def _rls_mean(seed, n, r, runs, expected, tolerance, initial_point=None):
    """Mean hitting time of RLS runs within a relative tolerance of expected."""
    cfg = RunConfig(RLS, UNIFORM, _zeros(n, r), seed=seed, initial_point=initial_point)
    mean = np.mean([rec.hitting_time for rec in run_batch(cfg, runs)])
    rel_err = abs(mean - expected) / expected
    return (abs(mean - expected) <= tolerance * expected, tolerance - rel_err, True,
            f"mean={mean:.2f}, expected={expected:.2f}, rel_err={rel_err:.4f}")


@_gate("rls closed form", 2025)
def rls_closed_form(seed):
    """RLS from Hamming distance n (n=10, r=3): mean of 1500 runs within 4%
    of n (r-1) H_n."""
    n, r = 10, 3
    return _rls_mean(seed, n, r, 1500, n * (r - 1) * harmonic_number(n), 0.04,
                     initial_point=np.full(n, 1))


@_gate("rls random start", 31415)
def rls_random_start(seed):
    """RLS from a uniform start (n=10, r=2): mean of 1000 runs within 5% of
    n (r-1) H_k averaged over the Binomial(n, 1-1/r) start level k."""
    n, r = 10, 2
    expected = sum(stats.binom.pmf(k, n, 1 - 1 / r) * n * (r - 1) * harmonic_number(k)
                   for k in range(1, n + 1))
    return _rls_mean(seed, n, r, 1000, expected, 0.05)


@_gate("plan closed form", 12)
def plan_closed_form(seed):
    """execute_plan, RLS from Hamming distance n (n=10, r=3): mean of 800
    replicates within 5% of n (r-1) H_n, none capped."""
    n, r = 10, 3
    agg, = execute_plan(_plan(((n, r),), (UNIFORM,), 800, seed, algorithm=RLS,
                              start=StartPolicy.fixed_hamming(n)))
    expected = n * (r - 1) * harmonic_number(n)
    rel_err = abs(agg.mean - expected) / expected
    uncapped = agg.capped_count == 0 and not agg.censored
    return (abs(agg.mean - expected) <= 0.05 * expected and agg.replicates == 800 and uncapped,
            0.05 - rel_err, uncapped,
            f"mean={agg.mean:.2f}, expected={expected:.2f}, rel_err={rel_err:.4f}")


@_gate("criterion 7", 100)
def criterion_7(seed):
    """Token Monte Carlo means of 100,000 replicates within 3 standard errors
    of the exact expectation, r in {15, 63, 255} times the three step laws
    (margin: 3 minus the largest deviation in standard errors)."""
    pulls = {}
    for r in (15, 63, 255):
        for dist in ("unit", "uniform", "harmonic"):
            exact = token_expected_hitting_time_exact(r, dist)
            records = token_run_batch(TokenConfig(r=r, distribution=dist, seed=seed), 100_000)
            times = np.array([rec.hitting_time for rec in records], dtype=np.float64)
            se = times.std(ddof=1) / math.sqrt(times.size)
            pulls[f"r={r}/{dist}"] = abs(times.mean() - exact) / se
    worst = max(pulls.values())
    return (worst <= 3.0, 3.0 - worst, True,
            "max 3se deviations: " + " ".join(f"{k}:{v:.2f}se" for k, v in pulls.items()))


def _hamming_drift_law(seed, cells, samples, significance):
    """RLS Hamming drift per (n, r, levels) cell and level k: an exact binomial
    test at the significance that the whole drop count is Binomial(samples,
    k / (n (r-1))) (margin: the smallest p-value minus the significance)."""
    pvalues, exact, details = [], True, []
    for n, r, levels in cells:
        ests = estimate_drift(RunConfig(RLS, UNIFORM, _zeros(n, r), seed=seed),
                              Potential.hamming(), levels, samples)
        for k, est in zip(levels, ests):
            drops = est.mean_drop * samples
            exact = exact and abs(drops - round(drops)) <= 1e-6 and est.level == k
            p = stats.binomtest(round(drops), samples, k / (n * (r - 1))).pvalue
            pvalues.append(p)
            details.append(f"n={n} r={r} k={k}: drop={est.mean_drop:.4f} p={p:.3g}")
    least = min(pvalues)
    return exact and least > significance, least - significance, True, "; ".join(details)


@_gate("criterion 2", 2)
def criterion_2(seed):
    """Hamming drift at k = 1, 5, 10 (n=10, r=4) is exactly k/30, at 0.001/3
    per level; the accepted band at 34,000 samples is no wider than a 95% CI
    at 10,000: 3.59 / sqrt(34000) <= 1.96 / sqrt(10000) standard deviations."""
    return _hamming_drift_law(seed, [(10, 4, [1, 5, 10])], 34_000, 0.001 / 3)


@_gate("drift exact law", 0)
def drift_exact_law(seed):
    """Hamming drift at k=5 (n=10, r=4) is exactly k / (n (r-1)), at 0.001;
    the accepted band at 30,000 samples is no wider than a 95% CI at 10,000:
    3.29 / sqrt(30000) <= 1.96 / sqrt(10000) standard deviations."""
    return _hamming_drift_law(seed, [(10, 4, [5])], 30_000, 0.001)


@_gate("drift grid", 0)
def drift_grid(seed):
    """Hamming drift over n in {10, 50}, r in {3, 8}, k in {1, n/2, n}, at
    0.001/12 per cell; the accepted band at 20,000 samples is narrower than a
    95% CI at 4000: 3.94 / sqrt(20000) < 1.96 / sqrt(4000) standard deviations."""
    return _hamming_drift_law(seed, [(n, r, [1, n // 2, n]) for n in (10, 50) for r in (3, 8)],
                              20000, 0.001 / 12)


@_gate("drift floor", 0)
def drift_floor(seed):
    """EA uniform-step fitness drift at s=10 (n=10, r=3) at least
    s/(e (r-1) n), up to a 15% margin."""
    n, r, s = 10, 3, 10
    est, = estimate_drift(RunConfig(EA, UNIFORM, _zeros(n, r), seed=seed),
                          Potential.fitness(), [s], 10000)
    floor = s / (math.e * (r - 1) * n) * (1 - 0.15)
    return (est.mean_drop >= floor, est.mean_drop - floor, True,
            f"drop={est.mean_drop:.4f}, floor={floor:.4f}")


@_gate("fitness planting law", 46)
def fitness_planting_law(seed):
    """The distance vectors of 100,000 rows planted at fitness level s
    against the exact law of the one-unit-at-a-time loop: an interior
    interval target (n=2, r=20, target (0, 7), s in {5, 15, 25}; n=3, r=40,
    target (0, 30, 10), s in {20, 50, 80}) and the ring (n=3, r=40, s in
    {20, 50}), every level above n, so rows take several rounds of at most
    n labels, with rejections near the caps. One chi-square test at 0.001/8
    per level, cells expected fewer than 10 times pooled (margin: the
    smallest p-value minus 0.001/8)."""
    cases = ((MetricKind.INTERVAL, 20, (0, 7), (5, 15, 25)),
             (MetricKind.INTERVAL, 40, (0, 30, 10), (20, 50, 80)),
             (MetricKind.RING, 40, (0, 30, 10), (20, 50)))
    rows, significance = 100_000, 0.001 / 8
    rng = np.random.default_rng(seed)
    pvalues, details = [], []
    for metric, r, target, levels in cases:
        inst = ProblemInstance(SpaceParams(len(target), r), metric, np.array(target))
        for s in levels:
            x = plant_rows_at_fitness(inst, s, rows, rng)
            dist, counts = np.unique(component_distances(metric, x, inst.target, r), axis=0,
                                     return_counts=True)
            seen = dict(zip(map(tuple, dist.tolist()), counts.tolist()))
            law = exact_fitness_planting_law(inst.max_distances.tolist(), s)
            p = goodness_of_fit_pvalue(seen, law, min_expected=10.0)
            pvalues.append(p)
            details.append(f"{metric.value} r={r} s={s}: p={p:.3g}")
    least = min(pvalues)
    return least > significance, least - significance, True, "; ".join(details)


@_gate("criterion 3", 1003)
def criterion_3(seed):
    """Mean of the uniform-step EA at n=100, r=3 within 20% of e (r-1) n ln n."""
    agg, = execute_plan(_plan(((100, 3),), (UNIFORM,), 500, seed, 200_000))
    expected = math.e * 2 * 100 * math.log(100)
    rel_err = abs(agg.mean - expected) / expected
    return (rel_err <= 0.20 and agg.capped_count == 0, 0.20 - rel_err, agg.capped_count == 0,
            f"mean={agg.mean:.1f}, expected={expected:.1f}, rel_err={rel_err:.4f}")


@_gate("criterion 4", 1004)
def criterion_4(seed):
    """The +-1 EA's run time is Theta(n (r + log n)): doubling r from 64 to
    128 to 256 (n=50) doubles the mean, both ratios in [1.7, 2.3]."""
    aggs = execute_plan(_plan(tuple((50, r) for r in (64, 128, 256)), (PM1,), 300, seed,
                                 2_000_000))
    means = {agg.r: agg.mean for agg in aggs}
    hi, lo = means[256] / means[128], means[128] / means[64]
    return (1.7 <= hi <= 2.3 and 1.7 <= lo <= 2.3 and _uncapped(aggs),
            min(_inside(hi, 1.7, 2.3), _inside(lo, 1.7, 2.3)), _uncapped(aggs),
            f"mean(256)/mean(128)={hi:.3f}, mean(128)/mean(64)={lo:.3f}")


@_gate("criterion 5", 1005)
def criterion_5(seed):
    """Harmonic EA, polylog in r: mean(r=256) / mean(r=16) at most 5 (n=50),
    well under the 16 a linear law predicts."""
    aggs = execute_plan(_plan(((50, 16), (50, 256)), (HARMONIC,), 300, seed, 1_000_000))
    means = {agg.r: agg.mean for agg in aggs}
    ratio = means[256] / means[16]
    return (ratio <= 5.0 and _uncapped(aggs), 5.0 - ratio, _uncapped(aggs),
            f"mean(256)/mean(16)={ratio:.3f} (linear law would give ~16)")


@_gate("criterion 6", 1006)
def criterion_6(seed):
    """At n=30, r=512 the harmonic EA's mean is at most half the +-1 and the
    uniform means (margin: the smaller factor minus 2)."""
    aggs = execute_plan(_plan(((30, 512),), (UNIFORM, PM1, HARMONIC), 200, seed,
                                 10_000_000))
    means = {agg.operator: agg.mean for agg in aggs}
    factor = min(means[PM1], means[UNIFORM]) / means[HARMONIC]
    ok = (means[HARMONIC] <= means[PM1] / 2 and means[HARMONIC] <= means[UNIFORM] / 2
          and _uncapped(aggs))
    return (ok, factor - 2.0, _uncapped(aggs), f"harmonic={means[HARMONIC]:.0f}, "
            f"pm1={means[PM1]:.0f}, uniform={means[UNIFORM]:.0f}")


@_gate("uniform fit", 1)
def uniform_fit(seed):
    """The uniform-step EA's run time scales like c (r-1) n ln n: the fitted c
    within 15% of e (margin in units of e)."""
    aggs = execute_plan(_plan(tuple((n, r) for n in (50, 100, 200) for r in (3, 5, 9)),
                                 (UNIFORM,), 40, seed))
    c = fit_scaling(aggs, "uniform_rnlogn").coefficients[0]
    return (math.e * 0.85 <= c <= math.e * 1.15, _inside(c / math.e, 0.85, 1.15), True,
            f"c/e={c / math.e:.4f}")


@_gate("pm1 fit", 2)
def pm1_fit(seed):
    """The +-1 law fitted over r in {32, ..., 256} (n=50) predicts a ratio in
    [1.8, 2.2] from r=128 to r=256."""
    aggs = execute_plan(_plan(tuple((50, r) for r in (32, 64, 128, 256)), (PM1,), 50, seed))
    fit = fit_scaling(aggs, "pm1_r_plus_logn")
    ratio = fit.predict(50, 256) / fit.predict(50, 128)
    return 1.8 <= ratio <= 2.2, _inside(ratio, 1.8, 2.2), True, f"ratio={ratio:.4f}"


def _raises_hamming(trace):
    """Whether a run's trace holds an accepted move that raises the Hamming distance."""
    return any(f1 <= f0 and h1 > h0 for (_, (f0, h0)), (_, (f1, h1)) in zip(trace, trace[1:]))


def _reference_raises_hamming(inst, rng):
    """The same event in one run of the plain mutation-selection loop over mutate()."""
    x = sample_uniform_point(inst.params, rng)
    fx = fitness(inst, x)
    while fx:
        y, _ = mutate(EA, UNIFORM, inst, x, rng)
        fy = fitness(inst, y)
        if fy <= fx:
            if hamming_distance(y, inst.target) > hamming_distance(x, inst.target):
                return True
            x, fx = y, fy
    return False


@_gate("hamming increase", 0)
def hamming_increase(seed):
    """About 41% of uniform-step EA runs at n=8, r=6 make an accepted move
    that raises the Hamming distance: some run of 400 must make one (a false
    failure has probability about 0.59^400), and the per-run rate must match
    the plain loop's (two-proportion chi-square at 0.001; margin: its
    p-value minus 0.001)."""
    inst, runs = _zeros(8, 6), 400
    cfg = RunConfig(EA, UNIFORM, inst, seed=seed, iteration_cap=20000,
                    trace_potentials=(Potential.fitness(), Potential.hamming()))
    records = run_batch(cfg, runs)
    kernel = sum(_raises_hamming(rec.trace) for rec in records)
    rng = np.random.default_rng(8008 + seed)  # the plain loop's seed moves with the gate's
    reference = sum(_reference_raises_hamming(inst, rng) for _ in range(runs))
    p = same_categorical_pvalue({True: kernel, False: runs - kernel},
                                {True: reference, False: runs - reference})
    return (kernel > 0 and p > 0.001, p - 0.001, not any(rec.capped for rec in records),
            f"kernel={kernel}/{runs}, reference={reference}/{runs}, p={p:.3g}")


@_gate("transition oracle", 44)
def transition_oracle(seed):
    """The law of the trace row (fitness, Hamming, exp_weight:2) at
    iterations 1 and 4 from a uniform start, for RLS and the EA with every
    operator on both metrics (n=3, r=4, target (0, 1, 2)), against the exact
    law: the uniform start pushed through exact_transition_matrix. One
    chi-square test at 0.001/24 per (algorithm, operator, metric, iteration)
    on 2000 runs, capped at 4 iterations by design (margin: the smallest
    p-value minus 0.001/24)."""
    runs, significance = 2000, 0.001 / 24
    pots = (Potential.fitness(), Potential.hamming(), Potential.exp_weight(2.0))
    pvalues, details = [], []
    for metric in (MetricKind.INTERVAL, MetricKind.RING):
        inst = ProblemInstance(SpaceParams(3, 4), metric, np.array([0, 1, 2]))
        rows = [tuple(potential_value(p, inst, np.array(x)) for p in pots)
                for x in itertools.product(range(4), repeat=3)]
        for algorithm, operator in itertools.product((RLS, EA), (UNIFORM, PM1, HARMONIC)):
            matrix = exact_transition_matrix(algorithm, operator, inst)
            records = run_batch(RunConfig(algorithm, operator, inst, seed=seed, iteration_cap=4,
                                          trace_potentials=pots), runs)
            law = np.full(len(rows), 1.0 / len(rows))
            for t in range(1, 5):
                law = law @ matrix
                if t not in (1, 4):
                    continue
                exact = Counter()
                for row, prob in zip(rows, law):
                    exact[row] += prob
                # a run that hit the optimum before t stays there: its last row
                seen = Counter(rec.trace[min(t, len(rec.trace) - 1)][1] for rec in records)
                p = goodness_of_fit_pvalue(seen, exact)
                pvalues.append(p)
                details.append(f"{algorithm.value}/{operator.value}/{metric.value}/t={t}: "
                               f"p={p:.3g}")
    least = min(pvalues)
    return least > significance, least - significance, True, "; ".join(details)


@_gate("rls exact mean", 47)
def rls_exact_mean(seed):
    """The mean hitting time of 20,000 RLS runs from a uniform start, for
    every operator on both metrics (n=3, r=4, target (0, 1, 2)), against the
    exact E[T] of exact_transition_matrix: one two-sided z-test at 0.001/6
    per (operator, metric), so the gate as a whole is at 0.001 (margin: the
    smallest p-value minus 0.001/6)."""
    runs, significance = 20_000, 0.001 / 6
    pvalues, details = [], []
    for metric in (MetricKind.INTERVAL, MetricKind.RING):
        inst = ProblemInstance(SpaceParams(3, 4), metric, np.array([0, 1, 2]))
        for operator in (UNIFORM, PM1, HARMONIC):
            exact = exact_expected_hitting_time(exact_transition_matrix(RLS, operator, inst))
            times = np.array([rec.hitting_time for rec in
                              run_batch(RunConfig(RLS, operator, inst, seed=seed), runs)],
                             dtype=np.float64)
            z = (times.mean() - exact) / (times.std(ddof=1) / math.sqrt(runs))
            p = 2.0 * stats.norm.sf(abs(z))
            pvalues.append(p)
            details.append(f"{operator.value}/{metric.value}: mean={times.mean():.3f} "
                           f"exact={exact:.3f} z={z:.2f}")
    least = min(pvalues)
    return least > significance, least - significance, True, "; ".join(details)


@_gate("ea one step", 45)
def ea_one_step(seed):
    """The fitness after one iteration of the uniform-step EA from (4, 2)
    (n=2, r=5, interval, target (0, 0)) against the exact law of
    exact_transition_matrix: a chi-square test at 0.001 on 40,000 runs
    (margin: its p-value minus 0.001). There the other position is often
    selected beside a not-worse step with its step conditioned on missing,
    so the rate at which the kernel keeps such candidates shows."""
    inst, x0, runs = _zeros(2, 5), (4, 2), 40_000
    matrix = exact_transition_matrix(EA, UNIFORM, inst)
    points = list(itertools.product(range(5), repeat=2))
    exact = Counter()
    for x, prob in zip(points, matrix[points.index(x0)]):
        exact[fitness(inst, np.array(x))] += prob
    records = run_batch(RunConfig(EA, UNIFORM, inst, seed=seed, iteration_cap=1,
                                  initial_point=x0), runs)
    seen = Counter(rec.final_fitness for rec in records)  # 0 when the run hit
    p = goodness_of_fit_pvalue(seen, exact)
    return p > 0.001, p - 0.001, True, f"p={p:.3g}, fitness counts {dict(sorted(seen.items()))}"
