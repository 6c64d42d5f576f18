"""Seed sweep of the statistical EA and drift gates: pass rate and margin per gate.

Usage, from the repository root:

    python3 tools/seed_sweep.py 1 2 3 4 5 --workers 2

Each gate reruns the workload of one fixed-seed test whose outcome comes
from EA runs, once per seed given on the command line in place of the
test's own seed, and applies that test's pass rule:

- criteria 2 to 6 of tests/test_acceptance.py;
- test_ea_uniform_fit_recovers_leading_constant and
  test_ea_pm1_fit_dominant_term_doubles_with_r of tests/test_experiments.py;
- the run-level check of
  test_ea_can_increase_hamming_distance_while_fitness_holds of
  tests/test_algorithms.py (an existence check on one run, the form that
  test had before it pooled 400 runs);
- test_rls_uniform_hamming_drift_grid and
  test_ea_fitness_drift_beats_multiplicative_floor of tests/test_drift.py.

The margin is how far the measured value lies inside the rule's bounds, in
the rule's own units (negative when the gate fails). A gate that passes at
its fixed seed but not at most seeds rests on a lucky seed. This is a
report, not a test: it asserts nothing and is not part of the test suite.
One seed takes about a minute on one core; criteria 4 and 6 dominate. The
drift gates take under a second per seed.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rvonemax import (AlgorithmKind, ExperimentPlan, MetricKind, Potential,  # noqa: E402
                      ProblemInstance, RunConfig, SpaceParams, StartPolicy,
                      StepOperatorKind, TargetPolicy, estimate_drift, execute_plan,
                      fit_scaling, run)

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC


def _plan(grid, operators, replicates, seed, cap=10**10):
    return ExperimentPlan(grid=grid, algorithms=(EA,), operators=operators,
                          metric=MetricKind.INTERVAL, target_policy=TargetPolicy.ALL_ZERO,
                          start_policy=StartPolicy.uniform_random(), replicates=replicates,
                          base_seed=seed, iteration_cap=cap)


def _inside(value, lo, hi):
    """Distance of value inside [lo, hi]; negative outside."""
    return min(value - lo, hi - value)


def _uncapped(aggs):
    return all(agg.capped_count == 0 for agg in aggs)


def _zeros(n, r):
    return ProblemInstance(SpaceParams(n, r), MetricKind.INTERVAL, np.zeros(n, dtype=np.int64))


def criterion_2(seed, workers):
    """RLS Hamming drift at k = 1, 5, 10 (n=10, r=4) within the 95% CI of k/30."""
    levels = [1, 5, 10]
    ests = estimate_drift(RunConfig(RLS, UNIFORM, _zeros(10, 4), seed=seed),
                          Potential.hamming(), levels, samples=10_000)
    margin = min(est.confidence_halfwidth - abs(est.mean_drop - k / 30)
                 for k, est in zip(levels, ests))
    return margin, True, "drops=" + ",".join(f"{est.mean_drop:.4f}" for est in ests)


def drift_grid(seed, workers):
    """RLS Hamming drift over n in {10, 50}, r in {3, 8}, k in {1, n/2, n}:
    exact binomial test of each drop count at 0.001/12 (margin: smallest
    p-value minus the threshold)."""
    samples, cells = 20000, 12
    pvalues = []
    for n in (10, 50):
        for r in (3, 8):
            levels = [1, n // 2, n]
            ests = estimate_drift(RunConfig(RLS, UNIFORM, _zeros(n, r), seed=seed),
                                  Potential.hamming(), levels, samples)
            pvalues += [stats.binomtest(round(est.mean_drop * samples), samples,
                                        k / (n * (r - 1))).pvalue
                        for k, est in zip(levels, ests)]
    return min(pvalues) - 0.001 / cells, True, f"min_p={min(pvalues):.3g}"


def drift_floor(seed, workers):
    """EA uniform fitness drift at s=10 (n=10, r=3) at least 0.85 s/(e (r-1) n)."""
    n, r, s = 10, 3, 10
    est, = estimate_drift(RunConfig(EA, UNIFORM, _zeros(n, r), seed=seed),
                          Potential.fitness(), [s], 10000)
    floor = s / (math.e * (r - 1) * n) * (1 - 0.15)
    return est.mean_drop - floor, True, f"drop={est.mean_drop:.4f}"


def criterion_3(seed, workers):
    """Mean of the uniform-step EA at n=100, r=3 within 20% of e(r-1) n ln n."""
    agg, = execute_plan(_plan(((100, 3),), (UNIFORM,), 500, seed, 200_000), workers)
    expected = math.e * 2 * 100 * math.log(100)
    rel_err = abs(agg.mean - expected) / expected
    return 0.20 - rel_err, agg.capped_count == 0, f"rel_err={rel_err:.4f}"


def criterion_4(seed, workers):
    """Doubling r doubles the +-1 EA's mean: both ratios in [1.7, 2.3]."""
    aggs = execute_plan(_plan(tuple((50, r) for r in (64, 128, 256)), (PM1,), 300, seed,
                              2_000_000), workers)
    means = {agg.r: agg.mean for agg in aggs}
    hi, lo = means[256] / means[128], means[128] / means[64]
    margin = min(_inside(hi, 1.7, 2.3), _inside(lo, 1.7, 2.3))
    return margin, _uncapped(aggs), f"ratios={lo:.3f},{hi:.3f}"


def criterion_5(seed, workers):
    """Harmonic EA: mean(r=256) / mean(r=16) at most 5."""
    aggs = execute_plan(_plan(((50, 16), (50, 256)), (HARMONIC,), 300, seed, 1_000_000),
                        workers)
    means = {agg.r: agg.mean for agg in aggs}
    ratio = means[256] / means[16]
    return 5.0 - ratio, _uncapped(aggs), f"ratio={ratio:.3f}"


def criterion_6(seed, workers):
    """At n=30, r=512 the harmonic mean is at most half the +-1 and uniform means."""
    aggs = execute_plan(_plan(((30, 512),), (UNIFORM, PM1, HARMONIC), 200, seed, 10_000_000),
                        workers)
    means = {agg.operator: agg.mean for agg in aggs}
    factor = min(means[PM1], means[UNIFORM]) / means[HARMONIC]
    return factor - 2.0, _uncapped(aggs), f"factor={factor:.2f}"


def uniform_fit(seed, workers):
    """Fitted c of c (r-1) n ln n within 15% of e (margin in units of e)."""
    aggs = execute_plan(_plan(tuple((n, r) for n in (50, 100, 200) for r in (3, 5, 9)),
                              (UNIFORM,), 40, seed), workers)
    c = fit_scaling(aggs, "uniform_rnlogn").coefficients[0]
    return _inside(c / math.e, 0.85, 1.15), True, f"c/e={c / math.e:.4f}"


def pm1_fit(seed, workers):
    """The fitted +-1 law predicts a ratio in [1.8, 2.2] from r=128 to r=256."""
    aggs = execute_plan(_plan(tuple((50, r) for r in (32, 64, 128, 256)), (PM1,), 50, seed),
                        workers)
    fit = fit_scaling(aggs, "pm1_r_plus_logn")
    ratio = fit.predict(50, 256) / fit.predict(50, 128)
    return _inside(ratio, 1.8, 2.2), True, f"ratio={ratio:.4f}"


def hamming_increase(seed, workers):
    """One uniform-step EA run at n=8, r=6 makes an accepted move that raises
    the Hamming distance; the margin is the number of such moves minus the 1
    the gate needs."""
    trace = run(RunConfig(EA, UNIFORM, _zeros(8, 6), seed=seed, iteration_cap=20000,
                          trace_potentials=(Potential.fitness(), Potential.hamming()))).trace
    moves = sum(1 for (_, (f0, h0)), (_, (f1, h1)) in zip(trace, trace[1:])
                if f1 <= f0 and h1 > h0)
    return moves - 1, True, f"moves={moves}"


# (name, fixed seed of the test, gate)
GATES = (
    ("criterion 2", 2, criterion_2),
    ("drift grid", 0, drift_grid),
    ("drift floor", 0, drift_floor),
    ("criterion 3", 1003, criterion_3),
    ("criterion 4", 1004, criterion_4),
    ("criterion 5", 1005, criterion_5),
    ("criterion 6", 1006, criterion_6),
    ("uniform fit", 1, uniform_fit),
    ("pm1 fit", 2, pm1_fit),
    ("hamming increase", 0, hamming_increase),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="seeds to run each gate at")
    parser.add_argument("--workers", type=int, default=1, help="processes per plan")
    args = parser.parse_args(argv)
    summary = []
    for name, fixed_seed, gate in GATES:
        margins, passed = [], 0
        for seed in args.seeds:
            # a gate passes when its margin is >= 0 and no run was capped
            margin, uncapped, detail = gate(seed, args.workers)
            ok = margin >= 0 and uncapped
            passed += ok
            margins.append(margin)
            print(f"{name}: seed {seed}: {'pass' if ok else 'FAIL'} margin={margin:.4g} "
                  f"({detail}{'' if uncapped else ', capped runs'})", flush=True)
        summary.append((name, fixed_seed, passed, margins))
    print(f"{'gate':<18} {'test seed':>9} {'passed':>8} {'min margin':>11} {'median margin':>14}")
    for name, fixed_seed, passed, margins in summary:
        print(f"{name:<18} {fixed_seed:>9} {passed:>4}/{len(margins):<3} "
              f"{min(margins):>11.4g} {statistics.median(margins):>14.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
