"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The workloads, fixed seeds and pass rules of
criteria 1-7 are their gates in tests/gates.py, which tools/seed_sweep.py
also runs at other seeds.
"""

import time

import numpy as np

from gates import check
from helpers import assert_chi_square, assert_same_distribution
from rvonemax import (AlgorithmKind, MetricKind, Potential, ProblemInstance, RunConfig,
                      SpaceParams, StepOperatorKind, fit_scaling, harmonic_pmf, harmonic_table,
                      metric_distance, run, run_batch, token_expected_hitting_time_exact)
from rvonemax.cli import main as cli_main

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail}) [{elapsed:.1f}s / budget {budget}s]",
          flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed <= budget, f"criterion {criterion} exceeded its {budget}s budget ({elapsed:.1f}s)"


def accept(criterion, budget):
    """Run the criterion's gate at its fixed seed and report it."""
    t0 = time.perf_counter()
    ok, _, _, detail = check(f"criterion {criterion}")
    report(criterion, ok, detail, time.perf_counter() - t0, budget)


def test_criterion_1_exact_rls_law():
    accept(1, 10)


def test_criterion_2_rls_drift_exactness():
    accept(2, 30)


def test_criterion_3_ea_uniform_leading_constant():
    accept(3, 120)


def test_criterion_4_pm1_linear_in_r():
    accept(4, 300)


def test_criterion_5_harmonic_polylog_in_r():
    accept(5, 300)


def test_criterion_6_operator_ordering_at_large_r():
    accept(6, 600)


def test_criterion_7_token_monte_carlo_matches_exact():
    accept(7, 120)


def test_criterion_8_token_harmonic_scaling():
    # exact expectations for r = 2^k - 1 follow a quadratic in log r
    t0 = time.perf_counter()
    points = [(1, r, token_expected_hitting_time_exact(r, "harmonic"))
              for r in (2**k - 1 for k in range(4, 13))]
    fit = fit_scaling(points, "quadratic_log_r")
    elapsed = time.perf_counter() - t0
    ok = fit.r_squared >= 0.999
    report(8, ok, f"R^2={fit.r_squared:.6f}, coefficients={[f'{c:.3f}' for c in fit.coefficients]}",
           elapsed, 10)


def test_criterion_9_property_suites(capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []

    # metric axioms, exhaustive for r <= 64
    for r in range(2, 65):
        for ring in (False, True):
            values = np.arange(r)
            d = np.abs(values[:, None] - values[None, :])
            if ring:
                d = np.minimum(d, r - d)
            kind = MetricKind.RING if ring else MetricKind.INTERVAL
            spot = [(a, b) for a in (0, 1, r - 1) for b in (0, r // 2, r - 1)]
            if not ((d == d.T).all() and (np.diag(d) == 0).all()
                    and (d + np.eye(r, dtype=int) > 0).all()
                    and (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()
                    and all(metric_distance(kind, a, b, r) == d[a, b] for a, b in spot)):
                failures.append(f"metric axioms r={r} ring={ring}")

    # harmonic pmf chi-square at significance 0.001
    for r in (4, 64, 1024):
        rng = np.random.default_rng(9100 + r)
        sizes = harmonic_table(r).jump(rng.random(100_000))
        counts = np.bincount(sizes, minlength=r)[1:]
        try:
            assert_chi_square(counts, harmonic_pmf(r))
        except AssertionError as exc:
            failures.append(f"harmonic pmf r={r}: {exc}")

    # r=2 ring: all three operators share one run-time law (KS at 0.001)
    inst = ProblemInstance(SpaceParams(16, 2), MetricKind.RING, np.zeros(16))
    samples = {}
    for operator, seed in ((UNIFORM, 21), (PM1, 22), (HARMONIC, 23)):
        cfg = RunConfig(RLS, operator, inst, seed=seed)
        samples[operator] = [rec.hitting_time for rec in run_batch(cfg, 10_000)]
    for other in (PM1, HARMONIC):
        try:
            assert_same_distribution(samples[UNIFORM], samples[other])
        except AssertionError as exc:
            failures.append(f"r=2 operator equivalence {other.value}: {exc}")

    # fitness monotone on every trace
    ring_inst = ProblemInstance(SpaceParams(12, 6), MetricKind.RING, np.arange(12) % 6)
    for algorithm in (RLS, EA):
        for operator in (UNIFORM, PM1, HARMONIC):
            cfg = RunConfig(algorithm, operator, ring_inst, seed=31,
                            trace_potentials=(Potential.fitness(),), iteration_cap=100_000)
            values = [row[1][0] for row in run(cfg).trace]
            if not all(b <= a for a, b in zip(values, values[1:])):
                failures.append(f"monotonicity {algorithm.value}/{operator.value}")

    # CLI byte-exactness for fixed seeds
    argv = ["run", "--n", "10", "--r", "4", "--algo", "rls", "--op", "harmonic",
            "--metric", "ring", "--reps", "20", "--seed", "77"]
    outputs = []
    for fmt in ("csv", "json"):
        for _ in range(2):
            assert cli_main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    if outputs[0] != outputs[1] or outputs[2] != outputs[3]:
        failures.append("CLI output not byte-identical across reruns")
    if "," not in outputs[0] or "." not in outputs[0]:
        failures.append("CSV output lacks the expected separators")

    report(9, not failures, "; ".join(failures) if failures else
           "metric axioms, pmf chi-square, r=2 KS, monotone traces, CLI determinism",
           time.perf_counter() - t0, 120)
