import inspect
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gates import assert_passes
from helpers import (assert_chi_square, assert_same_categorical, assert_same_distribution,
                     reference_hitting_time, reference_replicate_config, reference_state_after,
                     step_outcomes)
import rvonemax
from rvonemax import algorithms, experiments
from rvonemax import (AlgorithmKind, ExperimentPlan, MetricKind, Potential, ProblemInstance,
                      RunConfig, SpaceParams, StartPolicy, StepOperatorKind, TargetPolicy,
                      execute_plan,
                      fitness, hamming_distance, harmonic_table, metric_distance, mutate,
                      one_iteration, potential_value, run, run_batch, subseed)
from rvonemax.algorithms import _TRACE_BLOCK, LANES, _lane_law, _law, _map_runs, _trace
from rvonemax.experiments import hitting_time_summary

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC


def make_instance(n, r, metric=MetricKind.INTERVAL, target=None):
    target = np.zeros(n, dtype=np.int64) if target is None else np.asarray(target)
    return ProblemInstance(SpaceParams(n, r), metric, target)


def test_single_bit_always_fixed_in_one_iteration():
    inst = make_instance(1, 2)
    for seed in range(50):
        cfg = RunConfig(RLS, UNIFORM, inst, seed=seed, initial_point=(1,))
        assert run(cfg).hitting_time == 1


def test_start_at_optimum_hits_immediately():
    inst = make_instance(4, 5)
    for algorithm in (RLS, EA):
        for operator in (UNIFORM, PM1, HARMONIC):
            cfg = RunConfig(algorithm, operator, inst, seed=3, initial_point=(0, 0, 0, 0))
            rec = run(cfg)
            assert rec.hitting_time == 0
            assert rec.final_fitness == 0
            assert rec.evaluations == 1
            assert not rec.capped


def test_identical_seeds_reproduce_records_exactly():
    inst = make_instance(12, 6, MetricKind.RING, target=np.arange(12) % 6)
    cfg = RunConfig(EA, HARMONIC, inst, seed=98765,
                    trace_potentials=(Potential.fitness(), Potential.hamming()))
    assert run(cfg) == run(cfg)


def test_run_batch_contracts():
    inst = make_instance(6, 4)
    cfg = RunConfig(RLS, UNIFORM, inst, seed=55)
    batch = run_batch(cfg, 3)
    assert batch == run_batch(cfg, 3)
    assert batch[0] == run(cfg)  # sub-seed of replicate 0 is the seed itself
    assert subseed(55, 0) == 55
    assert len({subseed(55, k) for k in range(100)}) == 100
    with pytest.raises(ValueError):
        run_batch(cfg, 0)


def test_user_built_points_are_checked_and_copied():
    # a ProblemInstance or RunConfig built by its constructor still rejects
    # an out-of-range point and keeps a read-only copy of a writable one
    params = SpaceParams(3, 5)
    for bad in ([0, 5, 1], [-1, 0, 0], [0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError):
            ProblemInstance(params, MetricKind.INTERVAL, np.array(bad))
        with pytest.raises(ValueError):
            RunConfig(RLS, UNIFORM, make_instance(3, 5), seed=1, initial_point=np.array(bad))
    target, start = np.array([4, 0, 2]), np.array([1, 3, 0], dtype=np.int32)
    inst = ProblemInstance(params, MetricKind.INTERVAL, target)
    cfg = RunConfig(EA, PM1, inst, seed=2, initial_point=start)
    target[0], start[0] = 0, 4
    assert inst.target.tolist() == [4, 0, 2] and cfg.initial_point.tolist() == [1, 3, 0]
    for point in (inst.target, cfg.initial_point):
        assert point.dtype == np.int64 and not point.flags.writeable


def _lockstep_templates():
    """Templates of the batches the lockstep kernel runs, of every operator
    and metric, plain, traced, capped, capped and traced, at the optimum,
    and the EA at n = 1, at two sizes per law, with EA templates beside
    them, whose replicates go to run one at a time."""
    pots = (Potential.fitness(), Potential.exp_weight(1.5))
    templates = []
    for k, (operator, metric) in enumerate(product((UNIFORM, PM1, HARMONIC), MetricKind)):
        for n in (2, 5 + k):
            inst = make_instance(n, 6, metric, target=np.arange(n) % 6)
            seed = 100 * k + 10 * n
            templates += [RunConfig(RLS, operator, inst, seed=seed),
                          RunConfig(RLS, operator, inst, seed=seed + 1, trace_potentials=pots),
                          RunConfig(RLS, operator, inst, seed=seed + 2, iteration_cap=12),
                          RunConfig(RLS, operator, inst, seed=seed + 3, iteration_cap=12,
                                    trace_potentials=pots),
                          RunConfig(EA, operator, inst, seed=seed + 4),
                          RunConfig(EA, operator, inst, seed=seed + 5, trace_potentials=pots)]
    optimum = make_instance(4, 5, target=(1, 2, 3, 4))
    templates += [RunConfig(RLS, PM1, optimum, seed=1, initial_point=optimum.target,
                            trace_potentials=pots),
                  RunConfig(EA, HARMONIC, make_instance(1, 7), seed=2),
                  RunConfig(EA, HARMONIC, make_instance(1, 7), seed=4, trace_potentials=pots),
                  RunConfig(EA, UNIFORM, make_instance(1, 7), seed=3, trace_potentials=pots),
                  RunConfig(EA, UNIFORM, make_instance(1, 7), seed=5, iteration_cap=2)]
    return templates


def test_run_batch_records_are_the_same_in_any_grouping(monkeypatch):
    # a replicate depends only on its own seed: with LANES at n (one
    # replicate per group), 3n and the default, record k of run_batch is
    # run() of replicate k's config built by the constructor, under the
    # default LANES; the run that run_batch hands _map_runs sees each EA
    # replicate once, in order, as such a config, and no lockstep replicate
    reps, lockstep = 5, []
    for template in _lockstep_templates():
        n = template.instance.params.n
        configs = [replace(template, seed=subseed(template.seed, k)) for k in range(reps)]
        in_lockstep = template.algorithm is RLS or n == 1
        alone = [run(config) for config in configs]
        for lanes in (n, 3 * n, LANES):
            seen = []
            monkeypatch.setattr(algorithms, "LANES", lanes)
            monkeypatch.setattr(algorithms, "run",
                                lambda config: seen.append(config) or run(config))
            assert run_batch(template, reps) == alone
            assert len(seen) == (0 if in_lockstep else reps)
            for config, passed in zip(configs, seen):
                assert passed.seed == config.seed and passed.instance is template.instance
                assert passed.trace_potentials == template.trace_potentials
                assert passed.iteration_cap == template.iteration_cap
        lockstep += alone if in_lockstep else []
    assert any(rec.capped for rec in lockstep) and any(rec.trace for rec in lockstep)
    assert any(rec.capped and rec.trace for rec in lockstep)


@pytest.mark.parametrize("metric", list(MetricKind))
def test_cell_records_are_their_replicates_run_alone(monkeypatch, metric):
    # a cell with random targets, planted starts and a cap that some runs
    # reach: each record, final_fitness included, is that of its
    # replicate's config built alone by the oracle and run under the
    # default LANES, with the cell run at the default LANES and split into
    # groups of 1 and 3 replicates
    n, r, reps = 6, 5, 40
    plan = ExperimentPlan(grid=((n, r),), algorithms=(RLS, EA),
                          operators=(UNIFORM, PM1, HARMONIC), metric=metric,
                          target_policy=TargetPolicy.UNIFORM_RANDOM,
                          start_policy=StartPolicy.fixed_hamming(4), replicates=reps,
                          base_seed=17, iteration_cap=45)
    capped = []
    for algorithm, operator in product(plan.algorithms, plan.operators):
        expected = [run(reference_replicate_config(plan, n, r, algorithm, operator, rep))
                    for rep in range(reps)]
        cell = experiments._cell(plan, n, r, algorithm, operator, range(reps))
        for lanes in (n, 3 * n, LANES):
            monkeypatch.setattr(algorithms, "LANES", lanes)
            assert _map_runs(run, *cell) == expected
        capped += [rec.capped for rec in expected]
    assert 0 < sum(capped) < len(capped)


def test_lockstep_cells_build_no_replicate_config(monkeypatch):
    # RunConfig.__post_init__ runs once for a 1,000-replicate RLS cell, for
    # its template, and 1 + R times for an EA cell of R replicates; every
    # config handed to run has a read-only target and start equal to the
    # oracle's
    built, passed = [], []
    post_init = RunConfig.__post_init__
    monkeypatch.setattr(RunConfig, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(experiments, "run", lambda config: passed.append(config) or run(config))
    for algorithm, reps in ((RLS, 1000), (EA, 30)):
        plan = ExperimentPlan(grid=((8, 5),), algorithms=(algorithm,), operators=(UNIFORM,),
                              metric=MetricKind.INTERVAL,
                              target_policy=TargetPolicy.UNIFORM_RANDOM,
                              start_policy=StartPolicy.fixed_hamming(3), replicates=reps,
                              base_seed=3, iteration_cap=200)
        del built[:], passed[:]
        (agg,) = execute_plan(plan)
        assert len(built) == (1 if algorithm is RLS else 1 + reps)
        assert len(passed) == (0 if algorithm is RLS else reps)
        assert algorithm is EA or 0 < agg.capped_count < reps  # replays build no config
        for rep, config in enumerate(passed):
            expected = reference_replicate_config(plan, 8, 5, algorithm, UNIFORM, rep)
            assert config.seed == expected.seed
            for point, want in ((config.instance.target, expected.instance.target),
                                (config.initial_point, expected.initial_point)):
                assert not point.flags.writeable
                np.testing.assert_array_equal(point, want)


def test_run_seed_is_taken_mod_two_to_the_64():
    inst = make_instance(6, 5)
    for algorithm in (RLS, EA):
        low, high = (RunConfig(algorithm, PM1, inst, seed=seed) for seed in (-3, 2**64 - 3))
        assert low.seed == high.seed == 2**64 - 3
        assert run(low) == run(high) == run_batch(low, 1)[0]


def test_lockstep_runs_with_equal_hitting_times_share_a_record():
    records = run_batch(RunConfig(RLS, UNIFORM, make_instance(2, 3), seed=6), 300)
    first = {}
    for record in records:
        assert first.setdefault(record.hitting_time, record) is record
    assert len(first) < len(records)


@pytest.mark.parametrize("size", [1, 7, LANES // 16 + 100])
def test_run_is_its_record_in_run_batch(size):
    # the largest size at n=16 fills more than one group of LANES lanes
    inst = make_instance(16, 6, MetricKind.RING, target=np.arange(16) % 6)
    for cfg in (RunConfig(RLS, HARMONIC, inst, seed=81),
                RunConfig(RLS, PM1, inst, seed=82, iteration_cap=150,
                          trace_potentials=(Potential.fitness(),))):
        batch = run_batch(cfg, size)
        for k in sorted({0, 1, size // 2, size - 1} & set(range(size))):
            assert batch[k] == run(replace(cfg, seed=subseed(cfg.seed, k)))
        if size > 7 and cfg.iteration_cap == 150:
            assert 0 < sum(rec.capped for rec in batch) < size


@pytest.mark.parametrize("size", [1, 7, 300])
def test_run_is_its_record_in_execute_plan(size):
    # every cell's aggregate is that of its replicates' configs run alone
    plan = ExperimentPlan(grid=((16, 6), (3, 4)), algorithms=(RLS, EA),
                          operators=(UNIFORM, HARMONIC), metric=MetricKind.RING,
                          target_policy=TargetPolicy.UNIFORM_RANDOM, replicates=size,
                          base_seed=5, iteration_cap=300)
    aggs = execute_plan(plan)
    assert len(aggs) == 8
    for agg in aggs:
        records = [run(reference_replicate_config(plan, agg.n, agg.r, agg.algorithm,
                                                  agg.operator, rep))
                   for rep in range(size)]
        np.testing.assert_equal((agg.mean, agg.std_error, agg.median, agg.capped_count),
                                hitting_time_summary(records))


def test_lockstep_batch_memory_stays_within_a_few_mib():
    # tracemalloc peak of a plan_short-sized batch (1000 runs at n=20 from
    # Hamming distance 20) and of plan_long's +-1 batch (24 runs at n=50,
    # r=256): the kernel holds O(lanes) arrays and at most LANES lanes at once
    cases = ((RunConfig(RLS, UNIFORM, make_instance(20, 8), seed=3,
                        initial_point=np.full(20, 5)), 1000),
             (RunConfig(RLS, PM1, make_instance(50, 256), seed=4), 24))
    for cfg, reps in cases:
        run_batch(cfg, 2)  # caches and lazy imports outside the measurement
        tracemalloc.start()
        try:
            run_batch(cfg, reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (reps, peak)  # measured 1.54 and 0.64 MiB


def test_traced_batch_is_advanced_once_per_group(monkeypatch):
    # a traced lockstep batch goes straight to _replay: one _advance call,
    # recording, per group of LANES // n replicates
    calls = []
    advance = algorithms._advance
    monkeypatch.setattr(algorithms, "_advance",
                        lambda *args, **kw: calls.append(kw.get("record")) or advance(*args, **kw))
    cfg = RunConfig(RLS, UNIFORM, make_instance(20, 8), seed=5,
                    trace_potentials=(Potential.fitness(),))
    reps = LANES // 20 + 98
    records = run_batch(cfg, reps)
    assert calls == [True, True]
    assert all(rec.trace for rec in records)
    del calls[:]
    run_batch(replace(cfg, trace_potentials=None), reps)
    assert calls == [None, None]


def _stepped_trace(config, x0, changes, last):
    """The trace rows of a plain stepper: apply the changes one at a time and
    score every potential at every iteration."""
    x = np.array(x0)
    when, pos, new = changes
    rows, k = [], 0
    for t in range(last + 1):
        while k < when.size and when[k] <= t:
            x[pos[k]] = new[k]
            k += 1
        rows.append((t, tuple(potential_value(p, config.instance, x)
                              for p in config.trace_potentials)))
    return tuple(rows)


@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_trace_matches_a_plain_stepper(metric):
    # exact rows of every potential: changes across block seams, several
    # changes in one iteration (as the EA makes them), no changes, and rows
    # past the final change
    n, r = 7, 9
    inst = make_instance(n, r, metric, target=np.arange(n) % r)
    config = RunConfig(EA, UNIFORM, inst, seed=0,
                       trace_potentials=("fitness", "hamming", "expweight:1.25"))
    rng = np.random.default_rng(5)
    x0 = rng.integers(0, r, n)

    def changes(m, gaps):
        when = 1 + np.cumsum(rng.choice(gaps, m)) if m else np.zeros(0, dtype=np.int64)
        return when, rng.integers(0, n, m), rng.integers(0, r, m)

    seams = changes(2 * _TRACE_BLOCK + 37, [0, 1, 2, 3])
    crowded = changes(40, [0, 0, 0, 1, 5])
    assert np.diff(seams[0]).min() == 0 and (np.diff(crowded[0]) == 0).sum() > 10
    for case, last in ((seams, int(seams[0][-1])), (seams, 100),
                       (crowded, int(crowded[0][-1]) + 9), (changes(0, [1]), 6)):
        assert (_trace(inst, config.trace_potentials, x0, case, last)
                == _stepped_trace(config, x0, case, last))


def test_traced_run_memory_is_not_moves_by_n():
    # tracemalloc peak of a traced RLS run with about 10^5 moves at n=200:
    # the trace builder scores a block of changes at a time, so the peak is
    # the O(T) rows, not a (moves, n) array of points
    inst = make_instance(200, 256)
    cfg = RunConfig(RLS, PM1, inst, seed=1, trace_potentials=(Potential.fitness(),))
    run(replace(cfg, seed=2, initial_point=np.ones(200)))  # lazy imports outside the measurement
    tracemalloc.start()
    try:
        rec = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.hitting_time > 10**5
    assert peak <= 40 * 2**20, peak  # measured 23 MiB


def test_import_leaves_multiprocessing_unloaded():
    # the library never imports a process pool: its runs are serial; and it
    # loads numpy.random only when it first builds a generator, which keeps
    # it off the import's time: an untraced lockstep batch, which draws from
    # its counter streams, builds none
    src = str(Path(rvonemax.__file__).resolve().parents[1])
    code = ("import sys; import rvonemax as rv; "
            "rv.run_batch(rv.RunConfig(rv.AlgorithmKind.RLS, rv.StepOperatorKind.HARMONIC, "
            "rv.ProblemInstance(rv.SpaceParams(5, 9), rv.MetricKind.RING, (1, 2, 3, 4, 5)), "
            "seed=3), 50); "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
            "'concurrent.futures.process', 'numpy.random'))))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_rls_mean_matches_closed_form_from_fixed_hamming_start():
    assert_passes("rls closed form")


def test_rls_mean_matches_random_start_averaging_oracle():
    assert_passes("rls random start")


@pytest.mark.parametrize("algorithm,operator", [(RLS, UNIFORM), (RLS, PM1), (RLS, HARMONIC),
                                                (EA, UNIFORM), (EA, PM1), (EA, HARMONIC)])
def test_fitness_monotone_along_every_trace(algorithm, operator):
    inst = make_instance(10, 5, MetricKind.RING, target=np.arange(10) % 5)
    cfg = RunConfig(algorithm, operator, inst, seed=606,
                    trace_potentials=(Potential.fitness(),), iteration_cap=50000)
    rec = run(cfg)
    values = [row[1][0] for row in rec.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0
    # one row per iteration, from the initial state to the hitting iteration
    assert [row[0] for row in rec.trace] == list(range(rec.hitting_time + 1))


def test_ea_can_increase_hamming_distance_while_fitness_holds():
    assert_passes("hamming increase")


def test_rls_mutates_exactly_one_position():
    inst = make_instance(9, 7)
    rng = np.random.default_rng(12)
    x = np.array([3] * 9)
    for _ in range(300):
        y, selected = mutate(RLS, UNIFORM, inst, x, rng)
        assert selected == 1
        assert hamming_distance(x, y) <= 1


def full_row_round(algorithm, operator, instance, x, rng):
    """one_iteration's draws, each offspring row scored whole: it replaces
    its row of x iff fitness(y) <= fitness(x). Also returns the number of
    selected cells per row and of discarded (infeasible) steps."""
    m, n = x.shape
    r = instance.params.r
    if algorithm is RLS:
        rows, cols = np.arange(m), rng.integers(0, n, m)
    else:
        rows, cols = np.nonzero(rng.random((m, n)) < 1.0 / n)
    cur = x[rows, cols]
    if operator is UNIFORM:
        v = rng.integers(0, r - 1, cur.size)
        new = v + (v >= cur)
    else:
        jump = 1 if operator is PM1 else harmonic_table(r).sample_block(rng, cur.size)
        new = np.where(rng.integers(0, 2, cur.size) == 0, cur - jump, cur + jump)
        if instance.metric is MetricKind.RING:
            new %= r
    feasible = (new >= 0) & (new < r)
    y = x.copy()
    y[rows, cols] = np.where(feasible, new, cur)
    keep = fitness(instance, y) <= fitness(instance, x)
    return np.where(keep[:, None], y, x), np.bincount(rows, minlength=m), int((~feasible).sum())


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("algorithm", [RLS, EA])
def test_one_iteration_is_the_full_row_rule_byte_for_byte(algorithm, operator, metric):
    # one_iteration scores only the selected cells; a second generator with
    # the same seed replays its draws and scores whole rows
    n, r, rows = 6, 7, 3000
    inst = make_instance(n, r, metric, target=(0, 3, 6, 2, 5, 1))
    x = np.random.default_rng(5).integers(0, r, (rows, n))
    got = one_iteration(algorithm, operator, inst, x, np.random.default_rng(17))
    want, selected, discarded = full_row_round(algorithm, operator, inst, x,
                                               np.random.default_rng(17))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    moved = (got != x).any(axis=1)
    assert moved.any() and not moved.all()
    assert selected.max() == 1 if algorithm is RLS else (selected[moved] >= 2).any()
    assert (discarded > 0) == (metric is MetricKind.INTERVAL and operator is not UNIFORM)
    for bad in (x - (x == 0), x + (x == r - 1), x[:, 1:]):  # a value -1 or r, a short row
        with pytest.raises(ValueError):
            one_iteration(algorithm, operator, inst, bad, np.random.default_rng(17))


def test_ea_selection_count_is_binomial():
    n = 20
    inst = make_instance(n, 4)
    rng = np.random.default_rng(404)
    x = np.array([2] * n)
    counts = np.bincount([mutate(EA, UNIFORM, inst, x, rng)[1] for _ in range(30000)],
                         minlength=n + 1)
    # merge the sparse tail so chi-square expectations stay sane
    tail = 4
    observed = list(counts[:tail]) + [counts[tail:].sum()]
    pmf = [stats.binom.pmf(k, n, 1 / n) for k in range(tail)]
    pmf.append(1.0 - sum(pmf))
    assert_chi_square(observed, pmf)


@pytest.mark.parametrize("algorithm,operator", [(RLS, HARMONIC), (EA, PM1), (EA, UNIFORM)])
def test_engine_distribution_matches_reference_implementation(algorithm, operator):
    # dual route: the tuned block-sampling engine vs a plain loop over mutate()
    inst = make_instance(8, 4)
    cfg = RunConfig(algorithm, operator, inst, seed=8080)
    engine_times = [rec.hitting_time for rec in run_batch(cfg, 1500)]
    ref_rng = np.random.default_rng(991199)
    reference_times = [reference_hitting_time(algorithm, operator, inst, ref_rng)
                       for _ in range(1500)]
    assert_same_distribution(engine_times, reference_times)


def _kernel_vs_reference(algorithm, operator, metric, r, seed, ref_seed):
    # the kernel vs the iteration-by-iteration loop over mutate(), KS at 0.001
    n = 5
    inst = make_instance(n, r, metric, target=np.arange(n) % r)
    cfg = RunConfig(algorithm, operator, inst, seed=seed)
    kernel_times = [rec.hitting_time for rec in run_batch(cfg, 1000)]
    ref_rng = np.random.default_rng(ref_seed)
    reference_times = [reference_hitting_time(algorithm, operator, inst, ref_rng)
                       for _ in range(1000)]
    assert_same_distribution(kernel_times, reference_times)


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
@pytest.mark.parametrize("r", [5, 6])
def test_rls_distribution_matches_reference_implementation(operator, metric, r):
    _kernel_vs_reference(RLS, operator, metric, r, seed=4242, ref_seed=2424)


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
@pytest.mark.parametrize("r", [5, 6])
def test_ea_distribution_matches_reference_implementation(operator, metric, r):
    # the event-driven EA kernel, including its skipped iterations
    _kernel_vs_reference(EA, operator, metric, r, seed=4343, ref_seed=3434)


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
def test_ea_state_law_after_ten_iterations_matches_reference(operator):
    # the law of (fitness, Hamming distance) after 10 iterations from a point
    # with two positions off target: it shows how often offspring that also
    # step at finished positions are accepted, which hitting times barely do
    n, r, c = 10, 3, 10
    inst = make_instance(n, r)
    x0 = [2, 2] + [0] * (n - 2)
    cfg = RunConfig(EA, operator, inst, seed=5151, iteration_cap=c, initial_point=x0,
                    trace_potentials=(Potential.fitness(), Potential.hamming()))
    kernel = Counter(rec.trace[-1][1] for rec in run_batch(cfg, 5000))
    rng = np.random.default_rng(1515)
    reference = Counter()
    for _ in range(5000):
        x = reference_state_after(EA, operator, inst, x0, c, rng)
        reference[(float(fitness(inst, x)), float(hamming_distance(x, inst.target)))] += 1
    assert len(kernel) > 3
    assert_same_categorical(kernel, reference)


def test_kernels_match_exact_transition_law():
    # a one-sample test against truth: the trace rows after 1 and 4
    # iterations of every algorithm x operator x metric at n=3, r=4 against
    # the exact chain of helpers.exact_transition_matrix
    assert_passes("transition oracle")


def test_rls_mean_matches_exact_expected_hitting_time():
    # a one-sample test against truth: the RLS mean of every operator x
    # metric at n=3, r=4 against the exact E[T] of the transition matrix
    assert_passes("rls exact mean")


def test_ea_one_step_matches_exact_transition_law():
    # the same oracle from one start where the kernel's rate of selecting
    # the other positions beside a not-worse step shows clearly
    assert_passes("ea one step")


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_steps_at_a_finished_position_never_stay_on_target(operator, metric):
    # the lemma the EA kernel skips iterations by: every feasible step from the
    # target value z lands at distance >= 1 from z
    for r in (2, 3, 4, 5, 8):
        for z in range(r):
            for prob, value in step_outcomes(operator, metric, z, r):
                assert prob > 0
                if value is not None:
                    assert metric_distance(metric, value, z, r) >= 1, (r, z, value)


def preimage_law(f, width, cells=512):
    """Law of f(s) for s uniform on [0, width), for f piecewise constant with
    pieces longer than width / cells: each change of value between grid
    points is located by bisection to the last representable float."""
    law = {}
    start, value, prev = 0.0, f(0.0), 0.0
    for k in range(1, cells + 1):
        point = width * k / cells
        current = f(point) if k < cells else value
        if current != value:
            lo, hi = prev, point
            while lo < (lo + hi) / 2 < hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) == value else (lo, mid)
            law[value] = law.get(value, 0.0) + (hi - start)
            start, value = hi, current
        prev = point
    law[value] = law.get(value, 0.0) + (width - start)
    return {v: mass / width for v, mass in law.items()}


def pick_at(pick, script, operator, s, w, bound):
    """The move pick() of a one-position law makes when its kept draw is s
    in [0, w): the uniform step's one uniform u has int(u * w) = int(s); a
    jump step draws its position, then u = s / bound, exact as bound is 1
    or 2. script holds pick's uniforms, popped from the end."""
    if operator is UNIFORM:
        u = (int(s) + 0.5) / w
        assert int(u * w) == int(s)
        script[:] = [u]
    else:
        script[:] = [s / bound, 0.0]
    i, new = pick()
    assert i == 0 and not script
    return new


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_rls_closed_forms_match_enumerated_step_outcomes(operator, metric):
    # exact, no sampling: for every (x, z) the law's acceptance probability
    # a, its conditioned move law (what pick draws) and its conditioned miss
    # law (the rejected steps: infeasible, None, or landing farther than d)
    # equal an enumeration of operators.step
    ring = metric is MetricKind.RING
    seen = set()
    for r in (2, 3, 4, 5, 8):
        for z in range(r):
            for x in range(r):
                d = metric_distance(metric, x, z, r)
                accepted, missed = {}, {}
                for prob, value in step_outcomes(operator, metric, x, r):
                    if value is not None and metric_distance(metric, value, z, r) <= d:
                        assert value != x
                        accepted[value] = accepted.get(value, 0.0) + prob
                    else:
                        missed[value] = missed.get(value, 0.0) + prob
                a = sum(accepted.values())
                script = []
                pick, _, miss, w, total, per, bound = _law(operator, r, ring, [x], [z], [d],
                                                           script.pop)
                assert total == w[0]
                assert w[0] / per == pytest.approx(a, rel=1e-12, abs=1e-15), (r, x, z)
                # the thinning bound of the jump steps
                assert bound == (per if operator is UNIFORM else 2 if ring else 1)
                assert w[0] <= bound
                if w[0] < per:
                    law = preimage_law(lambda s: miss(0, s), per - w[0])
                    assert law.keys() == missed.keys(), (r, x, z)
                    for value, prob in missed.items():
                        assert law[value] == pytest.approx(prob / (1 - a), rel=1e-9), (r, x, z)
                else:
                    assert not missed, (r, x, z)
                if a == 0:
                    continue
                law = preimage_law(lambda s: pick_at(pick, script, operator, s, w[0], bound), w[0])
                assert law.keys() == accepted.keys(), (r, x, z)
                for value, prob in accepted.items():
                    assert law[value] == pytest.approx(prob / a, rel=1e-9), (r, x, z, value)
                if ring and 2 * d >= r - 1:
                    seen.add("ring tie, odd r" if r % 2 else "ring tie, even r")
                if not ring and 0 < d and (x > z and 2 * d > x or x < z and 2 * d > r - 1 - x):
                    seen.add("interval truncation")
    assert seen == ({"ring tie, odd r", "ring tie, even r"} if ring else {"interval truncation"})


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_lane_law_matches_enumerated_step_outcomes(operator, metric):
    # exact, no sampling: for every (x, z) the lockstep kernel's weight w
    # (acceptance probability w / per) and its conditioned move law, over
    # the lane's uniform u in [0, 1), equal an enumeration of operators.step
    ring = metric is MetricKind.RING
    seen = set()
    for r in (2, 3, 4, 5, 8):
        per, move = _lane_law(operator, r, ring)
        for z in range(r):
            for x in range(r):
                d = metric_distance(metric, x, z, r)
                accepted = {}
                for prob, value in step_outcomes(operator, metric, x, r):
                    if value is not None and metric_distance(metric, value, z, r) <= d:
                        accepted[value] = accepted.get(value, 0.0) + prob
                a = sum(accepted.values())

                def lane(u):
                    w, new = move(np.array([x]), np.array([z]), np.array([d]), np.array([u]))
                    return float(w[0]), int(new[0])

                w = lane(0.0)[0]
                assert w / per == pytest.approx(a, rel=1e-12, abs=1e-15), (r, x, z)
                if a == 0:
                    continue
                law = preimage_law(lambda u: lane(u)[1], 1.0)
                assert law.keys() == accepted.keys(), (r, x, z)
                for value, prob in accepted.items():
                    assert law[value] == pytest.approx(prob / a, rel=1e-9), (r, x, z, value)
                if ring and 2 * d >= r - 1:
                    seen.add(f"ring tie, w = {w:g}")
    if ring:
        # the +-1 law's w = 2 states, where both neighbours are accepted
        assert "ring tie, w = 2" in seen


@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_law_index_follows_settled_moves(operator, metric):
    # exact, no sampling: along a seeded walk of moves at n=6, in which
    # positions reach their target and leave it again (the EA's re-add
    # path), total, w and the pick index (the uniform step's Fenwick tree,
    # the jump steps' live list and its inverse slot) stay what a law built
    # afresh from the current point holds
    n, r = 6, 5
    ring = metric is MetricKind.RING
    rng = np.random.default_rng(2024)
    z = rng.integers(0, r, n).tolist()
    x = rng.integers(0, r, n).tolist()
    dist = [metric_distance(metric, v, zi, r) for v, zi in zip(x, z)]
    _, settle, _, w, total, _, _ = _law(operator, r, ring, x, z, dist, None)
    index = inspect.getclosurevars(settle).nonlocals
    moves = Counter()
    for _ in range(300):
        i = int(rng.integers(n))
        if dist[i] and rng.random() < 0.5:
            new = z[i]
        else:
            new = (x[i] + int(rng.integers(1, r))) % r
        d = metric_distance(metric, new, z[i], r)
        moves[bool(dist[i]), bool(d)] += 1
        total = settle(i, new, d)
        assert x[i] == new and dist[i] == d
        assert [bool(v) for v in w] == [bool(v) for v in dist]
        assert w == _law(operator, r, ring, list(x), z, list(dist), None)[3]
        if operator is HARMONIC:
            assert total == pytest.approx(sum(w), rel=1e-12)
        else:
            assert total == sum(w)
        if operator is UNIFORM:
            assert index["tree"] == [0] + [sum(w[k - (k & -k):k]) for k in range(1, n + 1)]
        else:
            live, slot = index["live"], index["slot"]
            assert sorted(live) == [j for j in range(n) if w[j] > 0]
            assert all(slot[j] == k for k, j in enumerate(live))
    assert moves[True, False] >= 10 and moves[False, True] >= 10  # removals and re-adds


@pytest.mark.parametrize("algorithm", [RLS, EA])
@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
def test_capped_run_is_prefix_of_uncapped_run(algorithm, operator):
    # cap c: T <= c reproduces the uncapped record; otherwise the run is
    # capped at c with c + 1 evaluations and the first c + 1 trace rows
    inst = make_instance(6, 5, MetricKind.RING, target=np.arange(6) % 5)
    for seed in (1, 2, 3):
        def capped(cap):
            return run(RunConfig(algorithm, operator, inst, seed=seed, iteration_cap=cap,
                                 trace_potentials=(Potential.fitness(),)))
        full = capped(10**10)
        T = full.hitting_time
        for cap in sorted({1, T // 2, T - 1, T, T + 1, 2 * T}):
            if cap < 1:
                continue
            rec = capped(cap)
            if T <= cap:
                assert rec == full
            else:
                assert rec.capped and rec.hitting_time is None
                assert rec.evaluations == cap + 1
                assert rec.final_fitness > 0
                assert rec.trace == full.trace[:cap + 1]
                assert rec.final_fitness == rec.trace[-1][1][0]


def test_binary_ring_operators_share_run_time_law():
    inst = make_instance(16, 2, MetricKind.RING)
    samples = {}
    for operator, seed in ((UNIFORM, 1), (PM1, 2), (HARMONIC, 3)):
        cfg = RunConfig(RLS, operator, inst, seed=seed)
        samples[operator] = [rec.hitting_time for rec in run_batch(cfg, 3000)]
    assert_same_distribution(samples[UNIFORM], samples[PM1])
    assert_same_distribution(samples[UNIFORM], samples[HARMONIC])


def test_iteration_cap_marks_record_capped():
    inst = make_instance(30, 16)
    cfg = RunConfig(RLS, PM1, inst, seed=5, iteration_cap=3)
    rec = run(cfg)
    assert rec.capped
    assert rec.hitting_time is None
    assert rec.final_fitness > 0
    assert rec.evaluations == 4  # initial sample plus three offspring evaluations


def test_evaluation_accounting_uncapped():
    inst = make_instance(5, 3)
    cfg = RunConfig(RLS, UNIFORM, inst, seed=77)
    rec = run(cfg)
    assert rec.evaluations == rec.hitting_time + 1


def test_trace_potentials_accept_string_identifiers():
    inst = make_instance(4, 3)
    cfg = RunConfig(RLS, UNIFORM, inst, seed=8, trace_potentials=("fitness", "hamming"))
    assert cfg.trace_potentials == (Potential.fitness(), Potential.hamming())
    rec = run(cfg)
    assert rec.trace[0][0] == 0
    assert len(rec.trace[0][1]) == 2


def test_single_position_ea_degenerates_to_rls():
    inst = make_instance(1, 2)
    for seed in range(30):
        cfg = RunConfig(EA, UNIFORM, inst, seed=seed, initial_point=(1,))
        assert run(cfg).hitting_time == 1  # mutation probability 1/n is 1


def test_invalid_configs_rejected():
    inst = make_instance(4, 4)
    with pytest.raises(ValueError):
        RunConfig(RLS, UNIFORM, inst, seed=1, initial_point=(1, 2, 3))
    with pytest.raises(ValueError):
        RunConfig(RLS, UNIFORM, inst, seed=1, initial_point=(0, 0, 0, 4))
    with pytest.raises(ValueError):
        RunConfig(RLS, UNIFORM, inst, seed=1, iteration_cap=0)
