import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

from gates import assert_passes
from helpers import assert_chi_square, reference_replicate_config
from rvonemax import (AggregateResult, AlgorithmKind, DegenerateModelError, ExperimentPlan,
                      MetricKind, ProblemInstance, RunConfig, SpaceParams, StartKind,
                      StartPolicy, StepOperatorKind, TargetPolicy, build_start, build_target,
                      execute_plan, fit_scaling, fitness, hamming_distance,
                      plant_rows_at_hamming, run_batch, sample_uniform_point, stable_seed,
                      subseed)
from rvonemax.algorithms import _advance, _replicate
from rvonemax.experiments import _cell, _replicate_config, column_summary, hitting_time_summary

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE


def single_cell_plan(n, r, algorithm, operator, start, replicates, seed,
                     metric=MetricKind.INTERVAL, target=TargetPolicy.ALL_ZERO, cap=10**10):
    return ExperimentPlan(grid=((n, r),), algorithms=(algorithm,), operators=(operator,),
                          metric=metric, target_policy=target, start_policy=start,
                          replicates=replicates, base_seed=seed, iteration_cap=cap)


def cell_configs(plan, n, r, algorithm, operator, reps):
    """The configs of replicates reps of a cell, each built by _replicate
    from the cell's columns, as _map_runs hands them to run."""
    cell = _cell(plan, n, r, algorithm, operator, reps)
    return [_replicate(k, *cell) for k in range(len(reps))]


def test_execute_plan_matches_closed_form_mean():
    assert_passes("plan closed form")


def test_execute_plan_is_deterministic():
    plan = single_cell_plan(8, 4, EA, PM1, StartPolicy.uniform_random(), 12, seed=77)
    first = execute_plan(plan)
    assert first == execute_plan(plan)


@pytest.mark.parametrize("operator", list(StepOperatorKind))
def test_plan_cell_is_a_run_batch(operator):
    # a cell with a fixed target and a uniform start is run_batch of a
    # template seeded with the cell's seed; 300 RLS replicates at n=12 fill
    # more than one lockstep group
    for algorithm in (RLS, EA):
        for n, r in ((12, 6), (1, 5)):
            plan = single_cell_plan(n, r, algorithm, operator, StartPolicy.uniform_random(),
                                    300, seed=41, cap=400)
            agg, = execute_plan(plan)
            cell = f"{n}|{r}|{algorithm.value}|{operator.value}|{plan.metric.value}"
            template = RunConfig(algorithm, operator,
                                 ProblemInstance(SpaceParams(n, r), plan.metric, np.zeros(n)),
                                 seed=stable_seed(41, cell), iteration_cap=400)
            records = run_batch(template, plan.replicates)
            np.testing.assert_equal((agg.mean, agg.std_error, agg.median, agg.capped_count),
                                    hitting_time_summary(records))


def test_execute_plan_cell_ordering():
    plan = ExperimentPlan(grid=((4, 3), (5, 4)), algorithms=(RLS, EA),
                          operators=(UNIFORM, PM1), metric=MetricKind.RING,
                          replicates=2, base_seed=5)
    cells = [(a.n, a.r, a.algorithm, a.operator) for a in execute_plan(plan)]
    assert cells == [(n, r, alg, op) for (n, r) in ((4, 3), (5, 4))
                     for alg in (RLS, EA) for op in (UNIFORM, PM1)]


def test_single_replicate_convention():
    plan = single_cell_plan(6, 3, RLS, UNIFORM, StartPolicy.uniform_random(), 1, seed=9)
    agg, = execute_plan(plan)
    assert agg.std_error == 0.0
    assert agg.mean == agg.median


def test_capped_runs_flagged_and_excluded():
    plan = single_cell_plan(40, 16, RLS, PM1, StartPolicy.all_max_distance(), 5,
                            seed=3, cap=10)
    agg, = execute_plan(plan)
    assert agg.capped_count == 5
    assert agg.censored
    assert math.isnan(agg.mean)


def test_target_policies():
    params = SpaceParams(6, 9)
    rng = np.random.default_rng(0)
    assert (build_target(TargetPolicy.ALL_ZERO, params, rng) == 0).all()
    assert (build_target(TargetPolicy.CENTER, params, rng) == 4).all()
    a = build_target(TargetPolicy.UNIFORM_RANDOM, params, np.random.default_rng(5))
    b = build_target(TargetPolicy.UNIFORM_RANDOM, params, np.random.default_rng(5))
    assert (a == b).all()
    assert ((a >= 0) & (a < 9)).all()


def test_start_policies():
    rng = np.random.default_rng(1)
    inst = ProblemInstance(SpaceParams(5, 7), MetricKind.INTERVAL, (0, 3, 6, 2, 5))
    assert build_start(StartPolicy.uniform_random(), inst, rng) is None
    fixed = build_start(StartPolicy.fixed_hamming(3), inst, rng)
    assert hamming_distance(fixed, inst.target) == 3
    far = build_start(StartPolicy.all_max_distance(), inst, rng)
    assert fitness(inst, far) == sum(max(z, 6 - z) for z in (0, 3, 6, 2, 5))
    ring = ProblemInstance(SpaceParams(5, 8), MetricKind.RING, (0, 3, 6, 2, 5))
    far_ring = build_start(StartPolicy.all_max_distance(), ring, rng)
    assert fitness(ring, far_ring) == ring.max_fitness


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(grid=(), algorithms=(RLS,), operators=(UNIFORM,),
                       metric=MetricKind.INTERVAL)
    with pytest.raises(ValueError):
        ExperimentPlan(grid=((5, 3),), algorithms=(RLS,), operators=(UNIFORM,),
                       metric=MetricKind.INTERVAL, replicates=0)
    with pytest.raises(ValueError):
        ExperimentPlan(grid=((5, 3),), algorithms=(RLS,), operators=(UNIFORM,),
                       metric=MetricKind.INTERVAL,
                       start_policy=StartPolicy.fixed_hamming(6))
    for grid in (((5, 1),), ((0, 3),), ((5, 3), (4, 1))):  # every cell must be a valid space
        with pytest.raises(ValueError):
            ExperimentPlan(grid=grid, algorithms=(RLS,), operators=(UNIFORM,),
                           metric=MetricKind.INTERVAL)
    with pytest.raises(ValueError):
        ExperimentPlan(grid=((5, 3),), algorithms=(RLS,), operators=(UNIFORM,),
                       metric=MetricKind.INTERVAL, iteration_cap=0)
    with pytest.raises(ValueError):
        StartPolicy.fixed_hamming(-1)
    with pytest.raises(ValueError):
        StartPolicy(kind=StartPolicy.uniform_random().kind, hamming_k=3)


def test_replicate_setup_generator_only_where_drawn_from(monkeypatch):
    # a set-up stream is built only for a random target or a planted start,
    # once per _cell call, seeded from the cell key plus
    # "|setup"; replicate k runs with subseed(cell seed, k) and draws row k
    # of that stream
    real = np.random.default_rng
    built = []

    def counting(seed):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    n, r, replicates = 6, 5, 5
    cell = f"{n}|{r}|{EA.value}|{PM1.value}|{MetricKind.RING.value}"
    seed, setup_seed = stable_seed(11, cell), stable_seed(11, cell + "|setup")
    for target in TargetPolicy:
        for start in (StartPolicy.uniform_random(), StartPolicy.fixed_hamming(4),
                      StartPolicy.all_max_distance()):
            plan = single_cell_plan(n, r, EA, PM1, start, replicates, seed=11,
                                    metric=MetricKind.RING, target=target)
            draws = target is TargetPolicy.UNIFORM_RANDOM or start.kind is StartKind.FIXED_HAMMING
            del built[:]
            configs = cell_configs(plan, n, r, EA, PM1, range(replicates))
            assert built == ([setup_seed] if draws else [])
            del built[:]
            alone = _replicate_config(plan, n, r, EA, PM1, 3)
            assert built == ([setup_seed] if draws else [])
            assert alone.seed == configs[3].seed
            assert (alone.instance.target == configs[3].instance.target).all()
            assert (alone.initial_point is None) is (configs[3].initial_point is None)
            if alone.initial_point is not None:
                assert (alone.initial_point == configs[3].initial_point).all()
            setup_rng = real(setup_seed)
            for rep, cfg in enumerate(configs):
                assert cfg.seed == subseed(seed, rep)
                expected_target = build_target(target, SpaceParams(n, r), setup_rng)
                assert (cfg.instance.target == expected_target).all()
                expected_start = build_start(start, cfg.instance, setup_rng)
                if expected_start is None:
                    assert cfg.initial_point is None
                else:
                    assert (cfg.initial_point == expected_start).all()


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("target", list(TargetPolicy))
def test_replicate_configs_match_scalar_reference(target, metric):
    # every config of a cell equals the one its replicate builds alone, by
    # the scalar oracle: r = 2 (one wrong value per position), k = 0 and
    # k = n, and replicate ranges that start past 0
    starts = (StartPolicy.uniform_random(), StartPolicy.fixed_hamming(0),
              StartPolicy.fixed_hamming(3), StartPolicy.fixed_hamming(7),
              StartPolicy.all_max_distance())
    for (n, r), start, reps in itertools.product(((7, 2), (7, 5), (7, 256)), starts,
                                                 (range(0, 6), range(4, 9), range(13, 14))):
        plan = single_cell_plan(n, r, RLS, PM1, start, 20, seed=31, metric=metric,
                                target=target, cap=999)
        cell = cell_configs(plan, n, r, RLS, PM1, reps)
        assert len(cell) == len(reps)
        for rep, cfg in zip(reps, cell):
            expected = reference_replicate_config(plan, n, r, RLS, PM1, rep)
            assert (cfg.algorithm, cfg.operator, cfg.seed, cfg.iteration_cap) == \
                (expected.algorithm, expected.operator, expected.seed, expected.iteration_cap)
            assert cfg.instance.params == expected.instance.params
            assert cfg.instance.metric is expected.instance.metric
            np.testing.assert_array_equal(cfg.instance.target, expected.instance.target)
            if expected.initial_point is None:
                assert cfg.initial_point is None
            else:
                assert cfg.initial_point.dtype == np.int64
                np.testing.assert_array_equal(cfg.initial_point, expected.initial_point)
            assert cfg.trace_potentials is None


def test_fixed_targets_share_one_instance_per_cell():
    # a zero or center target is the template's read-only instance, shared
    # by the whole cell; random targets and the starts are read-only blocks
    for target in (TargetPolicy.ALL_ZERO, TargetPolicy.CENTER):
        plan = ExperimentPlan(grid=((12, 6), (5, 9)), algorithms=(RLS, EA),
                              operators=(UNIFORM, PM1), metric=MetricKind.INTERVAL,
                              target_policy=target, start_policy=StartPolicy.fixed_hamming(4),
                              replicates=9, base_seed=23)
        for n, r in plan.grid:
            config, seeds, targets, starts = _cell(plan, n, r, EA, PM1, range(9))
            assert targets is None and len(seeds) == 9
            assert not config.instance.target.flags.writeable
            with pytest.raises(ValueError):
                config.instance.target[0] = 1
            assert starts.shape == (9, n) and not starts.flags.writeable
            assert len({row.tobytes() for row in starts}) > 1
            configs = cell_configs(plan, n, r, EA, PM1, range(9))
            assert all(cfg.instance is configs[0].instance for cfg in configs)
    plan = single_cell_plan(5, 4, RLS, UNIFORM, StartPolicy.all_max_distance(), 4, seed=2,
                            target=TargetPolicy.UNIFORM_RANDOM)
    _, _, targets, starts = _cell(plan, 5, 4, RLS, UNIFORM, range(4))
    assert targets.shape == starts.shape == (4, 5)
    assert len({row.tobytes() for row in targets}) == 4
    assert not targets.flags.writeable and not starts.flags.writeable


# r = 7 is not a power of two, so floor(u * m) maps to no bit pattern
SET_UP_N, SET_UP_R, SET_UP_K, SET_UP_ROWS = 5, 7, 2, 14_000


def _planted(source):
    """(targets, starts) of SET_UP_ROWS planted starts at Hamming level
    SET_UP_K: a cell's random targets and starts, or rows planted on the
    target (3, ..., 3), whose wrong values skip an interior value."""
    n, r, k, rows = SET_UP_N, SET_UP_R, SET_UP_K, SET_UP_ROWS
    if source == "cell":
        plan = single_cell_plan(n, r, RLS, UNIFORM, StartPolicy.fixed_hamming(k), rows, seed=19,
                                target=TargetPolicy.UNIFORM_RANDOM)
        _, _, targets, starts = _cell(plan, n, r, RLS, UNIFORM, range(rows))
        return targets, starts
    inst = ProblemInstance(SpaceParams(n, r), MetricKind.INTERVAL, np.full(n, 3))
    starts = plant_rows_at_hamming(inst, k, rows, np.random.default_rng(19))
    return np.broadcast_to(inst.target, starts.shape), starts


@pytest.mark.parametrize("source", ["cell", "rows"])
def test_planted_positions_are_a_uniform_k_subset(source):
    # chi-square at 0.001 over the C(5, 2) = 10 position pairs
    targets, starts = _planted(source)
    wrong = starts != targets
    assert (wrong.sum(axis=1) == SET_UP_K).all()
    subsets = list(itertools.combinations(range(SET_UP_N), SET_UP_K))
    seen = collections.Counter(map(tuple, np.nonzero(wrong)[1].reshape(-1, SET_UP_K).tolist()))
    assert set(seen) <= set(subsets)
    assert_chi_square([seen[s] for s in subsets], np.full(len(subsets), 1 / len(subsets)))


@pytest.mark.parametrize("source", ["cell", "rows"])
def test_planted_values_are_uniform_over_the_wrong_values(source):
    # chi-square at 0.001 over the (target value, planted value) pairs with
    # the two apart: uniform over the r-1 wrong values of each target value,
    # and for random targets over all r (r-1) pairs
    r = SET_UP_R
    targets, starts = _planted(source)
    wrong = starts != targets
    pairs = targets[wrong] * r + starts[wrong]
    counts = np.bincount(pairs, minlength=r * r).reshape(r, r)
    assert (np.diagonal(counts) == 0).all()
    held = np.unique(targets)  # the rows' target is 3 only
    observed = counts[held][np.arange(r)[None, :] != held[:, None]]
    assert observed.sum() == SET_UP_ROWS * SET_UP_K
    assert_chi_square(observed, np.full(observed.size, 1 / observed.size))


def test_random_targets_and_uniform_starts_are_uniform():
    # chi-square at 0.001 over the r values: a cell's random targets, and
    # the uniform starts its lockstep runs draw from their counter streams
    # (algorithms._advance) and that sample_uniform_point draws
    n, r, rows = SET_UP_N, SET_UP_R, SET_UP_ROWS
    plan = single_cell_plan(n, r, RLS, UNIFORM, StartPolicy.uniform_random(), rows, seed=23,
                            target=TargetPolicy.UNIFORM_RANDOM)
    config, seeds, targets, starts = _cell(plan, n, r, RLS, UNIFORM, range(rows))
    assert starts is None
    rng = np.random.default_rng(29)
    for values in (targets, _advance(config, seeds, targets)[2],
                   np.array([sample_uniform_point(SpaceParams(n, r), rng) for _ in range(rows)])):
        assert values.dtype == np.int64 and values.shape == (rows, n)
        assert_chi_square(np.bincount(values.ravel(), minlength=r), np.full(r, 1 / r))


class _Record:
    def __init__(self, hitting_time):
        self.hitting_time = hitting_time
        self.capped = hitting_time is None


def test_hitting_time_summary_conventions():
    mean, std_error, median, capped = hitting_time_summary(
        [_Record(3), _Record(5), _Record(None)])
    assert (mean, median, capped) == (4.0, 4.0, 1)
    assert std_error == np.std([3.0, 5.0], ddof=1) / math.sqrt(2)
    assert hitting_time_summary([_Record(7)]) == (7.0, 0.0, 7.0, 0)
    mean, std_error, median, capped = hitting_time_summary([_Record(None), _Record(None)])
    assert math.isnan(mean) and math.isnan(median)
    assert (std_error, capped) == (0.0, 2)
    # the column summary that hitting_time_summary wraps keeps them too
    assert column_summary(np.array([3, 9, 5]), np.array([False, True, False])) == \
        hitting_time_summary([_Record(3), _Record(5), _Record(None)])
    assert column_summary(np.array([7]), np.array([False])) == (7.0, 0.0, 7.0, 0)
    mean, std_error, median, capped = column_summary(np.array([4, 0]), np.array([True, True]))
    assert math.isnan(mean) and math.isnan(median)
    assert (std_error, capped) == (0.0, 2)


@pytest.mark.parametrize("k", [1, 2, 24, 1000, 15000])
def test_column_summary_median_is_numpys(k):
    # the median of the k uncapped runs, also with ties (hitting times are
    # integers) and with capped runs, large ones, mixed in
    rng = np.random.default_rng(k)
    times = np.concatenate((rng.integers(0, 3 * k, size=k),
                            rng.integers(10**9, 10**10, size=k // 3 + 1)))
    capped = np.arange(times.size) >= k
    order = rng.permutation(times.size)
    times, capped = times[order], capped[order]
    _, _, median, count = column_summary(times, capped)
    assert count == k // 3 + 1
    assert median == float(np.median(times[~capped].astype(np.float64)))


@pytest.mark.parametrize("seed", [0, 41, 2**63 + 1, 2**64 - 3])
def test_replicate_seeds_are_subseeds_in_one_array(seed):
    # subseed of a uint64 index array, as run_batch and _cell build their
    # seed columns, is subseed(seed, k) for each k, also for a range of
    # replicates that starts above 0
    for reps in (range(0, 300), range(17, 1017)):
        seeds = subseed(seed, np.arange(reps.start, reps.stop, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [subseed(seed, k) for k in reps]
    plan = single_cell_plan(3, 4, RLS, UNIFORM, StartPolicy.uniform_random(), 10, seed=seed)
    cell_seed = stable_seed(seed, f"3|4|{RLS.value}|{UNIFORM.value}|{plan.metric.value}")
    _, seeds, _, _ = _cell(plan, 3, 4, RLS, UNIFORM, range(5, 40))
    assert seeds.tolist() == [subseed(cell_seed, k) for k in range(5, 40)]


def test_stable_seed_is_stable_and_spread():
    assert stable_seed(42, "a|b|c") == stable_seed(42, "a|b|c")
    assert stable_seed(42, "a|b|c") != stable_seed(43, "a|b|c")
    seeds = {stable_seed(1, f"cell{i}") for i in range(1000)}
    assert len(seeds) == 1000


@pytest.mark.parametrize("base", [0, 1, 42, 2**63, 2**64 - 1, -1, -42, 2**64, 2**64 + 42, 2**80 + 7])
def test_stable_seed_is_the_keyed_blake2b_of_the_masked_base(base):
    key = (base & (2**64 - 1)).to_bytes(8, "little")
    for name in ("", "a|b|c", "20|8|rls|uniform|ring|7|setup", "ü"):
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8, key=key).digest()
        assert stable_seed(base, name) == int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_coefficients_exactly():
    points = [(n, r, 3.5 * n * r + 0.75 * n * math.log(n))
              for n in (10, 20, 40) for r in (4, 8)]
    fit = fit_scaling(points, "pm1_r_plus_logn")
    assert fit.coefficients[0] == pytest.approx(3.5)
    assert fit.coefficients[1] == pytest.approx(0.75)
    assert fit.r_squared == pytest.approx(1.0)
    assert max(abs(res) for res in fit.residuals) < 1e-8
    assert fit.predict(10, 4) == pytest.approx(3.5 * 40 + 0.75 * 10 * math.log(10))


def test_fit_quadratic_log_model():
    points = [(1, r, 2.0 * math.log(r) ** 2 - math.log(r) + 5) for r in (4, 16, 64, 256, 1024)]
    fit = fit_scaling(points, "quadratic_log_r")
    assert fit.coefficients == pytest.approx((2.0, -1.0, 5.0))


def test_fit_validation_errors():
    good = [(10, 4, 100.0), (10, 8, 200.0), (20, 4, 300.0), (20, 8, 400.0)]
    with pytest.raises(ValueError):
        fit_scaling(good, "no_such_model")
    with pytest.raises(ValueError):
        fit_scaling(good[:3], "uniform_rnlogn")  # fewer than 4 cells
    with pytest.raises(ValueError):
        fit_scaling([(10, 4, float("nan"))] + good[1:], "uniform_rnlogn")


def test_fit_degenerate_design_names_terms():
    # a single (n, r) repeated makes n*r and n*log(n) collinear
    points = [(50, 8, 100.0 + k) for k in range(5)]
    with pytest.raises(DegenerateModelError) as err:
        fit_scaling(points, "pm1_r_plus_logn")
    assert "n*r" in str(err.value)
    assert "n*log(n)" in str(err.value)


def test_fit_accepts_aggregate_results():
    aggs = [AggregateResult(n=n, r=r, algorithm=RLS, operator=UNIFORM,
                            metric=MetricKind.INTERVAL, mean=float(2 * n * r),
                            std_error=0.0, median=float(2 * n * r), replicates=3,
                            capped_count=0)
            for n in (5, 10) for r in (3, 6, 9)]
    fit = fit_scaling(aggs, "linear_r")
    assert fit.r_squared > 0.5  # linear-in-r synthetic data, loose sanity


def test_ea_uniform_fit_recovers_leading_constant():
    assert_passes("uniform fit")


def test_ea_pm1_fit_dominant_term_doubles_with_r():
    assert_passes("pm1 fit")


def test_small_r_operator_ordering_report():
    # In the small-r regime the unit step tends to beat the harmonic step, but
    # the crossover point involves unknown constants, so this is recorded as a
    # report only; nothing about the ordering is asserted.
    plan = ExperimentPlan(grid=((2000, 3),), algorithms=(EA,),
                          operators=(StepOperatorKind.PLUS_MINUS_ONE,
                                     StepOperatorKind.HARMONIC),
                          metric=MetricKind.INTERVAL, target_policy=TargetPolicy.ALL_ZERO,
                          start_policy=StartPolicy.uniform_random(),
                          replicates=100, base_seed=7, iteration_cap=10_000_000)
    aggs = execute_plan(plan)
    for agg in aggs:
        print(f"small-r report: n={agg.n} r={agg.r} {agg.operator.value}: "
              f"mean={agg.mean:.0f} +- {agg.std_error:.0f}", flush=True)
        assert agg.capped_count == 0
        assert agg.mean > 0
