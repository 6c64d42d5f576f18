import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gates import assert_passes
from helpers import (CountingGenerator, assert_chi_square, assert_same_categorical,
                     reference_one_iteration, reference_plant_state_at_fitness,
                     reference_plant_state_at_hamming, reference_realize_distances)
from rvonemax import (AlgorithmKind, MetricKind, Potential, ProblemInstance, RunConfig,
                      SpaceParams, StepOperatorKind, estimate_drift, fitness, hamming_distance,
                      harmonic_number, one_iteration, plant_rows_at_fitness,
                      plant_rows_at_hamming, plant_state_at_fitness, plant_state_at_hamming,
                      potential_value, realize_distance_rows)
from rvonemax.drift import BLOCK_ROWS

RLS = AlgorithmKind.RLS
EA = AlgorithmKind.ONE_PLUS_ONE_EA
UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC


def make_instance(n, r, metric=MetricKind.INTERVAL, target=None):
    target = np.zeros(n, dtype=np.int64) if target is None else np.asarray(target)
    return ProblemInstance(SpaceParams(n, r), metric, target)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def test_exp_weight_potential_direct_evaluation():
    inst = make_instance(2, 4)
    pot = Potential.exp_weight(2.0)
    assert potential_value(pot, inst, (2, 1)) == pytest.approx((4 - 1) + (2 - 1))


def test_potentials_zero_exactly_at_target():
    inst = make_instance(3, 5, MetricKind.RING, target=(1, 2, 3))
    for pot in (Potential.hamming(), Potential.fitness(), Potential.exp_weight(1.5)):
        assert potential_value(pot, inst, (1, 2, 3)) == 0.0
        assert potential_value(pot, inst, (1, 2, 4)) > 0.0


def test_fitness_potential_equals_fitness_function():
    rng = np.random.default_rng(99)
    pot = Potential.fitness()
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(2, 12))
        metric = MetricKind.RING if rng.integers(2) else MetricKind.INTERVAL
        inst = make_instance(n, r, metric, target=rng.integers(0, r, n))
        x = rng.integers(0, r, n)
        assert potential_value(pot, inst, x) == float(fitness(inst, x))


@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_row_potential_equals_point_value_on_every_row(metric):
    rng = np.random.default_rng(77)
    for n in (1, 7, 20, 130):
        inst = make_instance(n, 9, metric, target=rng.integers(0, 9, n))
        rows = rng.integers(0, 9, (200, n))
        rows[0] = inst.target
        for pot in (Potential.hamming(), Potential.fitness(), Potential.exp_weight(1.25),
                    Potential.exp_weight(2.0)):
            values = potential_value(pot, inst, rows)
            assert values.dtype == np.float64 and values.shape == (200,)
            assert values.tolist() == [potential_value(pot, inst, x) for x in rows]


def test_exp_weight_base_range_enforced():
    Potential.exp_weight(2.0)  # upper edge allowed
    with pytest.raises(ValueError):
        Potential.exp_weight(1.0)
    with pytest.raises(ValueError):
        Potential.exp_weight(2.5)
    with pytest.raises(ValueError):
        Potential("fitness", 1.5)


def test_potential_parse_round_trip():
    assert Potential.parse("hamming") == Potential.hamming()
    assert Potential.parse("expweight:1.5") == Potential.exp_weight(1.5)
    assert Potential.parse("expweight").base == Potential.exp_weight().base
    with pytest.raises(ValueError):
        Potential.parse("energy")


# ---------------------------------------------------------------------------
# Planted states
# ---------------------------------------------------------------------------

def test_plant_state_at_hamming_exact_level():
    inst = make_instance(12, 5, target=np.arange(12) % 5)
    rng = np.random.default_rng(4)
    for k in (0, 1, 6, 12):
        for _ in range(20):
            x = plant_state_at_hamming(inst, k, rng)
            assert hamming_distance(x, inst.target) == k


def test_plant_state_at_hamming_values_uniform():
    # chi-square at 0.001 over (position, wrong value): positions are a uniform
    # k-subset and each corrupted position takes one of its r-1 wrong values
    n, r, k, plants = 6, 5, 3, 20000
    inst = make_instance(n, r, target=np.arange(n) % r)
    rng = np.random.default_rng(7)
    counts = np.zeros((n, r), dtype=np.int64)
    for _ in range(plants):
        x = plant_state_at_hamming(inst, k, rng)
        wrong = np.flatnonzero(x != inst.target)
        counts[wrong, x[wrong]] += 1
    observed = counts[np.arange(r)[None, :] != inst.target[:, None]]
    assert observed.sum() == plants * k
    assert_chi_square(observed, np.full(n * (r - 1), 1.0 / (n * (r - 1))))


def test_plant_state_at_fitness_exact_level():
    rng = np.random.default_rng(41)
    target = (0, 5, 2, 3, 1, 4, 0, 2)
    r = 6
    # reachable maxima depend on the target: interval caps at max(z, r-1-z) per
    # component, the ring at r//2
    reachable = {MetricKind.INTERVAL: sum(max(z, r - 1 - z) for z in target),
                 MetricKind.RING: len(target) * (r // 2)}
    for metric in (MetricKind.INTERVAL, MetricKind.RING):
        inst = make_instance(8, r, metric, target=target)
        for s in (0, 1, 7, 15, reachable[metric]):
            for _ in range(10):
                assert fitness(inst, plant_state_at_fitness(inst, s, rng)) == s
        with pytest.raises(ValueError):
            plant_state_at_fitness(inst, reachable[metric] + 1, rng)


def test_realize_distances_exact_and_infeasible():
    inst = make_instance(4, 7, MetricKind.RING, target=(0, 3, 6, 1))
    rng = np.random.default_rng(13)
    x = realize_distance_rows(inst, (3, 0, 2, 1), 1, rng)[0]
    assert fitness(inst, x) == 6
    with pytest.raises(ValueError):
        realize_distance_rows(inst, (4, 0, 0, 0), 1, rng)[0]  # ring caps distance at r//2


@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_row_planters_hit_the_level_on_every_row(metric):
    # an interior interval target, so the reachable fitness undercuts n (r-1)
    n, r, rows = 8, 6, 500
    target = (0, 5, 2, 3, 1, 4, 0, 2)
    inst = make_instance(n, r, metric, target=target)
    rng = np.random.default_rng(42)
    for k in (0, 1, 5, n):
        x = plant_rows_at_hamming(inst, k, rows, rng)
        assert x.shape == (rows, n) and (x >= 0).all() and (x < r).all()
        assert (np.count_nonzero(x != inst.target, axis=1) == k).all()
    reachable = (sum(max(z, r - 1 - z) for z in target) if metric is MetricKind.INTERVAL
                 else n * (r // 2))
    for s in (0, 1, 7, 15, reachable):
        assert (fitness(inst, plant_rows_at_fitness(inst, s, rows, rng)) == s).all()
    # on the ring, 2d = r leaves one value at distance d
    for distances in ((3, 0, 1, 2, 0, 3, 1, 3), (1, 1, 0, 0, 2, 2, 3, 0)):
        x = realize_distance_rows(inst, distances, rows, rng)
        d = np.abs(x - inst.target)
        if metric is MetricKind.RING:
            d = np.minimum(d, r - d)
        assert (d == distances).all()
    with pytest.raises(ValueError):
        plant_rows_at_hamming(inst, n + 1, rows, rng)
    with pytest.raises(ValueError):
        plant_rows_at_fitness(inst, reachable + 1, rows, rng)
    with pytest.raises(ValueError):
        realize_distance_rows(inst, (0, 0, 0, 0, 0, 0, 0, r // 2 + 4), rows, rng)
    with pytest.raises(ValueError):
        realize_distance_rows(inst, (1,) * (n - 1), rows, rng)


@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_fitness_planting_hits_the_level_over_several_rounds(metric):
    # a round places at most n units per row, so every level above n takes
    # several rounds (one `random` draw each)
    n, r, rows = 5, 64, 300
    inst = make_instance(n, r, metric, target=(0, 10, 31, 50, 63))
    calls = []
    rng = CountingGenerator(np.random.default_rng(77), calls)
    for s in (0, 1, inst.max_fitness // 2, inst.max_fitness - 1, inst.max_fitness):
        calls.clear()
        x = plant_rows_at_fitness(inst, s, rows, rng)
        assert x.shape == (rows, n) and (fitness(inst, x) == s).all()
        assert calls.count("random") >= math.ceil(s / n)


def test_fitness_planting_rounds_draw_at_most_a_block_of_uniforms():
    # one `random` call per round, then _realize's sides; level 0 draws no round
    n, r = 20, 8
    inst = make_instance(n, r, target=np.arange(n) % r)
    for s in (0, 1, n, 40, 100, inst.max_fitness):
        calls = []
        rng = CountingGenerator(np.random.default_rng(11), calls)
        x = plant_rows_at_fitness(inst, s, 2 * BLOCK_ROWS + 1, rng)
        assert (fitness(inst, x) == s).all()
        assert calls[-1] == "integers" and set(calls[:-1]) <= {"random"}
        assert max(rng.sizes[:-1], default=0) <= BLOCK_ROWS * n
        assert (len(calls) == 1) == (s == 0)


def test_fitness_planting_memory_stays_within_a_few_blocks():
    # a far level at n=50, r=256 takes 100 rounds of n labels per block of rows;
    # no round's labels may outgrow one (BLOCK_ROWS, n) block, whatever s or r
    n, r, s = 50, 256, 5000
    inst = make_instance(n, r)
    block = BLOCK_ROWS * n * np.dtype(np.int64).itemsize
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        x = plant_rows_at_fitness(inst, s, BLOCK_ROWS, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (fitness(inst, x) == s).all()
    assert peak < 6 * block, f"peak {peak / 2**20:.2f} MiB, one block {block / 2**20:.2f} MiB"


def test_fitness_planting_matches_exact_sequential_law():
    assert_passes("fitness planting law")


def _counts(points):
    return Counter(tuple(int(v) for v in x) for x in points)


@pytest.mark.parametrize("metric", [MetricKind.INTERVAL, MetricKind.RING])
def test_row_planting_law_matches_scalar_oracles(metric):
    # chi-square homogeneity at 0.001 of the planted points: the row planters
    # against the one-unit-at-a-time oracle loops
    n, r, plants = 3, 6, 20000
    inst = make_instance(n, r, metric, target=(0, 2, 5))
    rng = np.random.default_rng(2121)
    ref_rng = np.random.default_rng(1212)
    for s in (2, 5):
        rows = plant_rows_at_fitness(inst, s, plants, rng)
        oracle = [reference_plant_state_at_fitness(inst, s, ref_rng) for _ in range(plants)]
        assert len(_counts(rows)) > 5
        assert_same_categorical(_counts(rows), _counts(oracle))
    distances = (3, 1, 2)
    rows = realize_distance_rows(inst, distances, plants, rng)
    oracle = [reference_realize_distances(inst, distances, ref_rng) for _ in range(plants)]
    assert len(_counts(rows)) > 1
    assert_same_categorical(_counts(rows), _counts(oracle))
    rows = plant_rows_at_hamming(inst, 2, plants, rng)
    oracle = [reference_plant_state_at_hamming(inst, 2, ref_rng) for _ in range(plants)]
    assert_same_categorical(_counts(rows), _counts(oracle))


# the two levels per potential: Hamming levels, fitness levels, distance vectors
DROP_LEVELS = {"hamming": (2, 5), "fitness": (3, 10),
               "exp_weight": ((2, 0, 1, 3, 0, 1), (3, 3, 2, 1, 3, 2))}


@pytest.mark.parametrize("potential", [Potential.hamming(), Potential.fitness(),
                                       Potential.exp_weight(1.5)], ids=lambda p: p.kind)
@pytest.mark.parametrize("operator", [UNIFORM, PM1, HARMONIC])
@pytest.mark.parametrize("algorithm", [RLS, EA])
def test_one_step_drop_law_matches_reference_round(algorithm, operator, potential):
    # chi-square homogeneity at 0.001 of the one-step drop: planted rows and
    # the row round against the scalar planters and reference_one_iteration,
    # on the interval (interior target, discarded steps) and on the ring
    n, r, samples = 6, 7, 3000
    for metric, level in zip((MetricKind.INTERVAL, MetricKind.RING), DROP_LEVELS[potential.kind]):
        inst = make_instance(n, r, metric, target=(0, 3, 6, 2, 5, 1))
        rng = np.random.default_rng(3131)
        ref_rng = np.random.default_rng(1313)
        if potential.kind == "hamming":
            x = plant_rows_at_hamming(inst, level, samples, rng)
            starts = [reference_plant_state_at_hamming(inst, level, ref_rng)
                      for _ in range(samples)]
        elif potential.kind == "fitness":
            x = plant_rows_at_fitness(inst, level, samples, rng)
            starts = [reference_plant_state_at_fitness(inst, level, ref_rng)
                      for _ in range(samples)]
        else:
            x = realize_distance_rows(inst, level, samples, rng)
            starts = [reference_realize_distances(inst, level, ref_rng) for _ in range(samples)]
        drops = (potential_value(potential, inst, x)
                 - potential_value(potential, inst, one_iteration(algorithm, operator, inst,
                                                                   x, rng)))
        reference = [potential_value(potential, inst, y)
                     - potential_value(potential, inst, reference_one_iteration(
                         algorithm, operator, inst, y, ref_rng)) for y in starts]
        row_counts = Counter(round(float(d), 9) for d in drops)
        assert len(row_counts) >= 2
        assert_same_categorical(row_counts, Counter(round(d, 9) for d in reference))


# ---------------------------------------------------------------------------
# Drift estimation
# ---------------------------------------------------------------------------

def test_rls_uniform_hamming_drift_matches_exact_law():
    assert_passes("drift exact law")


def test_rls_uniform_hamming_drift_grid():
    assert_passes("drift grid")


@pytest.mark.parametrize("samples", [100, 1024, 1025])
def test_estimate_drift_reproduces_across_calls(samples):
    # one block, exactly one full block, and a full block plus one row
    inst = make_instance(7, 5, MetricKind.RING, target=(0, 1, 2, 3, 4, 0, 1))
    for potential, levels in ((Potential.hamming(), [1, 7]), (Potential.fitness(), [3, 14]),
                              (Potential.exp_weight(), [(2, 0, 1, 2, 0, 1, 1)])):
        cfg = RunConfig(EA, HARMONIC, inst, seed=9)
        first = estimate_drift(cfg, potential, levels, samples)
        assert first == estimate_drift(cfg, potential, levels, samples)
        assert [est.samples for est in first] == [samples] * len(levels)


def test_drift_at_optimum_is_zero():
    inst = make_instance(6, 3)
    cfg = RunConfig(RLS, UNIFORM, inst, seed=1)
    est = estimate_drift(cfg, Potential.fitness(), [0], 500)[0]
    assert est.level == 0.0
    assert est.mean_drop == 0.0
    assert est.confidence_halfwidth == 0.0


def test_ea_fitness_drift_beats_multiplicative_floor():
    assert_passes("drift floor")


def test_exp_weight_drift_under_unit_steps_meets_bound():
    # accepted unit moves give drift at least (1/2n)(1 - 1/base) * level
    n, r, base = 12, 8, 1.25
    inst = make_instance(n, r)
    distances = (3, 0, 1, 7, 2, 0, 5, 1, 4, 2, 6, 0)
    pot = Potential.exp_weight(base)
    cfg = RunConfig(RLS, PM1, inst, seed=0)
    est = estimate_drift(cfg, pot, [distances], 10000)[0]
    expected_level = sum(base ** d - 1 for d in distances)
    assert est.level == pytest.approx(expected_level)
    bound = (1 / (2 * n)) * (1 - 1 / base) * expected_level
    assert est.mean_drop >= bound - est.confidence_halfwidth


def test_estimate_drift_input_validation():
    inst = make_instance(4, 4)
    cfg = RunConfig(RLS, UNIFORM, inst, seed=1)
    with pytest.raises(ValueError):
        estimate_drift(cfg, Potential.hamming(), [1], 99)
    with pytest.raises(ValueError):
        estimate_drift(cfg, Potential.exp_weight(1.5), [3], 500)  # needs a vector
    with pytest.raises(ValueError):
        estimate_drift(cfg, Potential.hamming(), [], 500)


def test_drift_estimate_field_invariants():
    from rvonemax import DriftEstimate
    with pytest.raises(ValueError):
        DriftEstimate(level=1.0, mean_drop=0.1, confidence_halfwidth=0.0, samples=0)
    with pytest.raises(ValueError):
        DriftEstimate(level=1.0, mean_drop=0.1, confidence_halfwidth=-0.1, samples=10)


def test_harmonic_number_values_and_bounds():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(20) == pytest.approx(3.597740, abs=5e-7)
    for k in (2, 10, 1000, 10**5):
        h = harmonic_number(k)
        assert math.log(k) <= h <= math.log(k) + 1
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_harmonic_number_difference_decreases_to_euler_mascheroni():
    # independent oracle: cumulative sums over 1/i
    k_max = 10**5
    partial = np.cumsum(1.0 / np.arange(1, k_max + 1))
    diff = partial - np.log(np.arange(1, k_max + 1))
    assert (np.diff(diff) < 0).all()
    assert diff[-1] == pytest.approx(0.5772, abs=1e-4)
    assert harmonic_number(k_max) == pytest.approx(partial[-1], rel=1e-12)
