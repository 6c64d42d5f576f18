import numpy as np
import pytest

from rvonemax import (MetricKind, ProblemInstance, SpaceParams, as_point, fitness,
                      hamming_distance, metric_distance, sample_uniform_point)


def make_instance(n, r, metric, target):
    return ProblemInstance(SpaceParams(n, r), metric, np.asarray(target))


def test_metric_distance_examples():
    assert metric_distance(MetricKind.INTERVAL, 2, 5, 8) == 3
    assert metric_distance(MetricKind.RING, 0, 7, 8) == 1  # min{7, 15, 1}
    assert metric_distance(MetricKind.RING, 3, 3, 5) == 0


def test_metric_distance_rejects_out_of_range():
    with pytest.raises(ValueError):
        metric_distance(MetricKind.INTERVAL, -1, 0, 4)
    with pytest.raises(ValueError):
        metric_distance(MetricKind.RING, 0, 4, 4)


@pytest.mark.parametrize("kind", [MetricKind.INTERVAL, MetricKind.RING])
def test_metric_axioms_exhaustive_up_to_r64(kind):
    for r in range(2, 65):
        values = np.arange(r)
        d = np.abs(values[:, None] - values[None, :])
        if kind is MetricKind.RING:
            d = np.minimum(d, r - d)
        table = np.array([[metric_distance(kind, a, b, r) for b in range(r)] for a in range(r)])
        assert (table == d).all()
        assert (table == table.T).all()
        assert (np.diag(table) == 0).all()
        off = table + np.eye(r, dtype=int)
        assert (off > 0).all()  # zero only on the diagonal
        # triangle inequality: d(a,b) <= d(a,c) + d(c,b) for all c
        via = table[:, :, None] + table[None, :, :]  # via[a, c, b]
        assert (table[:, None, :] <= via).all()
        if kind is MetricKind.RING:
            assert table.max() == r // 2


def test_fitness_examples():
    inst = make_instance(3, 5, MetricKind.INTERVAL, (0, 0, 0))
    assert fitness(inst, (4, 1, 0)) == 5
    inst_ring = make_instance(3, 5, MetricKind.RING, (0, 0, 0))
    assert fitness(inst_ring, (4, 1, 0)) == 2
    assert fitness(inst, inst.target) == 0


def test_fitness_shape_mismatch():
    inst = make_instance(3, 5, MetricKind.INTERVAL, (0, 0, 0))
    with pytest.raises(ValueError):
        fitness(inst, (1, 2))
    with pytest.raises(ValueError):
        fitness(inst, (1, 2, 9))


def test_fitness_bounds_random_points():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(2, 40))
        target = rng.integers(0, r, n)
        x = rng.integers(0, r, n)
        f_int = fitness(make_instance(n, r, MetricKind.INTERVAL, target), x)
        f_ring = fitness(make_instance(n, r, MetricKind.RING, target), x)
        assert 0 <= f_int <= n * (r - 1)
        assert 0 <= f_ring <= n * (r // 2)
        assert f_ring <= f_int


def test_hamming_examples():
    assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert hamming_distance((4, 1, 0), (0, 0, 0)) == 2
    assert hamming_distance((1, 2, 3), (3, 2, 1)) == 2
    with pytest.raises(ValueError):
        hamming_distance((1, 2), (1, 2, 3))


def test_binary_case_metrics_coincide_and_fitness_is_hamming():
    for n in range(1, 5):
        for xi in range(2 ** n):
            for zi in range(2 ** n):
                x = [(xi >> j) & 1 for j in range(n)]
                z = [(zi >> j) & 1 for j in range(n)]
                f_int = fitness(make_instance(n, 2, MetricKind.INTERVAL, z), x)
                f_ring = fitness(make_instance(n, 2, MetricKind.RING, z), x)
                assert f_int == f_ring == hamming_distance(x, z)


def test_ring_fitness_rotation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(2, 17))
        z = rng.integers(0, r, n)
        x = rng.integers(0, r, n)
        base = fitness(make_instance(n, r, MetricKind.RING, z), x)
        for c in range(r):
            rotated = fitness(make_instance(n, r, MetricKind.RING, (z + c) % r), (x + c) % r)
            assert rotated == base


def test_space_params_invariants():
    with pytest.raises(ValueError):
        SpaceParams(5, 1)
    with pytest.raises(ValueError):
        SpaceParams(0, 4)
    SpaceParams(1, 2)  # minimal valid corner
    # set-up draws are floor(u * r) of a double u, uniform only for r < 2**53
    with pytest.raises(ValueError, match="r must be < 2"):
        SpaceParams(1, 2**53)
    SpaceParams(1, 2**53 - 1)


def test_as_point_validation_and_immutability():
    params = SpaceParams(3, 4)
    p = as_point([0, 3, 2], params)
    assert p.dtype == np.int64
    with pytest.raises(ValueError):
        p[0] = 1  # read-only
    with pytest.raises(ValueError):
        as_point([0, 4, 0], params)
    with pytest.raises(ValueError):
        as_point([0, 1], params)


def test_as_point_errors():
    # each bad input raises its own message; a valid point comes back as a
    # read-only int64 copy
    params = SpaceParams(3, 4)
    shape = r"point must have shape \(3,\)"
    entries = r"point entries must lie in \[0, 3\]"
    for values, message in (([0, 4, 0], entries), ([-1, 0, 0], entries), ([3, 3, 9], entries),
                            ([0, 1], shape), ([0, 1, 2, 3], shape), ([], shape), (2, shape),
                            ([[0, 1, 2]], shape), ([[0, 1, 2], [0, 1, 2]], shape),
                            (np.zeros((3, 1), dtype=np.int64), shape)):
        with pytest.raises(ValueError, match=message):
            as_point(values, params)
    source = np.array([3, 0, 2], dtype=np.int32)
    p = as_point(source, params)
    assert p.dtype == np.int64 and not p.flags.writeable and (p == source).all()
    source[0] = 1
    assert p[0] == 3  # a copy, not a view


def test_sample_uniform_point_binary_frequency():
    rng = np.random.default_rng(101)
    params = SpaceParams(1, 2)
    draws = np.array([sample_uniform_point(params, rng)[0] for _ in range(10000)])
    share_zero = (draws == 0).mean()
    assert 0.47 <= share_zero <= 0.53  # 3-sigma band around 1/2


def test_sample_uniform_point_range():
    rng = np.random.default_rng(7)
    params = SpaceParams(2, 4)
    for _ in range(500):
        x = sample_uniform_point(params, rng)
        assert x.shape == (2,)
        assert (x >= 0).all() and (x <= 3).all()


def test_huge_alphabet_stays_exact():
    r = 2**31
    assert metric_distance(MetricKind.INTERVAL, 0, r - 1, r) == r - 1
    assert metric_distance(MetricKind.RING, 0, r - 1, r) == 1
    assert metric_distance(MetricKind.RING, 0, r // 2, r) == r // 2
    inst = make_instance(4, r, MetricKind.INTERVAL, (0, 0, 0, 0))
    assert fitness(inst, [r - 1] * 4) == 4 * (r - 1)  # no int32 overflow


def test_target_must_conform():
    with pytest.raises(ValueError):
        make_instance(3, 4, MetricKind.INTERVAL, (0, 0, 4))
    inst = make_instance(3, 4, MetricKind.INTERVAL, (0, 1, 2))
    assert fitness(inst, inst.target) == 0
    assert inst.max_fitness == 7  # 3 + 2 + 2: the interior targets 1 and 2 cap below r-1
    assert make_instance(3, 4, MetricKind.RING, (0, 1, 2)).max_fitness == 6


@pytest.mark.parametrize("kind", [MetricKind.INTERVAL, MetricKind.RING])
def test_max_fitness_is_the_largest_fitness_of_any_point(kind):
    # every target and every point, n <= 3, r <= 6
    for n in (1, 2, 3):
        for r in range(2, 7):
            points = np.indices((r,) * n).reshape(n, -1).T
            for target in points:
                inst = make_instance(n, r, kind, target)
                assert inst.max_fitness == fitness(inst, points).max(), (n, r, target)
