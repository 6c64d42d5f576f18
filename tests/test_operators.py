import math

import numpy as np
import pytest

from helpers import assert_chi_square
from rvonemax import (HarmonicTable, MetricKind, StepOperatorKind, harmonic_number,
                      harmonic_pmf, harmonic_table, metric_distance, step)
from rvonemax.token_process import _step_cdf, token_step_pmf

UNIFORM = StepOperatorKind.UNIFORM
PM1 = StepOperatorKind.PLUS_MINUS_ONE
HARMONIC = StepOperatorKind.HARMONIC
INTERVAL = MetricKind.INTERVAL
RING = MetricKind.RING


def test_harmonic_pmf_examples():
    np.testing.assert_allclose(harmonic_pmf(3), [2 / 3, 1 / 3])
    np.testing.assert_allclose(harmonic_pmf(2), [1.0])
    np.testing.assert_allclose(harmonic_pmf(4), [6 / 11, 3 / 11, 2 / 11])
    with pytest.raises(ValueError):
        harmonic_pmf(1)


@pytest.mark.parametrize("r", [2, 3, 4, 17, 64, 1024])
def test_harmonic_pmf_properties(r):
    pmf = harmonic_pmf(r)
    assert pmf.shape == (r - 1,)
    assert abs(pmf.sum() - 1.0) <= 1e-12
    if r >= 3:
        assert (np.diff(pmf) < 0).all()  # strictly decreasing
    j = np.arange(1, r)
    assert (pmf >= 1.0 / (j * (1.0 + math.log(r)))).all()


def test_harmonic_table_matches_harmonic_number():
    for r in (2, 3, 5, 40, 255, 256, 300, 4097):
        table = HarmonicTable(r)
        F = table.F
        assert table.pmf[0] == pytest.approx(1 / harmonic_number(r - 1), rel=1e-12)
        assert F.shape == (r,) and F[0] == 0.0 and F[-1] == 1.0
        assert (np.diff(F) >= 0).all()
        # the reference rule: the pmf's cumsum with its last entry set to 1.0
        cdf = np.cumsum(harmonic_pmf(r))
        cdf[-1] = 1.0
        assert F[1:].tobytes() == cdf.tobytes()
        assert _step_cdf("harmonic", r).tobytes() == harmonic_table(r + 1).F[1:].tobytes()
        assert _step_cdf("harmonic", r - 1).tobytes() == cdf.tobytes()  # harmonic_pmf(r) is its pmf
        assert harmonic_table(r) is harmonic_table(r)  # cached and shared
        for array in (table.pmf, F, harmonic_table(r).F):  # read-only, so sharing is safe
            with pytest.raises(ValueError):
                array[0] = 0.5
        assert harmonic_pmf(r).flags.writeable and token_step_pmf("harmonic", r).flags.writeable
    for r in (2, 3, 5, 17):
        F = harmonic_table(r).F
        j = np.arange(1, r)
        # jump j is drawn for u in [F[j-1], F[j])
        assert (harmonic_table(r).jump(F[:-1]) == j).all()
        assert (harmonic_table(r).jump(np.nextafter(F[1:], 0)) == j).all()
        assert [int(harmonic_table(r).jump(float(u))) for u in F[:-1]] == j.tolist()


def test_uniform_step_binary_always_flips():
    rng = np.random.default_rng(0)
    for metric in (INTERVAL, RING):
        for _ in range(200):
            assert step(UNIFORM, metric, 1, 2, rng) == 0
            assert step(UNIFORM, metric, 0, 2, rng) == 1


def test_uniform_step_hits_every_other_value():
    rng = np.random.default_rng(1)
    r = 7
    seen = set()
    for _ in range(2000):
        v = step(UNIFORM, INTERVAL, 3, r, rng)
        assert v is not None and 0 <= v < r and v != 3
        seen.add(v)
    assert seen == set(range(r)) - {3}


def test_pm1_interval_boundary_discard_rate():
    rng = np.random.default_rng(42)
    outcomes = [step(PM1, INTERVAL, 0, 5, rng) for _ in range(20000)]
    absent = sum(1 for v in outcomes if v is None) / len(outcomes)
    assert 0.48 <= absent <= 0.52  # 3-sigma binomial band around 1/2
    assert {v for v in outcomes if v is not None} == {1}


def test_pm1_mutation_strength_always_one():
    rng = np.random.default_rng(3)
    for metric in (INTERVAL, RING):
        for _ in range(500):
            r = int(rng.integers(2, 30))
            cur = int(rng.integers(0, r))
            v = step(PM1, metric, cur, r, rng)
            if v is not None:
                assert metric_distance(metric, cur, v, r) == 1
    # explicit wrap-around cases
    assert {step(PM1, RING, 0, 8, np.random.default_rng(s)) for s in range(40)} == {1, 7}


def harmonic_landing_law(current, r, metric):
    """Enumerate (size, direction) outcomes; returns {value: prob}, with None
    collecting the infeasible mass under the interval metric."""
    pmf = harmonic_pmf(r)
    law = {}
    for j, pj in enumerate(pmf, start=1):
        for sign in (+1, -1):
            value = current + sign * j
            if metric is RING:
                value %= r
            elif not (0 <= value < r):
                value = None
            law[value] = law.get(value, 0.0) + pj / 2.0
    return law


def test_harmonic_ring_landing_law_r4():
    # enumeration oracle over the 6 (size, direction) pairs
    law = harmonic_landing_law(0, 4, RING)
    assert law.keys() == {1, 2, 3}
    assert law[1] == pytest.approx(4 / 11)
    assert law[2] == pytest.approx(3 / 11)
    assert law[3] == pytest.approx(4 / 11)
    rng = np.random.default_rng(2024)
    draws = np.array([step(HARMONIC, RING, 0, 4, rng) for _ in range(30000)])
    counts = [np.count_nonzero(draws == v) for v in (1, 2, 3)]
    assert_chi_square(counts, [law[1], law[2], law[3]])


def test_harmonic_interval_landing_law_with_discard():
    law = harmonic_landing_law(1, 5, INTERVAL)
    rng = np.random.default_rng(77)
    draws = [step(HARMONIC, INTERVAL, 1, 5, rng) for _ in range(30000)]
    values = sorted(v for v in law if v is not None)
    counts = [sum(1 for d in draws if d == v) for v in values]
    counts.append(sum(1 for d in draws if d is None))
    assert_chi_square(counts, [law[v] for v in values] + [law[None]])


@pytest.mark.parametrize("r", [2, 5, 16])
def test_uniform_step_chi_square(r):
    rng = np.random.default_rng(9000 + r)
    current = r // 2
    draws = np.array([step(UNIFORM, INTERVAL, current, r, rng) for _ in range(100000)])
    support = [v for v in range(r) if v != current]
    if r == 2:
        assert (draws == support[0]).all()
        return
    counts = [np.count_nonzero(draws == v) for v in support]
    assert_chi_square(counts, [1.0 / (r - 1)] * (r - 1))


@pytest.mark.parametrize("r", [4, 64, 1024])
def test_harmonic_step_size_chi_square(r):
    rng = np.random.default_rng(1234 + r)
    sizes = harmonic_table(r).jump(rng.random(100000))
    counts = np.bincount(sizes, minlength=r)[1:]
    assert_chi_square(counts, harmonic_pmf(r))


def test_returned_values_always_in_range_and_absent_only_under_interval():
    rng = np.random.default_rng(6)
    for kind in (UNIFORM, PM1, HARMONIC):
        for _ in range(400):
            r = int(rng.integers(2, 20))
            cur = int(rng.integers(0, r))
            ring_value = step(kind, RING, cur, r, rng)
            assert ring_value is not None and 0 <= ring_value < r
            interval_value = step(kind, INTERVAL, cur, r, rng)
            assert interval_value is None or 0 <= interval_value < r


def test_binary_degeneration_to_flip():
    rng = np.random.default_rng(8)
    for kind in (UNIFORM, PM1, HARMONIC):
        for cur in (0, 1):
            for _ in range(100):
                assert step(kind, RING, cur, 2, rng) == 1 - cur
    for cur in (0, 1):
        for _ in range(100):
            assert step(UNIFORM, INTERVAL, cur, 2, rng) == 1 - cur


def test_ring_even_r_half_jump_allowed():
    # size r/2 lands on the same value from both directions; no renormalization
    law = harmonic_landing_law(0, 4, RING)
    pmf = harmonic_pmf(4)
    assert law[2] == pytest.approx(pmf[1])


def test_step_rejects_out_of_range_current():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        step(UNIFORM, INTERVAL, 5, 5, rng)
    with pytest.raises(ValueError):
        step(PM1, RING, -1, 5, rng)
