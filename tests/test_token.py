import numpy as np
import pytest

from helpers import assert_same_distribution, reference_token_hitting_time
from rvonemax import (CapacityError, DivergenceError, TokenConfig, fit_scaling, subseed,
                      token_expected_hitting_time_exact, token_hitting_times_by_state,
                      token_process, token_run, token_run_batch, token_step_pmf)


def linear_solve_oracle(r, distribution):
    """Independent oracle: build the full transition matrix and solve
    (I - Q) t = 1 over the transient states 1..r."""
    pmf = token_step_pmf(distribution, r)
    P = np.zeros((r + 1, r + 1))
    P[0, 0] = 1.0
    for x in range(1, r + 1):
        for d in range(1, r + 1):
            if d <= x:
                P[x, x - d] += pmf[d - 1]
            else:
                P[x, x] += pmf[d - 1]
    Q = P[1:, 1:]
    t = np.linalg.solve(np.eye(r) - Q, np.ones(r))
    return np.concatenate(([0.0], t))


def test_exact_solver_examples():
    assert token_expected_hitting_time_exact(1, "unit") == pytest.approx(0.5)
    assert token_expected_hitting_time_exact(2, "unit") == pytest.approx(1.0)  # (0+1+2)/3


def test_exact_solver_matches_linear_solve_oracle():
    for r in (3, 7, 20, 63):
        for dist in ("unit", "uniform", "harmonic"):
            fast = token_hitting_times_by_state(r, dist)
            slow = linear_solve_oracle(r, dist)
            np.testing.assert_allclose(fast, slow, rtol=1e-10)


def test_uniform_distribution_has_closed_form_expectation():
    # with uniform step sizes every nonzero start has expectation exactly r
    for r in (5, 31, 255):
        by_state = token_hitting_times_by_state(r, "uniform")
        np.testing.assert_allclose(by_state[1:], r, rtol=1e-12)
        assert token_expected_hitting_time_exact(r, "uniform") == pytest.approx(r * r / (r + 1))


def test_exact_solver_divergence_and_capacity():
    r = 5
    concentrated = np.zeros(r)
    concentrated[-1] = 1.0  # only jumps of size r: states 1..r-1 never absorb
    with pytest.raises(DivergenceError):
        token_expected_hitting_time_exact(r, concentrated)
    with pytest.raises(CapacityError):
        token_expected_hitting_time_exact(5000, "unit")


def test_step_pmf_validation():
    with pytest.raises(ValueError):
        token_step_pmf("zipf", 4)
    with pytest.raises(ValueError):
        token_step_pmf([0.5, 0.6], 2)  # does not sum to 1
    with pytest.raises(ValueError):
        token_step_pmf([1.5, -0.5], 2)
    with pytest.raises(ValueError):
        token_step_pmf([1.0], 2)  # wrong length
    np.testing.assert_allclose(token_step_pmf("harmonic", 4),
                               np.array([1, 1 / 2, 1 / 3, 1 / 4]) / (25 / 12))


def test_token_run_deterministic_and_start_at_zero():
    cfg = TokenConfig(r=12, distribution="harmonic", seed=77)
    assert token_run(cfg) == token_run(cfg)
    # find a seed whose uniform start lands on 0: hitting time must be 0
    for seed in range(200):
        rec = token_run(TokenConfig(r=12, distribution="unit", seed=seed))
        if rec.hitting_time == 0:
            assert rec.final_position == 0
            break
    else:
        pytest.fail("no seed with a zero start among 200 candidates")


def test_token_run_unit_r1_mean():
    records = token_run_batch(TokenConfig(r=1, distribution="unit", seed=5), 20000)
    times = [rec.hitting_time for rec in records]
    assert np.mean(times) == pytest.approx(0.5, abs=0.011)  # 3 sigma of Bernoulli/2


def test_token_run_cap_marks_record():
    concentrated = np.zeros(8)
    concentrated[-1] = 1.0
    records = token_run_batch(TokenConfig(r=8, distribution=concentrated, seed=11,
                                          iteration_cap=50), 50)
    stuck = [rec for rec in records if rec.capped]
    assert stuck, "some runs must start in a state that can never absorb"
    for rec in stuck:
        assert rec.hitting_time is None
        assert 0 < rec.final_position < 8


@pytest.mark.parametrize("r, distribution", [
    (63, "unit"), (63, "uniform"), (63, "harmonic"),
    (8, [0.5, 0, 0, 0.25, 0, 0, 0, 0.25]),  # sizes 2, 3, 5, 6, 7 never drawn
])
def test_token_batch_matches_round_by_round_reference(r, distribution):
    records = token_run_batch(TokenConfig(r=r, distribution=distribution, seed=21), 20000)
    assert not any(rec.capped for rec in records)
    rng = np.random.default_rng(22)
    reference = [reference_token_hitting_time(r, distribution, rng) for _ in range(3000)]
    assert_same_distribution([rec.hitting_time for rec in records], reference)


def test_token_run_is_first_record_of_batch_of_one():
    for dist in ("unit", "uniform", "harmonic"):
        cfg = TokenConfig(r=40, distribution=dist, seed=5)
        assert token_run(cfg) == token_run_batch(cfg, 1)[0]


@pytest.mark.parametrize("distribution, stuck_at", [
    ([1e-18, 0, 1 - 1e-18], (1, 2)),  # only the 1e-18 step moves from 1 and 2
    ([1e-30, 1 - 1e-30, 0], (1,)),    # 3 reaches 1 after one round, then waits ~1e30
])
def test_token_tiny_acceptance_probability_caps_cleanly(distribution, stuck_at):
    # a wait of order 1/q saturates geometric() at 2**63 - 1 and must not
    # overflow the round counter of a run that has already moved
    records = token_run_batch(TokenConfig(r=3, distribution=distribution, seed=4,
                                          iteration_cap=10**6), 20)
    assert any(rec.capped for rec in records)
    for rec in records:
        if rec.capped:
            assert rec.hitting_time is None and rec.final_position in stuck_at
        else:
            assert rec.hitting_time in (0, 1) and rec.final_position == 0


def test_token_unit_law_cap_boundary():
    # under the unit law T equals the start, so cap c leaves starts above c
    # capped at start - c
    r, cap = 20, 7
    records = token_run_batch(TokenConfig(r=r, distribution="unit", seed=8,
                                          iteration_cap=cap), 500)
    assert any(rec.capped for rec in records) and not all(rec.capped for rec in records)
    for rec in records:
        if rec.capped:
            assert 1 <= rec.final_position <= r - cap
        else:
            assert 0 <= rec.hitting_time <= cap
    assert {rec.hitting_time for rec in records if not rec.capped} == set(range(cap + 1))
    # a cap beyond the int64 round counter acts as no cap
    huge = TokenConfig(r=r, distribution="unit", seed=8, iteration_cap=10**30)
    assert not any(rec.capped for rec in token_run_batch(huge, 50))


def one_size_reference(r, d0, seed, replicates, cap):
    """(hitting time, capped, final position) of each replicate by the
    round-by-round rule under the law that always draws d0, from the batch's
    starts."""
    starts = np.random.default_rng(subseed(seed, 0)).integers(0, r + 1, replicates)
    out = []
    for x in starts.tolist():
        t = 0
        # a round moves the token by d0 when d0 <= x; once x < d0 no round moves it
        while x >= d0 and t < cap:
            t += 1
            x -= d0
        out.append((t, False, 0) if x == 0 else (None, True, x))
    return out


@pytest.mark.parametrize("r, d0", [(1, 1), (20, 1), (20, 2), (20, 20), (255, 2)])
def test_one_size_law_matches_round_by_round_rule(r, d0):
    seed, replicates = 31, 400
    laws = [np.eye(r)[d0 - 1]] + (["unit"] if d0 == 1 else [])
    top = r // d0  # the largest x // d0 a start can give
    for distribution in laws:
        for cap in sorted({max(1, top - 1), top, top + 1, 10**30}):
            config = TokenConfig(r=r, distribution=distribution, seed=seed, iteration_cap=cap)
            records = token_run_batch(config, replicates)
            got = [(rec.hitting_time, rec.capped, rec.final_position) for rec in records]
            assert got == one_size_reference(r, d0, seed, replicates, cap), (distribution, cap)


class CountingGenerator:
    """A Generator whose method calls are recorded by name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return call


@pytest.mark.parametrize("distribution, one_size", [
    ("unit", True), ([0, 0, 1, 0, 0, 0, 0, 0], True),
    ("uniform", False), ([0.5, 0, 0, 0.25, 0, 0, 0, 0.25], False),
])
def test_one_size_batch_draws_only_its_starts(monkeypatch, distribution, one_size):
    calls = []
    default_rng = token_process.np.random.default_rng
    monkeypatch.setattr(token_process.np.random, "default_rng",
                        lambda seed: CountingGenerator(default_rng(seed), calls))
    token_run_batch(TokenConfig(r=8, distribution=distribution, seed=3), 200)
    if one_size:
        assert calls == ["integers"]
    else:
        assert calls[0] == "integers" and "geometric" in calls


def test_monte_carlo_matches_exact_smoke():
    r = 15
    for dist, seed in (("unit", 1), ("uniform", 2), ("harmonic", 3)):
        exact = token_expected_hitting_time_exact(r, dist)
        times = np.array([rec.hitting_time
                          for rec in token_run_batch(TokenConfig(r=r, distribution=dist,
                                                                 seed=seed), 20000)])
        se = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - exact) <= 3 * se, (dist, times.mean(), exact, se)


def test_harmonic_scaling_quadratic_in_log_smoke():
    rs = [2**k - 1 for k in range(4, 9)]
    points = [(1, r, token_expected_hitting_time_exact(r, "harmonic")) for r in rs]
    fit = fit_scaling(points, "quadratic_log_r")
    assert fit.r_squared >= 0.999


def test_config_validation():
    with pytest.raises(ValueError):
        TokenConfig(r=0)
    with pytest.raises(ValueError):
        TokenConfig(r=4, distribution=[0.5, 0.5])  # wrong length for r=4
    with pytest.raises(ValueError):
        TokenConfig(r=4, iteration_cap=0)
    with pytest.raises(ValueError):
        token_run_batch(TokenConfig(r=4), 0)
