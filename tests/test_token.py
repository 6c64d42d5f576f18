import hashlib
from argparse import Namespace

import numpy as np
import pytest

from helpers import CountingGenerator, assert_same_distribution, reference_token_hitting_time
from rvonemax import (CapacityError, DivergenceError, TokenBatch, TokenConfig, TokenRunRecord,
                      fit_scaling, subseed, token_expected_hitting_time_exact,
                      token_hitting_times_by_state, token_process, token_run, token_run_batch,
                      token_step_pmf)
from rvonemax.cli import _cmd_token, main
from rvonemax.experiments import column_summary, hitting_time_summary
from rvonemax.token_process import _inverse, _step_cdf


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


def assert_inverse_is_searchsorted(cdf, v):
    np.testing.assert_array_equal(_inverse(cdf)(v), np.searchsorted(cdf, v, side="right"))


def lookup_keys(cdf, rng):
    """Uniform keys in [0, 1) and the edge cases: 0, every cdf entry below
    1 and the doubles on either side of it, and the double below 1."""
    below = cdf[cdf < 1.0]
    edges = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], below, np.nextafter(below, 0.0),
                            np.nextafter(below, 1.0)))
    return np.concatenate((rng.random(20000), edges[(edges >= 0.0) & (edges < 1.0)]))


@pytest.mark.parametrize("r", [1, 2, 3, 255, 4096])
@pytest.mark.parametrize("distribution", ["unit", "uniform", "harmonic"])
def test_guide_lookup_is_searchsorted_on_the_named_laws(distribution, r):
    cdf = _step_cdf(distribution, r)
    v = lookup_keys(cdf, np.random.default_rng(r))
    assert_inverse_is_searchsorted(cdf, v)
    # the walk's keys u * q for every position x, q = P[d <= x], up to just below q
    q = np.minimum(cdf, 1.0)
    assert_inverse_is_searchsorted(cdf, np.concatenate((np.nextafter(q, 0.0), 0.5 * q)))


def test_guide_lookup_is_searchsorted_on_plateaus_and_point_masses():
    rng = np.random.default_rng(8)
    pmfs = []
    for r in (2, 5, 17, 64, 300, 1000):
        for zeros in (0.5, 0.9, 0.99):
            p = rng.random(r) * (rng.random(r) > zeros)  # runs of zero mass: cdf plateaus
            p[rng.integers(r)] += 1e-3
            pmfs.append(p / p.sum())
    pmfs += [np.eye(9)[4] * (1 - 1e-12) + 1e-12 / 9,  # a near point mass
             np.array([1e-300, 0.0, 0.0, 1.0]),
             np.array([0.5, 0.5 + 5e-10, 0.0])]  # sums past 1: the guard sets cdf[-1] below cdf[-2]
    for p in pmfs:
        cdf = _step_cdf(p, p.size)
        assert_inverse_is_searchsorted(cdf, lookup_keys(cdf, rng))


GOLDEN = {  # stdout sha256 of the calls below, recorded when the walk used np.searchsorted
    "unit": "a98a659c5f26a045674fb68118ad5230965fc495f73cce3456b6f2ca3abc46f1",
    "uniform": "06d0c8c5b96339b5f5c8a70d95eb19b2017343a1161a2565269db9607a58c746",
    "harmonic": "0cfb08fbded876fdead4d88fc4bd164b00b6547687733b20b6ddf740b69ec750",
    "explicit": "a88d825dae57e317d1b1ef7c069955efb04397ba0ce61a84cb206c5f3ba265c0",
}
GOLDEN_CAPS = {"unit": 100, "uniform": 200, "harmonic": 30, "explicit": 3}


@pytest.mark.parametrize("law", sorted(GOLDEN))
def test_token_stdout_is_the_recorded_one(capsys, law):
    # two seeds, uncapped and with a cap some runs reach; the explicit law
    # (sizes 2, 3, 5, 6, 7 never drawn) goes through the token command's
    # handler, since the CLI takes only the named laws
    for seed in (3, 11):
        for cap in (None, GOLDEN_CAPS[law]):
            if law == "explicit":
                config = TokenConfig(r=8, distribution=[0.5, 0, 0, 0.25, 0, 0, 0, 0.25],
                                     seed=seed, iteration_cap=cap or 10**10)
                assert _cmd_token(Namespace(config=config, reps=3000, format="csv",
                                            out=None)) == 0
            else:
                argv = ["token", "--r", "255", "--dist", law, "--reps", "3000",
                        "--seed", str(seed)] + ([] if cap is None else ["--cap", str(cap)])
                assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "hit the iteration cap" in err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[law]


def as_records(rows):
    return [TokenRunRecord(hitting_time=t, capped=t is None, final_position=x) for t, x in rows]


def test_token_batch_is_a_sequence_of_its_records():
    # the records a batch returned as a list of records for these configs
    cases = [
        (TokenConfig(r=6, distribution="harmonic", seed=2, iteration_cap=3),
         as_records([(None, 3), (3, 0), (0, 0), (None, 1), (1, 0), (None, 3), (2, 0), (0, 0)])),
        (TokenConfig(r=4, distribution=[0, 0.5, 0, 0.5], seed=5, iteration_cap=3),
         as_records([(None, 1), (None, 2), (0, 0), (2, 0), (1, 0), (1, 0), (None, 3),
                     (None, 1)])),
    ]
    for config, expected in cases:
        batch = token_run_batch(config, len(expected))
        assert isinstance(batch, TokenBatch) and len(batch) == len(expected)
        assert batch == expected and expected == batch and list(batch) == expected
        assert batch == tuple(expected) and batch == token_run_batch(config, len(expected))
        assert batch != expected[:-1] and batch != expected[::-1] and batch != "records"
        assert [batch[k] for k in range(-len(expected), len(expected))] == expected * 2
        for k in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                batch[k]
        for column, dtype in ((batch.rounds, np.int64), (batch.final_position, np.int64),
                              (batch.capped, np.bool_)):
            assert column.dtype == dtype and column.shape == (len(expected),)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        first = batch[0]
        assert type(first.final_position) is int and type(first.capped) is bool
        assert token_run(config) == token_run_batch(config, 1)[0]


def test_record_and_column_summaries_agree():
    uncapped = set()
    for distribution, cap in (("uniform", 10**10), ("harmonic", 6), ("unit", 1),
                              ([0, 0.5, 0, 0.5], 3)):
        for replicates in (1, 2, 400):
            batch = token_run_batch(TokenConfig(r=4, distribution=distribution, seed=9,
                                                iteration_cap=cap), replicates)
            uncapped.add(min(int(np.count_nonzero(~batch.capped)), 2))
            columns = column_summary(batch.rounds, batch.capped)
            np.testing.assert_equal(columns, hitting_time_summary(list(batch)))
    # every run capped (nan mean and median), one uncapped (std_error 0.0), more
    assert uncapped == {0, 1, 2}
