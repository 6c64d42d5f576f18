import hashlib
from argparse import Namespace
from dataclasses import astuple

import numpy as np
import pytest
from scipy import stats

from helpers import (CountingGenerator, assert_chi_square, assert_same_distribution,
                     dense_token_hitting_times, reference_token_hitting_time)
from rvonemax import (CapacityError, DivergenceError, TokenBatch, TokenConfig, TokenRunRecord,
                      fit_scaling, subseed, token_expected_hitting_time_exact,
                      token_hitting_times_by_state, token_process, token_run, token_run_batch,
                      token_step_pmf)
from rvonemax.cli import _cmd_token, main
from rvonemax.experiments import column_summary, hitting_time_summary
from rvonemax.token_process import _inverse, _step_cdf, _walk


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
        token_expected_hitting_time_exact(2**20 + 1, "unit")


def dirichlet_pmf(r):
    return np.random.default_rng(r).dirichlet(np.ones(r))


# leaf-sized ranges (32 states) and both sides of them, both convolution
# branches (direct below 512 states, FFT from there), and the old r limit
@pytest.mark.parametrize("r", [1, 2, 3, 31, 32, 33, 63, 64, 65, 255, 1000, 4096])
@pytest.mark.parametrize("law", ["unit", "uniform", "harmonic", "dirichlet"])
def test_exact_solver_matches_the_dense_rule(law, r):
    distribution = dirichlet_pmf(r) if law == "dirichlet" else law
    np.testing.assert_allclose(token_hitting_times_by_state(r, distribution),
                               dense_token_hitting_times(r, distribution), rtol=1e-12)


@pytest.mark.parametrize("r", [33, 255])
def test_exact_solver_matches_the_dense_rule_on_sparse_pmfs(r):
    # Dirichlet(0.1) draws put some P[d] far above P[d = 1], where a leaf
    # solve by LU with row pivoting would lose up to about 6 digits
    for seed in range(20):
        p = np.random.default_rng(seed).dirichlet(np.full(r, 0.1))
        np.testing.assert_allclose(token_hitting_times_by_state(r, p),
                                   dense_token_hitting_times(r, p), rtol=1e-12)


@pytest.mark.parametrize("r", [33, 600])
def test_exact_solver_keeps_accuracy_where_e_spans_many_orders(r):
    # P[d = 1] = 1e-9, nearly all mass on 2: E[x] is about 1e9 at odd x and
    # about x at even x, so an FFT's rounding, relative to the largest E it
    # convolves, would swamp the even states (about 2e-9 off at r = 600);
    # the solve must find that and convolve directly
    p = np.full(r, 1e-15)
    p[0] = 1e-9
    p[1] = 1.0 - p[0] - p[2:].sum()
    expect = token_hitting_times_by_state(r, p)
    assert expect[2::2].max() < 2 * r and expect[1::2].min() > 1e8
    np.testing.assert_allclose(expect, dense_token_hitting_times(r, p), rtol=1e-12)


@pytest.mark.parametrize("r", [3, 5, 40, 600])
@pytest.mark.parametrize("zeros", [1, 2])
def test_exact_solver_names_the_dense_rules_divergent_state(r, zeros):
    p = dirichlet_pmf(r)
    p[:zeros] = 0.0  # no mass at d = 1 (and 2): state 1 can never move
    p /= p.sum()
    with pytest.raises(DivergenceError) as dense:
        dense_token_hitting_times(r, p)
    with pytest.raises(DivergenceError) as fast:
        token_hitting_times_by_state(r, p)
    assert str(fast.value) == str(dense.value)


def test_exact_harmonic_means_grow_as_six_over_pi_squared_log_r_squared():
    # the token law Theta((log r)^2): a least-squares fit of
    # a (ln r)^2 + b ln r + c to the exact means at r = 2^10 ... 2^18 must
    # give the constant 6 / pi^2 (steps of size d <= x, probability about
    # 1 / (d ln r) each, lower ln x by about sum_d 1 / d^2 / ln r per round)
    rs = 2 ** np.arange(10, 19)
    means = [token_expected_hitting_time_exact(int(r), "harmonic") for r in rs]
    a, _, _ = np.polyfit(np.log(rs), means, 2)
    assert abs(a - 6 / np.pi**2) < 1e-3


def test_step_pmf_validation():
    with pytest.raises(ValueError):
        token_step_pmf("zipf", 4)
    with pytest.raises(ValueError):
        token_step_pmf([0.5, 0.6], 2)  # does not sum to 1
    with pytest.raises(ValueError):
        token_step_pmf([1.5, -0.5], 2)
    with pytest.raises(ValueError):
        token_step_pmf([1.0], 2)  # wrong length
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [0.5, 0.5, -np.inf]):
        with pytest.raises(ValueError, match="finite"):  # NaN passes both the sign and sum tests
            token_step_pmf(bad, 3)
        with pytest.raises(ValueError, match="finite"):
            TokenConfig(r=3, distribution=bad)
        with pytest.raises(ValueError, match="finite"):
            token_expected_hitting_time_exact(3, bad)
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
    batch = token_run_batch(TokenConfig(r=1, distribution="unit", seed=5), 20000)
    assert not batch.capped.any()
    assert np.mean(batch.rounds) == pytest.approx(0.5, abs=0.011)  # 3 sigma of Bernoulli/2


def test_runs_stuck_where_no_step_fits_draw_nothing():
    # state 1 cannot move (P[d = 1] = 0): its runs are capped there, the others
    # hit 0, and the stuck runs leave the others' draws as they were
    # (the digest was recorded before the walk skipped this test for laws
    # with P[d = 1] > 0)
    law = [0, 0.3, 0.2, 0, 0.1, 0.1, 0.1, 0.2]
    batch = token_run_batch(TokenConfig(r=8, distribution=law, seed=7), 2000)
    assert (batch.final_position == np.where(batch.capped, 1, 0)).all() and batch.capped.any()
    columns = batch.rounds.tobytes() + batch.final_position.tobytes() + batch.capped.tobytes()
    assert hashlib.sha256(columns).hexdigest() == \
        "0c8ae3f89a8f92a413b50a740168b1442528158133eae71b8746d17c2dcac594"


def test_token_run_cap_marks_record():
    concentrated = np.zeros(8)
    concentrated[-1] = 1.0
    batch = token_run_batch(TokenConfig(r=8, distribution=concentrated, seed=11,
                                        iteration_cap=50), 50)
    stuck = batch.final_position[batch.capped]
    assert stuck.size, "some runs must start in a state that can never absorb"
    assert ((0 < stuck) & (stuck < 8)).all()


@pytest.mark.parametrize("r, distribution", [
    (63, "unit"), (63, "uniform"), (63, "harmonic"),
    (8, [0.5, 0, 0, 0.25, 0, 0, 0, 0.25]),  # sizes 2, 3, 5, 6, 7 never drawn
])
def test_token_batch_matches_round_by_round_reference(r, distribution):
    batch = token_run_batch(TokenConfig(r=r, distribution=distribution, seed=21), 20000)
    assert not batch.capped.any()
    rng = np.random.default_rng(22)
    reference = [reference_token_hitting_time(r, distribution, rng) for _ in range(3000)]
    assert_same_distribution(batch.rounds, reference)


def row(batch, k):
    """Row k of a batch as a record: no hitting time where the run is capped."""
    t, x, capped = (int(batch.rounds[k]), int(batch.final_position[k]), bool(batch.capped[k]))
    return TokenRunRecord(hitting_time=None if capped else t, capped=capped, final_position=x)


def test_token_run_is_first_record_of_batch_of_one():
    for dist in ("unit", "uniform", "harmonic"):
        cfg = TokenConfig(r=40, distribution=dist, seed=5)
        assert token_run(cfg) == row(token_run_batch(cfg, 1), 0)


@pytest.mark.parametrize("distribution, stuck_at, cap, replicates", [
    ([1e-18, 0, 1 - 1e-18], (1, 2), 10**6, 20),  # only the 1e-18 step moves from 1 and 2
    ([1e-30, 1 - 1e-30, 0], (1,), 10**6, 20),    # 3 reaches 1 after one round, then waits ~1e30
    ([1e-30, 1 - 1e-30, 0], (1,), 2**63 - 1, 50),  # ~1e30 is past any int64 round count
    ([1e-30, 1 - 1e-30, 0], (1,), 10**30, 50),
])
def test_token_tiny_acceptance_probability_caps_cleanly(distribution, stuck_at, cap, replicates):
    # a wait of order 1/q must neither overflow the round counter of a run
    # that has already moved nor, past 2**63 - 1, count as a hit
    batch = token_run_batch(TokenConfig(r=3, distribution=distribution, seed=4,
                                        iteration_cap=cap), replicates)
    capped = batch.capped
    assert capped.any()
    assert np.isin(batch.final_position[capped], stuck_at).all()
    assert np.isin(batch.rounds[~capped], (0, 1)).all()
    assert (batch.final_position[~capped] == 0).all()
    assert (batch.rounds >= 0).all()


@pytest.mark.parametrize("q", [1e-3, 0.05, 0.3, 0.5, 0.9])
def test_walk_wait_is_geometric(q):
    # from 1 under the law [q, 1 - q] the one move is to 0, so a run's rounds
    # are the one wait the walk draws there; bins of about equal mass
    rng = np.random.default_rng(7)
    starts = np.ones(100_000, dtype=np.int64)
    rounds, capped = _walk(_step_cdf([q, 1 - q], 2), 10**10, rng, starts)
    assert not capped.any()
    law = stats.geom(q)  # trials up to the first success, on {1, 2, ...}
    edges = np.unique(law.ppf(np.arange(1, 40) / 40))
    counts = np.bincount(np.searchsorted(edges, rounds), minlength=edges.size + 1)
    assert_chi_square(counts, np.diff(np.concatenate(([0.0], law.cdf(edges), [1.0]))))
    # where q = 1 the wait is exactly one round
    rounds, capped = _walk(_step_cdf([1.0, 0.0], 2), 10**10, rng, np.ones(1000, dtype=np.int64))
    assert not capped.any() and (rounds == 1).all()


def test_token_unit_law_cap_boundary():
    # under the unit law T equals the start, so cap c leaves starts above c
    # capped at start - c
    r, cap = 20, 7
    batch = token_run_batch(TokenConfig(r=r, distribution="unit", seed=8,
                                        iteration_cap=cap), 500)
    capped = batch.capped
    assert capped.any() and not capped.all()
    assert ((1 <= batch.final_position[capped]) & (batch.final_position[capped] <= r - cap)).all()
    times = batch.rounds[~capped]
    assert ((0 <= times) & (times <= cap)).all()
    assert set(times.tolist()) == set(range(cap + 1))
    # a cap beyond the int64 round counter acts as no cap
    huge = TokenConfig(r=r, distribution="unit", seed=8, iteration_cap=10**30)
    assert not token_run_batch(huge, 50).capped.any()


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
            batch = token_run_batch(config, replicates)
            got = [astuple(row(batch, k)) for k in range(replicates)]
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
        # the starts, then one uniform pair per live run per event (a wait and
        # a jump), and never geometric()
        assert calls[0] == "integers" and set(calls[1:]) == {"random"}


def test_monte_carlo_matches_exact_smoke():
    r = 15
    for dist, seed in (("unit", 1), ("uniform", 2), ("harmonic", 3)):
        exact = token_expected_hitting_time_exact(r, dist)
        batch = token_run_batch(TokenConfig(r=r, distribution=dist, seed=seed), 20000)
        assert not batch.capped.any()
        times = batch.rounds
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


GOLDEN = {  # stdout sha256 of the calls below, recorded with the wait drawn by inversion
    "unit": "a98a659c5f26a045674fb68118ad5230965fc495f73cce3456b6f2ca3abc46f1",
    "uniform": "e3505b87532508283518b066834f6cb7accbadb8a1947c7e7c9fe136088191f4",
    "harmonic": "3851b3c47a5ce8cb1fde425b6dcbef39a1defc402a44a94015a812a37107957d",
    "explicit": "7900ab0c08fa4dfbbf099b3b6c0f6a174e79a1d8d763830a5ca2f975c1576cf0",
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


def test_token_run_is_row_zero_of_a_batch_of_one():
    # token_run's record for an uncapped run, one that reaches its cap, and
    # one stuck at 1, where no step size of the law fits
    harmonic = dict(r=6, distribution="harmonic", iteration_cap=3)
    cases = [
        (TokenConfig(seed=5, **harmonic), TokenRunRecord(3, False, 0)),
        (TokenConfig(seed=1, **harmonic), TokenRunRecord(None, True, 2)),
        (TokenConfig(r=4, distribution=[0, 0.5, 0, 0.5], seed=4, iteration_cap=3),
         TokenRunRecord(None, True, 1)),
    ]
    for config, expected in cases:
        batch = token_run_batch(config, 1)
        assert isinstance(batch, TokenBatch)
        for column, dtype in ((batch.rounds, np.int64), (batch.final_position, np.int64),
                              (batch.capped, np.bool_)):
            assert column.dtype == dtype and column.shape == (1,)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        record = token_run(config)
        assert type(record.final_position) is int and type(record.capped) is bool
        assert record.capped or type(record.hitting_time) is int
        assert record == row(batch, 0) == expected


def test_record_and_column_summaries_agree():
    uncapped = set()
    for distribution, cap in (("uniform", 10**10), ("harmonic", 6), ("unit", 1),
                              ([0, 0.5, 0, 0.5], 3)):
        for replicates in (1, 2, 400):
            batch = token_run_batch(TokenConfig(r=4, distribution=distribution, seed=9,
                                                iteration_cap=cap), replicates)
            uncapped.add(min(int(np.count_nonzero(~batch.capped)), 2))
            columns = column_summary(batch.rounds, batch.capped)
            records = [row(batch, k) for k in range(replicates)]
            np.testing.assert_equal(columns, hitting_time_summary(records))
    # every run capped (nan mean and median), one uncapped (std_error 0.0), more
    assert uncapped == {0, 1, 2}
