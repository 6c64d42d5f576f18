"""The lockstep RLS kernel's counter-based streams: the uniforms of
algorithms._uniforms and the Poisson counts of algorithms._poisson, each
checked at significance 0.001."""

from math import exp, lgamma, log, sqrt

import numpy as np
import pytest
from scipy import stats

from helpers import assert_chi_square, reference_poisson
from rvonemax import subseed
from rvonemax.algorithms import _POISSON_MAX, _mix, _poisson, _uniforms

BINS = 64


def _keys(seed, count):
    """The keys of replicates 0..count-1 of a batch with the given seed."""
    return _mix(np.array([subseed(seed, k) for k in range(count)], dtype=np.uint64))


def _assert_uniform(u, bins=BINS):
    assert u.dtype == np.float64 and u.min() >= 0.0 and u.max() < 1.0
    assert_chi_square(np.bincount((u * bins).astype(np.int64), minlength=bins),
                      np.full(bins, 1 / bins))


def test_uniforms_of_one_key_are_uniform():
    _assert_uniform(_uniforms(_keys(11, 1), np.arange(10**6, dtype=np.uint64)))


def test_uniforms_across_keys_are_uniform():
    for counter in (0, 1, 12345):
        _assert_uniform(_uniforms(_keys(12, 10_000), np.full(1, counter, dtype=np.uint64)))


def test_a_lanes_pair_of_uniforms_is_uniform_on_the_square():
    # lane i of a replicate at n positions draws its pair of round t at
    # counters n + 2(t n + i) and the one after: 8 x 8 cells over 10,000
    # replicates x 10 rounds of lane 2 at n = 5
    n, i, side = 5, 2, 8
    keys = _keys(13, 10_000)[:, None]
    first = (n + 2 * (np.arange(10) * n + i)).astype(np.uint64)
    u, v = (_uniforms(keys, first + np.uint64(j)).ravel() for j in (0, 1))
    cells = (u * side).astype(np.int64) * side + (v * side).astype(np.int64)
    assert_chi_square(np.bincount(cells, minlength=side * side),
                      np.full(side * side, 1 / side**2))


def _pooled(counts, probs, size, least=5.0):
    """counts and probs with neighbouring bins merged until each expects at
    least `least` of `size` draws; a short remainder joins the last bin."""
    edges, acc = [0], 0.0
    for j, p in enumerate(probs):
        acc += p
        if acc * size >= least:
            edges.append(j + 1)
            acc = 0.0
    edges[-1] = len(probs)
    return np.add.reduceat(counts, edges[:-1]), np.add.reduceat(probs, edges[:-1])


@pytest.mark.parametrize("lam", [0.3, 4, 9.999, 10, 57.5, 2000])
def test_poisson_counts_follow_the_exact_pmf(lam):
    # chi-square against exp(k log lam - lam - lgamma(k + 1)); the counts
    # above `top` share one bin with the pmf's tail mass
    size = 100_000
    counts = _poisson(_keys(int(lam * 1000), size), np.full(size, float(lam)))
    assert counts.dtype == np.int64 and counts.min() >= 0
    top = int(lam + 12 * sqrt(lam) + 30)
    pmf = [exp(k * log(lam) - lam - lgamma(k + 1)) for k in range(top)]
    probs = np.array(pmf + [max(1.0 - sum(pmf), 0.0)])
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    observed, probs = _pooled(observed, probs, size)
    assert_chi_square(observed, probs / probs.sum())


def test_poisson_mean_and_variance_at_a_huge_mean():
    # z-tests: the mean has variance lam / N, the sample variance about
    # (lam + 2 lam^2) / N
    lam, size = 1e9, 100_000
    counts = _poisson(_keys(14, size), np.full(size, lam)).astype(np.float64)
    bound = stats.norm.isf(0.001 / 2)
    assert abs(counts.mean() - lam) / sqrt(lam / size) < bound
    assert abs(counts.var(ddof=1) - lam) / sqrt((lam + 2 * lam**2) / size) < bound


def test_poisson_edge_means():
    keys = _keys(15, 1000)
    assert (_poisson(keys, np.zeros(1000)) == 0).all()
    for bad in (_POISSON_MAX * 1.01, 1e19, np.inf, np.nan):
        with pytest.raises(ValueError):
            _poisson(keys[:3], np.array([1.0, bad, 2.0]))
    assert _poisson(keys[:1], np.array([_POISSON_MAX]))[0] > 0


def test_poisson_counts_of_a_key_do_not_depend_on_the_batch():
    # each count reads only its own key's stream, whatever its neighbours'
    # means or the batch's order
    keys = _keys(16, 300)
    means = np.random.default_rng(0).choice([0.0, 0.5, 9.0, 10.0, 40.0, 1e6], 300)
    together = _poisson(keys, means)
    order = np.random.default_rng(1).permutation(300)
    assert (_poisson(keys[order], means[order]) == together[order]).all()
    assert all(_poisson(keys[k:k + 1], means[k:k + 1])[0] == together[k] for k in range(0, 300, 7))


POISSON_ORACLE_MEANS = (0.0, 0.3, 9.999, 10.0, 57.5, 2000.0, 1e9)


@pytest.mark.parametrize("mean", POISSON_ORACLE_MEANS)
def test_poisson_counts_equal_the_one_key_at_a_time_oracle(mean):
    # every count equals the plain per-key loop: inversion below 10, and
    # PTRS tries in counter order, up to the first accepted one, from 10 on
    keys = _keys(17, 2000)
    expected = [reference_poisson(key, mean) for key in keys]
    assert _poisson(keys, np.full(2000, mean)).tolist() == expected


def test_poisson_counts_of_mixed_means_equal_the_oracle():
    keys = _keys(18, 2000)
    means = np.random.default_rng(2).choice(POISSON_ORACLE_MEANS, 2000)
    expected = [reference_poisson(key, mean) for key, mean in zip(keys, means.tolist())]
    assert _poisson(keys, means).tolist() == expected
