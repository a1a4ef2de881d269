import math
import tracemalloc
from fractions import Fraction

import pytest

from urntest import (
    SimConfig,
    UrnSpec,
    UrnSizeError,
    enumerate_exact,
    fnch_pmf,
    hyper_pmf,
    monte_carlo,
    null_distribution,
)
from urntest.oracle import SAMPLER_LIMIT


def small_urns(max_total):
    """Every valid (t, r, n) combination up to the given urn size."""
    for total in range(1, max_total + 1):
        for r in range(1, total + 1):
            t = total - r
            for n in range(total + 1):
                lo = max(0, n - r)
                yield UrnSpec(t_count=t, r_count=r, sample_size=n, support_count=lo)


class TestEnumerateExact:
    def test_two_interview_distribution(self):
        dist = dict(enumerate_exact(UrnSpec(2, 3, 2, 2)))
        assert dist == {0: Fraction(3, 10), 1: Fraction(6, 10), 2: Fraction(1, 10)}
        assert dist[2] == Fraction(1, 10)

    def test_tiny_biased_urn(self):
        dist = dict(enumerate_exact(UrnSpec(1, 1, 1, 1), omega=3))
        assert dist == {0: Fraction(1, 4), 1: Fraction(3, 4)}

    def test_size_guard(self):
        with pytest.raises(UrnSizeError):
            enumerate_exact(UrnSpec(12, 12, 10, 10))

    def test_matches_null_distribution_exactly(self):
        for urn in small_urns(10):
            assert enumerate_exact(urn, 1) == [
                (k, Fraction(p)) for k, p in null_distribution(urn)
            ]

    def test_matches_biased_pmf(self):
        for urn in small_urns(9):
            for omega in (0.1, 0.5, 2, 10):
                for k, prob in enumerate_exact(urn, omega):
                    expected = fnch_pmf(urn, k, omega)
                    if prob == 0:
                        assert expected == 0.0
                    else:
                        assert expected == pytest.approx(float(prob), rel=1e-10)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(draws=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(draws=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(draws=10, seed=2**64)


class TestMonteCarlo:
    URN = UrnSpec(2, 3, 2, 2)

    def test_thousand_draws_near_exact(self):
        freqs = dict(monte_carlo(self.URN, SimConfig(draws=1000, seed=12345)))
        # single run of 1000; binomial noise keeps this within a few percent
        assert freqs[2] == pytest.approx(0.1, abs=0.04)

    def test_million_draws_tight(self):
        freqs = dict(monte_carlo(self.URN, SimConfig(draws=10**6, seed=7)))
        se = math.sqrt(0.1 * 0.9 / 10**6)
        assert abs(freqs[2] - 0.1) <= 3 * se

    def test_deterministic(self):
        a = monte_carlo(self.URN, SimConfig(draws=20_000, seed=99))
        b = monte_carlo(self.URN, SimConfig(draws=20_000, seed=99))
        assert a == b

    def test_seeds_differ(self):
        a = monte_carlo(self.URN, SimConfig(draws=20_000, seed=1))
        b = monte_carlo(self.URN, SimConfig(draws=20_000, seed=2))
        assert a != b

    def test_frequencies_sum_to_one(self):
        freqs = monte_carlo(UrnSpec(7, 8, 10, 7), SimConfig(draws=50_000, seed=3))
        assert math.fsum(p for _, p in freqs) == pytest.approx(1.0, abs=1e-12)

    def test_within_four_standard_errors_everywhere(self):
        urn = UrnSpec(2, 3, 2, 2)
        exact = {k: float(p) for k, p in null_distribution(urn)}
        draws = 100_000
        for seed in range(10):
            for k, est in monte_carlo(urn, SimConfig(draws=draws, seed=seed)):
                p = exact[k]
                se = math.sqrt(p * (1 - p) / draws)
                assert abs(est - p) <= 4 * se

    def test_error_shrinks_with_draws(self):
        urn = UrnSpec(2, 3, 2, 2)
        exact = {k: float(p) for k, p in null_distribution(urn)}

        def max_abs_err(draws, seed):
            return max(abs(est - exact[k]) for k, est in monte_carlo(urn, SimConfig(draws, seed)))

        seeds = range(100, 120)
        coarse = sum(max_abs_err(10**3, s) for s in seeds) / 20
        fine = sum(max_abs_err(10**5, s) for s in seeds) / 20
        assert coarse >= fine

    def test_whole_urn_draw(self):
        freqs = dict(monte_carlo(UrnSpec(2, 3, 5, 2), SimConfig(draws=100, seed=0)))
        assert freqs[2] == 1.0

    def test_empty_draw(self):
        freqs = dict(monte_carlo(UrnSpec(2, 3, 0, 0), SimConfig(draws=100, seed=0)))
        assert freqs[0] == 1.0


def bernstein_bound(draws, p, delta=1e-9):
    """Count deviation from draws * p that a correct sampler exceeds with
    probability at most delta, by Bernstein's inequality."""
    log_term = math.log(2 / delta)
    return log_term / 3 + math.sqrt((log_term / 3) ** 2 + 2 * draws * p * (1 - p) * log_term)


class TestSamplerAtRealSizes:
    """numpy simulates the draws one by one for n < 10 or n > total - 10,
    and uses ratio of uniforms otherwise; every urn here checks one of the
    two."""

    @pytest.mark.parametrize(
        "urn, seed",
        [
            (UrnSpec(7, 8, 5, 3), 11),  # n < 10
            (UrnSpec(150, 250, 150, 60), 12),  # 400 items, ratio of uniforms
            (UrnSpec(0, 40, 25, 0), 13),  # no working items
            (UrnSpec(150, 250, 399, 149), 14),  # n = total - 1
        ],
        ids=["small-n", "400-items", "t=0", "n=total-1"],
    )
    def test_matches_null_distribution(self, urn, seed):
        draws = 200_000
        exact = dict(null_distribution(urn))
        freqs = monte_carlo(urn, SimConfig(draws=draws, seed=seed))
        assert [k for k, _ in freqs] == list(range(urn.sample_size + 1))
        for k, est in freqs:
            p = float(exact.get(k, 0))
            assert abs(round(est * draws) - draws * p) <= bernstein_bound(draws, p), k
        # the mean pools every cell, so it sees a shift too small for any one cell
        t, total, n = urn.t_count, urn.total, urn.sample_size
        mean = n * t / total
        var = mean * (total - t) * (total - n) / (total * (total - 1))
        assert abs(math.fsum(k * est for k, est in freqs) - mean) <= 6 * math.sqrt(var / draws)

    def test_memory_bounded_on_400_item_urn(self):
        import numpy  # noqa: F401  (its import is not the sampler's cost)

        tracemalloc.start()
        try:
            monte_carlo(UrnSpec(150, 250, 150, 60), SimConfig(100_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("t, r", [(SAMPLER_LIMIT, 1), (1, SAMPLER_LIMIT)])
    def test_size_guard(self, t, r):
        with pytest.raises(UrnSizeError, match=str(SAMPLER_LIMIT)):
            monte_carlo(UrnSpec(t, r, 1, 0), SimConfig(draws=1, seed=1))

    def test_largest_counts_below_guard(self):
        urn = UrnSpec(SAMPLER_LIMIT - 1, SAMPLER_LIMIT - 1, 3, 0)
        freqs = monte_carlo(urn, SimConfig(draws=1000, seed=5))
        assert math.fsum(p for _, p in freqs) == pytest.approx(1.0, abs=1e-12)
