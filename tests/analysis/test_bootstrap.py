"""Deterministic bootstrap CIs: content-derived, process-independent."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bootstrap import (
    _percentile,
    bootstrap_ci95,
    bootstrap_mean_samples,
)
from repro.util.rng import fold_seed


def loop_mean_samples(values, base_seed, *labels, n_resamples=200):
    """The original one-``randrange``-at-a-time loop: the parity oracle."""
    values = list(values)
    n = len(values)
    rng = random.Random(fold_seed(base_seed, *labels))
    means = []
    for _ in range(n_resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    return means


def bits(values):
    return [value.hex() for value in values]


_MAGNITUDE = st.floats(min_value=-9.0, max_value=12.0)
_VALUE = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
    _MAGNITUDE,
)


class TestVectorizedMatchesLoop:
    """The bulk draw must reproduce the scalar loop bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(_VALUE, min_size=1, max_size=33),
        seed=st.integers(min_value=0, max_value=2**40),
        label=st.text(max_size=8),
        n_resamples=st.sampled_from((1, 2, 7, 200, 1000)),
    )
    def test_random_samples(self, values, seed, label, n_resamples):
        assert bits(
            bootstrap_mean_samples(values, seed, label, n_resamples=n_resamples)
        ) == bits(loop_mean_samples(values, seed, label, n_resamples=n_resamples))

    @pytest.mark.parametrize("values", [[4.5], [1.0, -2.5], [0.1, 0.2]])
    def test_one_and_two_observations(self, values):
        for seed in range(50):
            assert bits(bootstrap_mean_samples(values, seed, "x")) == bits(
                loop_mean_samples(values, seed, "x")
            )

    def test_negative_zeros_sum_like_the_loop(self):
        # The loop's running total starts at +0.0, so it never ends at -0.0.
        values = [-0.0, -0.0, -0.0]
        assert bits(bootstrap_mean_samples(values, 3, "z")) == bits(
            loop_mean_samples(values, 3, "z")
        )

    def test_integer_values(self):
        values = [3, -7, 2**60, 11]
        assert bits(bootstrap_mean_samples(values, 5, "i", n_resamples=500)) == bits(
            loop_mean_samples(values, 5, "i", n_resamples=500)
        )


class TestDeterminism:
    def test_same_labels_same_interval(self):
        values = [1.0, 2.0, 4.0, 8.0]
        first = bootstrap_ci95(values, 20050610, "point-token", "energy")
        second = bootstrap_ci95(values, 20050610, "point-token", "energy")
        assert first == second

    def test_different_labels_different_stream(self):
        values = [1.0, 2.0, 4.0, 8.0]
        energy = bootstrap_ci95(values, 20050610, "tok", "energy")
        latency = bootstrap_ci95(values, 20050610, "tok", "latency")
        assert energy != latency

    def test_resampled_means_are_reproducible(self):
        values = [3.0, 1.0, 2.0]
        first = bootstrap_mean_samples(values, 7, "x", n_resamples=50)
        second = bootstrap_mean_samples(values, 7, "x", n_resamples=50)
        assert first == second
        assert len(first) == 50

    def test_global_rng_state_is_untouched(self):
        import random

        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        bootstrap_ci95([1.0, 2.0, 3.0], 99, "tok")
        assert random.random() == expected


class TestStatisticalShape:
    def test_single_value_has_zero_width(self):
        assert bootstrap_ci95([5.0], 1, "x") == 0.0

    def test_constant_sample_has_zero_width(self):
        assert bootstrap_ci95([2.0, 2.0, 2.0, 2.0], 1, "x") == 0.0

    def test_wider_spread_wider_interval(self):
        tight = bootstrap_ci95([10.0, 10.1, 9.9, 10.05], 3, "t")
        loose = bootstrap_ci95([10.0, 20.0, 0.0, 15.0], 3, "t")
        assert loose > tight > 0.0

    def test_resampled_means_stay_in_range(self):
        values = [1.0, 5.0, 9.0]
        means = bootstrap_mean_samples(values, 11, "r", n_resamples=100)
        assert all(min(values) <= m <= max(values) for m in means)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_ci95([], 1, "x")
        with pytest.raises(ValueError, match="empty"):
            bootstrap_mean_samples([], 1, "x")

    def test_bad_resample_count_raises(self):
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_mean_samples([1.0], 1, "x", n_resamples=0)


class TestPercentile:
    def test_endpoints_and_midpoint(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 5.0
        assert _percentile(values, 0.5) == 3.0

    def test_interpolates_between_ranks(self):
        assert _percentile([0.0, 10.0], 0.25) == 2.5

    def test_single_element(self):
        assert _percentile([7.0], 0.975) == 7.0

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError, match="fraction"):
            _percentile([1.0], 1.5)
