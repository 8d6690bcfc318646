"""Tests for repro.trial.intervals (binomial confidence intervals)."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import EstimationError
from repro.trial import (
    clopper_pearson_interval,
    jeffreys_interval,
    wilson_interval,
)
from repro.trial.intervals import _z_for_level

METHODS = [wilson_interval, clopper_pearson_interval, jeffreys_interval]


@st.composite
def counts(draw):
    trials = draw(st.integers(min_value=1, max_value=10_000))
    events = draw(st.integers(min_value=0, max_value=trials))
    return events, trials


class TestCommonBehaviour:
    @pytest.mark.parametrize("method", METHODS)
    def test_contains_point_estimate(self, method):
        interval = method(13, 100)
        assert 0.13 in interval
        assert interval.point == pytest.approx(0.13)

    @pytest.mark.parametrize("method", METHODS)
    def test_bounds_in_unit_interval(self, method):
        for events, trials in [(0, 10), (10, 10), (5, 10), (1, 1000)]:
            interval = method(events, trials)
            assert 0.0 <= interval.lower <= interval.upper <= 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_narrows_with_sample_size(self, method):
        small = method(5, 20)
        large = method(250, 1000)
        assert large.width < small.width

    @pytest.mark.parametrize("method", METHODS)
    def test_higher_level_is_wider(self, method):
        assert method(30, 100, level=0.99).width > method(30, 100, level=0.90).width

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_events_lower_bound_zero(self, method):
        assert method(0, 50).lower == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_all_events_upper_bound_one(self, method):
        assert method(50, 50).upper == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_counts_rejected(self, method):
        with pytest.raises(EstimationError):
            method(5, 0)
        with pytest.raises(EstimationError):
            method(11, 10)
        with pytest.raises(EstimationError):
            method(-1, 10)

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_level_rejected(self, method):
        with pytest.raises(EstimationError):
            method(5, 10, level=0.0)
        with pytest.raises(EstimationError):
            method(5, 10, level=1.0)

    @pytest.mark.parametrize("method", METHODS)
    @given(counts())
    def test_point_always_inside(self, method, events_trials):
        events, trials = events_trials
        interval = method(events, trials)
        assert interval.lower - 1e-9 <= events / trials <= interval.upper + 1e-9


class TestMethodSpecifics:
    def test_wilson_z_at_tabled_and_untabled_levels(self):
        # Tabled levels keep their ten-decimal values; any other level
        # takes the normal quantile (scipy.stats.norm.ppf(0.965) pinned).
        assert _z_for_level(0.95) == 1.9599639845
        assert _z_for_level(0.93) == pytest.approx(1.8119106729525989, rel=1e-15)
        # Bounds as computed with scipy's norm.ppf for z.
        interval = wilson_interval(13, 100, level=0.93)
        assert interval.lower == pytest.approx(0.0806595714066275, rel=1e-14)
        assert interval.upper == pytest.approx(0.20286254292985179, rel=1e-14)

    def test_wilson_known_value(self):
        # Canonical check: 0 of 10 at 95% gives upper ~ 0.278 (Wilson).
        interval = wilson_interval(0, 10)
        assert interval.upper == pytest.approx(0.278, abs=5e-3)

    def test_clopper_pearson_known_value(self):
        # 0 of 10 at 95%: upper = 1 - 0.025^(1/10) ~ 0.3085.
        interval = clopper_pearson_interval(0, 10)
        assert interval.upper == pytest.approx(0.3085, abs=5e-3)

    def test_clopper_pearson_conservative_vs_wilson(self):
        cp = clopper_pearson_interval(13, 100)
        wilson = wilson_interval(13, 100)
        assert cp.width >= wilson.width - 1e-12

    def test_method_names(self):
        assert wilson_interval(1, 10).method == "wilson"
        assert clopper_pearson_interval(1, 10).method == "clopper-pearson"
        assert jeffreys_interval(1, 10).method == "jeffreys"

    def test_jeffreys_midpoint_close_to_posterior_mean(self):
        interval = jeffreys_interval(50, 100)
        assert (interval.lower + interval.upper) / 2 == pytest.approx(0.5, abs=0.01)
