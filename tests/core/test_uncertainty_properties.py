"""Property-based tests for Beta posteriors and the posterior kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    BetaPosterior,
    DemandProfile,
    UncertainClassParameters,
    UncertainModel,
)

counts = st.tuples(st.integers(0, 1000), st.integers(0, 1000)).map(
    lambda pair: (min(pair), max(pair))
)
quantile_levels = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def beta_posteriors(draw):
    events, trials = draw(counts)
    return BetaPosterior.from_counts(events, trials)


@st.composite
def uncertain_class_parameters(draw):
    return UncertainClassParameters(
        draw(beta_posteriors()), draw(beta_posteriors()), draw(beta_posteriors())
    )


class TestBetaPosteriorProperties:
    @given(posterior=beta_posteriors())
    def test_mean_is_a_probability(self, posterior):
        assert 0.0 <= posterior.mean <= 1.0

    @given(posterior=beta_posteriors(), q=quantile_levels)
    # boost's tgamma overflows here; the Monte Carlo fallback's first call
    # also pays scipy's lazy import, hence no deadline.
    @example(posterior=BetaPosterior(171.5, 686.5), q=5e-324)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_are_probabilities(self, posterior, q):
        assert 0.0 <= posterior.quantile(q) <= 1.0

    @given(posterior=beta_posteriors(), q=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_quantile_agrees_with_monte_carlo(self, posterior, q):
        """The exact (scipy) quantile and a seeded MC estimate agree.

        Tolerance scales with the posterior's spread: a quantile can only
        be pinned down to the local density of samples around it.
        """
        exact = posterior.quantile(q)
        rng = np.random.default_rng(0)
        estimate = float(np.quantile(posterior.sample(rng, 100_000), q))
        assert estimate == pytest.approx(exact, abs=max(5e-2 * posterior.std, 1e-4))

    @given(posterior=beta_posteriors(), level=st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_interval_is_ordered_and_in_unit_range(self, posterior, level):
        interval = posterior.interval(level)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0


class TestKernelProperties:
    @given(
        first=uncertain_class_parameters(),
        second=uncertain_class_parameters(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_interval_invariant_under_class_relabelling(self, first, second, seed):
        """Sampling is keyed by *sorted* class order, so the same posteriors

        under reordered (relabelled-but-order-preserving) construction
        consume the RNG stream identically and give bit-identical
        intervals."""
        forward = UncertainModel({"alpha": first, "beta": second})
        reversed_insertion = UncertainModel({"beta": second, "alpha": first})
        profile = DemandProfile({"alpha": 0.3, "beta": 0.7})
        one = forward.failure_probability_interval(profile, num_samples=200, seed=seed)
        two = reversed_insertion.failure_probability_interval(
            profile, num_samples=200, seed=seed
        )
        assert (one.lower, one.upper, one.mean) == (two.lower, two.upper, two.mean)

    @given(
        entry=uncertain_class_parameters(),
        seed=st.integers(0, 2**31 - 1),
        factor=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_win_probabilities_sum_to_one(self, entry, seed, factor):
        """With ties counted half, P(A beats B) + P(B beats A) = 1 exactly

        under common random numbers — no probability mass leaks into
        ties."""
        model = UncertainModel({"only": entry})
        profile = DemandProfile({"only": 1.0})
        improve = lambda p: p.with_machine_improved(factor)  # noqa: E731
        keep = lambda p: p  # noqa: E731
        forward = model.probability_scenario_beats(
            improve, keep, profile, num_samples=200, seed=seed
        )
        backward = model.probability_scenario_beats(
            keep, improve, profile, num_samples=200, seed=seed
        )
        assert forward + backward == 1.0

    @given(entry=uncertain_class_parameters(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_samples_are_probabilities(self, entry, seed):
        model = UncertainModel({"only": entry})
        profile = DemandProfile({"only": 1.0})
        samples = model.failure_probability_samples(profile, num_samples=100, seed=seed)
        assert np.all((samples >= 0.0) & (samples <= 1.0))
