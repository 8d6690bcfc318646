"""Tests for repro.core.uncertainty (Beta posteriors, MC propagation)."""

import numpy as np
import pytest

from repro.core import (
    PAPER_TRIAL_PROFILE,
    BetaPosterior,
    CredibleInterval,
    DemandProfile,
    SequentialModel,
    UncertainClassParameters,
    UncertainModel,
    paper_example_parameters,
)
from repro.exceptions import EstimationError, ParameterError


class TestBetaPosterior:
    def test_from_counts_jeffreys(self):
        posterior = BetaPosterior.from_counts(3, 10)
        assert posterior.alpha == pytest.approx(3.5)
        assert posterior.beta == pytest.approx(7.5)

    def test_mean(self):
        assert BetaPosterior(2.0, 2.0).mean == pytest.approx(0.5)
        assert BetaPosterior(1.0, 3.0).mean == pytest.approx(0.25)

    def test_variance_shrinks_with_data(self):
        small = BetaPosterior.from_counts(5, 10)
        large = BetaPosterior.from_counts(500, 1000)
        assert large.variance < small.variance

    def test_invalid_counts(self):
        with pytest.raises(EstimationError):
            BetaPosterior.from_counts(5, 3)
        with pytest.raises(EstimationError):
            BetaPosterior.from_counts(-1, 3)

    def test_invalid_shapes(self):
        with pytest.raises(EstimationError):
            BetaPosterior(0.0, 1.0)
        with pytest.raises(EstimationError):
            BetaPosterior(1.0, float("inf"))

    def test_certain_concentrates(self):
        posterior = BetaPosterior.certain(0.3)
        assert posterior.mean == pytest.approx(0.3, abs=1e-6)
        assert posterior.std < 1e-4

    def test_certain_at_endpoints(self):
        assert BetaPosterior.certain(0.0).mean == pytest.approx(0.0, abs=1e-6)
        assert BetaPosterior.certain(1.0).mean == pytest.approx(1.0, abs=1e-6)

    def test_quantiles_ordered(self):
        posterior = BetaPosterior.from_counts(3, 10)
        assert posterior.quantile(0.1) < posterior.quantile(0.5) < posterior.quantile(0.9)

    def test_interval_contains_mean(self):
        posterior = BetaPosterior.from_counts(3, 10)
        interval = posterior.interval(0.95)
        assert posterior.mean in interval
        assert interval.level == 0.95

    def test_interval_narrows_with_data(self):
        wide = BetaPosterior.from_counts(3, 10).interval()
        narrow = BetaPosterior.from_counts(300, 1000).interval()
        assert narrow.width < wide.width

    def test_sampling_matches_mean(self, rng):
        posterior = BetaPosterior.from_counts(30, 100)
        samples = posterior.sample(rng, 20_000)
        assert float(np.mean(samples)) == pytest.approx(posterior.mean, abs=0.01)

    def test_bad_quantile_level(self):
        with pytest.raises(EstimationError):
            BetaPosterior(1.0, 1.0).quantile(1.5)

    def test_bad_interval_level(self):
        with pytest.raises(EstimationError):
            BetaPosterior(1.0, 1.0).interval(0.0)


class TestCredibleInterval:
    def test_width_and_contains(self):
        interval = CredibleInterval(lower=0.2, upper=0.4, level=0.9, mean=0.3)
        assert interval.width == pytest.approx(0.2)
        assert 0.3 in interval
        assert 0.5 not in interval

    def test_invalid_order(self):
        with pytest.raises(EstimationError):
            CredibleInterval(lower=0.4, upper=0.2, level=0.9, mean=0.3)

    def test_invalid_level(self):
        with pytest.raises(EstimationError):
            CredibleInterval(lower=0.1, upper=0.2, level=1.0, mean=0.15)

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 999, 40_000])
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99, 1e-9, 1.0 - 1e-9])
    def test_from_samples_equals_two_quantile_calls(self, size, level):
        samples = np.random.default_rng(size).beta(0.7, 30.0, size=size)
        tail = (1.0 - level) / 2.0
        interval = CredibleInterval.from_samples(samples, level)
        assert interval == CredibleInterval(
            lower=float(np.quantile(samples, tail)),
            upper=float(np.quantile(samples, 1.0 - tail)),
            level=level,
            mean=float(samples.mean()),
        )

    def test_from_samples_rejects_invalid_level(self):
        for level in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(EstimationError):
                CredibleInterval.from_samples(np.linspace(0.0, 1.0, 11), level)


class TestUncertainClassParameters:
    def test_from_point_roundtrip(self, example_class_parameters):
        uncertain = UncertainClassParameters.from_point(example_class_parameters)
        assert uncertain.mean_parameters().is_close(example_class_parameters, atol=1e-5)

    def test_sampling_is_valid_parameters(self, rng, example_class_parameters):
        uncertain = UncertainClassParameters(
            BetaPosterior.from_counts(2, 20),
            BetaPosterior.from_counts(14, 20),
            BetaPosterior.from_counts(2, 20),
        )
        for _ in range(50):
            sample = uncertain.sample_parameters(rng)
            assert 0.0 <= sample.p_machine_failure <= 1.0
            assert 0.0 <= sample.p_human_failure_given_machine_failure <= 1.0


class TestUncertainModel:
    @pytest.fixture
    def uncertain_model(self):
        return UncertainModel(
            {
                "easy": UncertainClassParameters(
                    BetaPosterior.from_counts(7, 100),
                    BetaPosterior.from_counts(18, 100),
                    BetaPosterior.from_counts(14, 100),
                ),
                "difficult": UncertainClassParameters(
                    BetaPosterior.from_counts(41, 100),
                    BetaPosterior.from_counts(90, 100),
                    BetaPosterior.from_counts(40, 100),
                ),
            }
        )

    def test_mean_model_close_to_paper(self, uncertain_model):
        mean_model = uncertain_model.mean_model()
        paper = SequentialModel(paper_example_parameters())
        assert mean_model.system_failure_probability(
            PAPER_TRIAL_PROFILE
        ) == pytest.approx(
            paper.system_failure_probability(PAPER_TRIAL_PROFILE), abs=0.01
        )

    def test_interval_contains_mean_prediction(self, uncertain_model, rng):
        interval = uncertain_model.failure_probability_interval(
            PAPER_TRIAL_PROFILE, num_samples=2000, rng=rng
        )
        mean_prediction = uncertain_model.mean_model().system_failure_probability(
            PAPER_TRIAL_PROFILE
        )
        assert mean_prediction in interval

    def test_interval_narrows_with_more_trial_data(self, rng):
        def model_at(n: int) -> UncertainModel:
            return UncertainModel(
                {
                    "only": UncertainClassParameters(
                        BetaPosterior.from_counts(n // 10, n),
                        BetaPosterior.from_counts(n // 2, n),
                        BetaPosterior.from_counts(n // 10, n),
                    )
                }
            )

        profile = DemandProfile({"only": 1.0})
        wide = model_at(20).failure_probability_interval(
            profile, num_samples=2000, rng=np.random.default_rng(0)
        )
        narrow = model_at(2000).failure_probability_interval(
            profile, num_samples=2000, rng=np.random.default_rng(0)
        )
        assert narrow.width < wide.width

    def test_samples_in_unit_interval(self, uncertain_model, rng):
        samples = uncertain_model.failure_probability_samples(
            PAPER_TRIAL_PROFILE, num_samples=500, rng=rng
        )
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_from_point_is_degenerate(self, rng):
        model = UncertainModel.from_point(paper_example_parameters())
        interval = model.failure_probability_interval(
            PAPER_TRIAL_PROFILE, num_samples=500, rng=rng
        )
        assert interval.width < 1e-3
        assert interval.mean == pytest.approx(0.235, abs=1e-2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            UncertainModel({})
        with pytest.raises(ParameterError):
            UncertainModel({"a": "nope"})  # type: ignore[dict-item]
        model = UncertainModel.from_point(paper_example_parameters())
        with pytest.raises(ParameterError):
            model["unknown"]

    def test_bad_sample_count(self):
        model = UncertainModel.from_point(paper_example_parameters())
        with pytest.raises(EstimationError):
            model.failure_probability_samples(PAPER_TRIAL_PROFILE, num_samples=0)


class TestScenarioComparison:
    @pytest.fixture
    def uncertain_paper_model(self):
        """Posteriors as if Table 1 came from a 400-reading-per-class trial."""
        def from_rate(rate, n=400):
            return BetaPosterior.from_counts(round(rate * n), n)

        return UncertainModel(
            {
                "easy": UncertainClassParameters(
                    from_rate(0.07), from_rate(0.18), from_rate(0.14)
                ),
                "difficult": UncertainClassParameters(
                    from_rate(0.41), from_rate(0.90), from_rate(0.40)
                ),
            }
        )

    def test_improving_difficult_beats_easy_with_high_probability(
        self, uncertain_paper_model, rng
    ):
        """Table 3's conclusion survives estimation uncertainty."""
        probability = uncertain_paper_model.probability_scenario_beats(
            lambda p: p.with_machine_improved(10.0, ["difficult"]),
            lambda p: p.with_machine_improved(10.0, ["easy"]),
            PAPER_TRIAL_PROFILE,
            num_samples=2000,
            rng=rng,
        )
        assert probability > 0.95

    def test_identical_scenarios_are_a_coin_flip(self, uncertain_paper_model, rng):
        probability = uncertain_paper_model.probability_scenario_beats(
            lambda p: p,
            lambda p: p,
            PAPER_TRIAL_PROFILE,
            num_samples=500,
            rng=rng,
        )
        # Identical transforms give identical values on every draw; exact
        # ties count as half a win each, so the answer is exactly 0.5 —
        # "the data cannot tell the scenarios apart" — rather than the
        # misleading 0.0 that strict-win counting used to report.
        assert probability == 0.5

    def test_degenerate_posterior_cannot_distinguish_scenarios(self, rng):
        """A from_point posterior compares near-identical draws: exactly 0.5."""
        model = UncertainModel.from_point(paper_example_parameters())
        probability = model.probability_scenario_beats(
            lambda p: p,
            lambda p: p,
            PAPER_TRIAL_PROFILE,
            num_samples=200,
            rng=rng,
        )
        assert probability == 0.5

    def test_interval_is_reproducible_with_seed(self, uncertain_paper_model):
        first = uncertain_paper_model.failure_probability_interval(
            PAPER_TRIAL_PROFILE, num_samples=400, seed=123
        )
        second = uncertain_paper_model.failure_probability_interval(
            PAPER_TRIAL_PROFILE, num_samples=400, seed=123
        )
        assert (first.lower, first.upper, first.mean) == (
            second.lower,
            second.upper,
            second.mean,
        )
        different = uncertain_paper_model.failure_probability_interval(
            PAPER_TRIAL_PROFILE, num_samples=400, seed=124
        )
        assert (different.lower, different.upper) != (first.lower, first.upper)

    def test_any_improvement_beats_baseline(self, uncertain_paper_model, rng):
        probability = uncertain_paper_model.probability_scenario_beats(
            lambda p: p.with_machine_improved(10.0),
            lambda p: p,
            PAPER_TRIAL_PROFILE,
            num_samples=500,
            rng=rng,
        )
        assert probability == 1.0

    def test_invalid_sample_count(self, uncertain_paper_model):
        with pytest.raises(EstimationError):
            uncertain_paper_model.probability_scenario_beats(
                lambda p: p, lambda p: p, PAPER_TRIAL_PROFILE, num_samples=0
            )
