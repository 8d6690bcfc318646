"""Scalar-vs-vectorized bit-identity for the posterior-propagation kernel.

Every consumer of :mod:`repro.engine.posterior` keeps its scalar
reference path; these tests pin the contract that for a given seed the
two paths return *bit-identical* results (``==``/``array_equal``, not
``approx``): both consume the same param-major sampled table and the
evaluation replays the same left-to-right float64 operations.
"""

import numpy as np
import pytest

from repro.analysis.sensitivity import tornado
from repro.core import (
    PAPER_FIELD_PROFILE,
    PAPER_TRIAL_PROFILE,
    BetaPosterior,
    Change,
    ExtrapolationStudy,
    ImproveMachine,
    Scenario,
    SequentialModel,
    TwoSidedModel,
    UncertainClassParameters,
    UncertainModel,
    paper_example_parameters,
    paper_improvement_scenarios,
    sweep_machine_settings,
)
from repro.exceptions import EstimationError
from repro.obs import Instrumentation, use_instrumentation


@pytest.fixture
def uncertain_paper_model():
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


class TestSampleEquivalence:
    def test_samples_bit_identical(self, uncertain_paper_model):
        vectorized = uncertain_paper_model.failure_probability_samples(
            PAPER_FIELD_PROFILE, num_samples=1000, seed=42
        )
        scalar = uncertain_paper_model.failure_probability_samples(
            PAPER_FIELD_PROFILE, num_samples=1000, seed=42, method="scalar"
        )
        assert np.array_equal(vectorized, scalar)

    def test_interval_bit_identical(self, uncertain_paper_model):
        vectorized = uncertain_paper_model.failure_probability_interval(
            PAPER_FIELD_PROFILE, num_samples=1000, seed=42
        )
        scalar = uncertain_paper_model.failure_probability_interval(
            PAPER_FIELD_PROFILE, num_samples=1000, seed=42, method="scalar"
        )
        assert vectorized.lower == scalar.lower
        assert vectorized.upper == scalar.upper
        assert vectorized.mean == scalar.mean

    def test_bad_method_rejected(self, uncertain_paper_model):
        with pytest.raises(EstimationError):
            uncertain_paper_model.failure_probability_samples(
                PAPER_FIELD_PROFILE, num_samples=10, seed=0, method="quantum"
            )


class TestScenarioBeatsEquivalence:
    def test_array_protocol_transform(self, uncertain_paper_model):
        vectorized = uncertain_paper_model.probability_scenario_beats(
            lambda p: p.with_machine_improved(10.0, ["difficult"]),
            lambda p: p.with_machine_improved(10.0, ["easy"]),
            PAPER_TRIAL_PROFILE,
            num_samples=1000,
            seed=7,
        )
        scalar = uncertain_paper_model.probability_scenario_beats(
            lambda p: p.with_machine_improved(10.0, ["difficult"]),
            lambda p: p.with_machine_improved(10.0, ["easy"]),
            PAPER_TRIAL_PROFILE,
            num_samples=1000,
            seed=7,
            method="scalar",
        )
        assert vectorized == scalar

    def test_scalar_only_transform_falls_back(self, uncertain_paper_model):
        """A transform speaking only the ModelParameters protocol falls back

        to the per-row loop over the same table — same seed, same answer."""

        def opaque(parameters):
            # touches ModelParameters-only API, so it cannot run on a table
            return parameters.with_class("easy", parameters["easy"])

        via_fallback = uncertain_paper_model.probability_scenario_beats(
            opaque,
            lambda p: p.with_machine_improved(10.0),
            PAPER_TRIAL_PROFILE,
            num_samples=400,
            seed=11,
        )
        scalar = uncertain_paper_model.probability_scenario_beats(
            opaque,
            lambda p: p.with_machine_improved(10.0),
            PAPER_TRIAL_PROFILE,
            num_samples=400,
            seed=11,
            method="scalar",
        )
        assert via_fallback == scalar
        assert via_fallback == 0.0  # an improvement always beats the baseline


class TestTornadoEquivalence:
    def test_bars_bit_identical(self):
        model = SequentialModel(paper_example_parameters())
        vectorized = tornado(model, PAPER_FIELD_PROFILE, relative_change=0.25)
        scalar = tornado(
            model, PAPER_FIELD_PROFILE, relative_change=0.25, method="scalar"
        )
        assert len(vectorized) == len(scalar) == 6
        for a, b in zip(vectorized, scalar):
            assert (a.case_class, a.parameter) == (b.case_class, b.parameter)
            assert a.low == b.low
            assert a.high == b.high
            assert a.baseline == b.baseline

    def test_clipping_perturbations_stay_identical(self):
        # A 500% swing clips at 1.0; both paths must clip identically.
        model = SequentialModel(paper_example_parameters())
        vectorized = tornado(model, PAPER_TRIAL_PROFILE, relative_change=5.0)
        scalar = tornado(model, PAPER_TRIAL_PROFILE, relative_change=5.0, method="scalar")
        for a, b in zip(vectorized, scalar):
            assert (a.low, a.high) == (b.low, b.high)


class TestExtrapolationEquivalence:
    def test_baseline_cell_matches_direct_interval(self, uncertain_paper_model):
        study = ExtrapolationStudy(
            paper_example_parameters(),
            {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE},
            paper_improvement_scenarios(),
        )
        intervals = study.credible_intervals(uncertain_paper_model, num_draws=800, seed=3)
        assert set(intervals) == {
            (s, p)
            for s in ("baseline", "improve_easy", "improve_difficult")
            for p in ("trial", "field")
        }
        direct = uncertain_paper_model.failure_probability_interval(
            PAPER_FIELD_PROFILE, num_samples=800, seed=3
        )
        cell = intervals[("baseline", "field")]
        assert (cell.lower, cell.upper, cell.mean) == (
            direct.lower,
            direct.upper,
            direct.mean,
        )

    def test_custom_change_fallback_matches_array_path(self, uncertain_paper_model):
        class OpaqueImprove(Change):
            """Same effect as ImproveMachine(2.0) but scalar-only."""

            def apply(self, parameters, profile):
                return parameters.with_machine_improved(2.0), profile

        profiles = {"field": PAPER_FIELD_PROFILE}
        obs = Instrumentation()
        with use_instrumentation(obs):
            fallback = ExtrapolationStudy(
                paper_example_parameters(),
                profiles,
                [Scenario("change", (OpaqueImprove(),))],
            ).credible_intervals(uncertain_paper_model, num_draws=300, seed=9)
        # Only the opaque scenario's cell degrades; the baseline's takes
        # the array path.
        assert obs.metrics.counter("study.degraded.scalar_cell").value == 1
        array = ExtrapolationStudy(
            paper_example_parameters(),
            profiles,
            [Scenario("change", (ImproveMachine(2.0),))],
        ).credible_intervals(uncertain_paper_model, num_draws=300, seed=9)
        a, b = fallback[("change", "field")], array[("change", "field")]
        assert (a.lower, a.upper, a.mean) == (b.lower, b.upper, b.mean)

    def test_bad_level_rejected(self, uncertain_paper_model):
        study = ExtrapolationStudy(
            paper_example_parameters(), {"field": PAPER_FIELD_PROFILE}
        )
        with pytest.raises(EstimationError):
            study.credible_intervals(uncertain_paper_model, level=1.0, num_draws=10)


class TestTradeoffSweepEquivalence:
    def test_sweep_bit_identical(self):
        parameters = paper_example_parameters()
        model = TwoSidedModel(
            SequentialModel(parameters),
            SequentialModel(parameters.with_machine_improved(2.0)),
            PAPER_TRIAL_PROFILE,
            PAPER_FIELD_PROFILE,
        )
        settings = {
            "lenient": (0.5, 2.0),
            "baseline": (1.0, 1.0),
            "strict": (2.0, 0.5),
        }
        vectorized = sweep_machine_settings(model, settings)
        scalar = sweep_machine_settings(model, settings, method="scalar")
        assert [p.label for p in vectorized] == list(settings)
        for a, b in zip(vectorized, scalar):
            assert a.label == b.label
            assert a.p_false_negative == b.p_false_negative
            assert a.p_false_positive == b.p_false_positive
