"""Tests for repro.analysis.monitoring (drift detection)."""

import numpy as np
import pytest

from repro.analysis import (
    monitor_records,
    profile_drift_test,
    rate_drift_test,
)
from repro.analysis.monitoring import _chi2_survival
from repro.core import (
    CaseClass,
    ClassParameters,
    DemandProfile,
    ModelParameters,
)
from repro.exceptions import EstimationError
from repro.trial import CaseRecord, TrialRecords

REFERENCE_PARAMETERS = ModelParameters(
    {
        "easy": ClassParameters(0.07, 0.18, 0.14),
        "difficult": ClassParameters(0.41, 0.90, 0.40),
    }
)
REFERENCE_PROFILE = DemandProfile({"easy": 0.8, "difficult": 0.2})


def sample_field_records(
    parameters: ModelParameters,
    profile: DemandProfile,
    num_cases: int,
    seed: int,
) -> TrialRecords:
    rng = np.random.default_rng(seed)
    records = TrialRecords()
    names = [cls.name for cls in profile.classes]
    weights = [profile[n] for n in names]
    for case_id in range(num_cases):
        name = names[int(rng.choice(len(names), p=weights))]
        params = parameters[name]
        machine_failed = bool(rng.random() < params.p_machine_failure)
        p_fail = (
            params.p_human_failure_given_machine_failure
            if machine_failed
            else params.p_human_failure_given_machine_success
        )
        records.append(
            CaseRecord(
                case_id=case_id,
                reader_name="field",
                case_class=CaseClass(name),
                has_cancer=True,
                aided=True,
                machine_failed=machine_failed,
                machine_false_prompts=0,
                recalled=not bool(rng.random() < p_fail),
            )
        )
    return records


class TestChi2SurvivalFallback:
    """``_chi2_survival``, the monitors' one chi-square path (the exact
    integer-dof series; scipy is never imported for it).

    Precomputed scipy 1.17 reference values pin the series even when
    scipy is absent from the environment; when it is present we also
    compare directly.  The old Wilson-Hilferty approximation failed these
    at the tails (tens of percent relative error for small p-values).
    """

    # (statistic, dof) -> scipy.stats.chi2.sf(statistic, dof)
    SCIPY_REFERENCE = {
        (0.5, 1): 4.795001221869534e-01,
        (2.3, 1): 1.293739988362981e-01,
        (5.0, 2): 8.208499862389880e-02,
        (1.2, 3): 7.530043116564580e-01,
        (10.0, 4): 4.042768199451279e-02,
        (3.3, 5): 6.538416823944545e-01,
        (25.0, 7): 7.588002556582502e-04,
        (60.0, 10): 3.624300952061492e-09,
        (4.2, 12): 9.795509199103667e-01,
        (100.0, 3): 1.554159431389603e-21,
    }

    def test_fallback_matches_scipy_reference_values(self):
        for (statistic, dof), expected in self.SCIPY_REFERENCE.items():
            got = _chi2_survival(statistic, dof)
            assert got == pytest.approx(expected, rel=1e-12), (statistic, dof)

    def test_fallback_matches_live_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for statistic in (0.01, 0.7, 3.9, 17.3, 42.0):
            for dof in range(1, 15):
                expected = float(scipy_stats.chi2.sf(statistic, dof))
                got = _chi2_survival(statistic, dof)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-300), (
                    statistic,
                    dof,
                )

    def test_far_tail_does_not_explode(self):
        # Deep underflow territory: must stay a probability, not a NaN.
        value = _chi2_survival(3000.0, 4)
        assert 0.0 <= value <= 1e-300

    def test_boundaries(self):
        assert _chi2_survival(0.0, 3) == 1.0
        assert _chi2_survival(-1.0, 3) == 1.0
        with pytest.raises(EstimationError, match="dof"):
            _chi2_survival(1.0, 0)

    def test_monitoring_verdicts_agree_with_and_without_scipy(self):
        """End-to-end: every p-value of a drift report equals scipy's own
        tail probability of its statistic (chi-square for the profile,
        two-sided normal for the rates)."""
        scipy_stats = pytest.importorskip("scipy.stats")
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 2000, seed=9
        )
        report = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        dof = len(REFERENCE_PROFILE.classes) - 1
        assert report.tests[0].name == "profile"
        for test in report.tests:
            if test.name == "profile":
                expected = float(scipy_stats.chi2.sf(test.statistic, dof))
            else:
                expected = min(1.0, 2.0 * float(scipy_stats.norm.sf(abs(test.statistic))))
            assert test.p_value == pytest.approx(expected, rel=1e-10, abs=1e-300), test.name


class TestProfileDriftTest:
    def test_matching_mix_not_flagged(self):
        result = profile_drift_test({"easy": 800, "difficult": 200}, REFERENCE_PROFILE)
        assert result.p_value > 0.5
        assert not result.drifted()

    def test_shifted_mix_flagged(self):
        result = profile_drift_test({"easy": 500, "difficult": 500}, REFERENCE_PROFILE)
        assert result.p_value < 1e-6
        assert result.drifted()

    def test_small_sample_insensitive(self):
        """A handful of cases cannot trigger the alarm even when skewed."""
        result = profile_drift_test({"easy": 3, "difficult": 3}, REFERENCE_PROFILE)
        assert not result.drifted(alpha=0.001)

    def test_unexplained_class_rejected(self):
        with pytest.raises(EstimationError):
            profile_drift_test({"martian": 10}, REFERENCE_PROFILE)

    def test_empty_counts_rejected(self):
        with pytest.raises(EstimationError):
            profile_drift_test({}, REFERENCE_PROFILE)


class TestRateDriftTest:
    def test_on_target_rate(self):
        result = rate_drift_test("x", 70, 1000, 0.07)
        assert abs(result.statistic) < 0.1
        assert not result.drifted()

    def test_doubled_rate_flagged(self):
        result = rate_drift_test("x", 140, 1000, 0.07)
        assert result.drifted(alpha=0.001)
        assert result.observed == pytest.approx(0.14)

    def test_two_sided(self):
        high = rate_drift_test("x", 140, 1000, 0.07)
        low = rate_drift_test("x", 10, 1000, 0.07)
        assert high.statistic > 0 > low.statistic
        assert high.drifted(0.001) and low.drifted(0.001)

    def test_validation(self):
        with pytest.raises(EstimationError):
            rate_drift_test("x", 1, 0, 0.1)
        with pytest.raises(EstimationError):
            rate_drift_test("x", 5, 3, 0.1)
        with pytest.raises(EstimationError):
            rate_drift_test("x", 1, 10, 1.5)


class TestMonitorRecords:
    def test_stable_field_raises_no_alarm(self):
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 5000, seed=1
        )
        report = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert not report.any_drift

    def test_machine_degradation_detected_in_the_right_cell(self):
        """A silently drifted machine (PMf tripled on the easy class) must
        fire the easy/PMf monitor specifically."""
        drifted = REFERENCE_PARAMETERS.with_class(
            "easy", ClassParameters(0.21, 0.18, 0.14)
        )
        records = sample_field_records(drifted, REFERENCE_PROFILE, 5000, seed=2)
        report = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert report.any_drift
        assert report.drifted_tests[0].name == "easy/PMf"

    def test_reader_complacency_detected(self):
        """Reader drift (PHf|Ms up by half) fires the conditional cell."""
        drifted = REFERENCE_PARAMETERS.with_class(
            "easy", ClassParameters(0.07, 0.18, 0.21)
        )
        records = sample_field_records(drifted, REFERENCE_PROFILE, 8000, seed=3)
        report = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert report.any_drift
        assert any(t.name == "easy/PHf|Ms" for t in report.drifted_tests)

    def test_profile_shift_detected(self):
        shifted_profile = DemandProfile({"easy": 0.6, "difficult": 0.4})
        records = sample_field_records(
            REFERENCE_PARAMETERS, shifted_profile, 3000, seed=4
        )
        report = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert report.any_drift
        assert any(t.name == "profile" for t in report.drifted_tests)

    def test_bonferroni_adjustment(self):
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 1000, seed=5
        )
        report = monitor_records(
            records, REFERENCE_PARAMETERS, REFERENCE_PROFILE, alpha=0.05
        )
        assert report.per_test_alpha == pytest.approx(0.05 / len(report.tests))

    def test_unknown_class_rejected(self):
        records = TrialRecords(
            [
                CaseRecord(1, "r", CaseClass("novel"), True, True, False, 0, True),
            ]
        )
        with pytest.raises(EstimationError):
            monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)

    def test_no_records_rejected(self):
        with pytest.raises(EstimationError):
            monitor_records(TrialRecords(), REFERENCE_PARAMETERS, REFERENCE_PROFILE)

    def test_false_alarm_rate_respected(self):
        """Over repeated stable batches, the family-wise alarm rate stays
        near (below) the configured alpha."""
        alarms = 0
        replications = 40
        for seed in range(replications):
            records = sample_field_records(
                REFERENCE_PARAMETERS, REFERENCE_PROFILE, 1500, seed=100 + seed
            )
            report = monitor_records(
                records, REFERENCE_PARAMETERS, REFERENCE_PROFILE, alpha=0.05
            )
            alarms += int(report.any_drift)
        assert alarms / replications <= 0.15
