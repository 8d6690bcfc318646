"""Streaming estimators and sequential alarms (repro.analysis.streaming).

The two acceptance-critical properties live here:

1. *Batch identity*: feeding every record of a set through a
   :class:`StreamingEstimator` and reading the report once reproduces
   ``monitor_records``'s statistics and p-values as identical floats.
2. *Merge invariance*: any partition of a record stream into shards,
   merged in any order, yields exactly the same state as single-stream
   ingestion (the state is pure integer counts).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ClassCell,
    CusumAlarm,
    SprtAlarm,
    StreamingEstimator,
    StreamMonitor,
    WelfordAccumulator,
    monitor_records,
)
from repro.analysis.streaming import ESTIMATOR_STATE_SCHEMA
from repro.core import CaseClass, ClassParameters, DemandProfile, ModelParameters
from repro.exceptions import EstimationError
from repro.obs import Instrumentation
from repro.trial import CaseRecord, TrialRecords

from .test_monitoring import (
    REFERENCE_PARAMETERS,
    REFERENCE_PROFILE,
    sample_field_records,
)


def record(
    case_id=0,
    name="easy",
    cancer=True,
    aided=True,
    machine_failed=False,
    recalled=True,
    prompts=0,
):
    return CaseRecord(
        case_id=case_id,
        reader_name="field",
        case_class=CaseClass(name),
        has_cancer=cancer,
        aided=aided,
        machine_failed=machine_failed if aided else None,
        machine_false_prompts=prompts if aided else None,
        recalled=recalled,
    )


class TestBatchIdentity:
    """Feeding the stream reproduces the batch path exactly."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_cases", [1, 7, 500, 3000])
    def test_streaming_report_equals_monitor_records(self, seed, num_cases):
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, num_cases, seed=seed
        )
        batch = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        stream = StreamingEstimator()
        stream.ingest_many(records)
        streamed = stream.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert len(batch.tests) == len(streamed.tests)
        for expected, got in zip(batch.tests, streamed.tests):
            # Bitwise identity, not approx: same integers into the same
            # test functions.
            assert got.name == expected.name
            assert got.statistic == expected.statistic
            assert got.p_value == expected.p_value
            assert got.observed == expected.observed
            assert got.reference == expected.reference
            assert got.sample_size == expected.sample_size
        assert streamed.alpha == batch.alpha
        assert streamed.per_test_alpha == batch.per_test_alpha

    def test_incremental_ingest_matches_one_shot(self):
        records = list(
            sample_field_records(REFERENCE_PARAMETERS, REFERENCE_PROFILE, 900, seed=5)
        )
        one_shot = StreamingEstimator()
        one_shot.ingest_many(records)
        dribble = StreamingEstimator()
        for r in records:
            dribble.ingest(r)
        assert dribble.state() == one_shot.state()

    def test_mixed_stream_filters_like_the_batch_path(self):
        """Unaided and healthy records are seen but not used."""
        used = [record(case_id=i, machine_failed=i % 3 == 0) for i in range(9)]
        noise = [
            record(case_id=100, cancer=False),
            record(case_id=101, aided=False),
            record(case_id=102, cancer=False, aided=False),
        ]
        stream = StreamingEstimator()
        stream.ingest_many(used + noise)
        assert stream.records_seen == 12
        assert stream.records_used == 9
        batch = monitor_records(
            TrialRecords(used + noise), REFERENCE_PARAMETERS, REFERENCE_PROFILE
        )
        streamed = stream.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        assert [t.p_value for t in streamed.tests] == [t.p_value for t in batch.tests]

    def test_error_parity_with_batch(self):
        empty = StreamingEstimator()
        with pytest.raises(EstimationError, match="no aided cancer records"):
            empty.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        stream = StreamingEstimator()
        stream.ingest(record(name="novel"))
        with pytest.raises(EstimationError, match="novel"):
            stream.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        stream2 = StreamingEstimator()
        stream2.ingest(record())
        with pytest.raises(EstimationError, match="alpha"):
            stream2.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE, alpha=1.5)

    def test_rejects_non_records(self):
        with pytest.raises(EstimationError, match="CaseRecord"):
            StreamingEstimator().ingest("not a record")


def _partition(records, boundaries):
    shards, start = [], 0
    for boundary in boundaries:
        shards.append(records[start:boundary])
        start = boundary
    shards.append(records[start:])
    return [shard for shard in shards if shard]


class TestMergeInvariance:
    """merge() is exactly associative/commutative over any partition."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_records=st.integers(min_value=0, max_value=200),
        cut_seed=st.integers(min_value=0, max_value=2**16),
        num_cuts=st.integers(min_value=0, max_value=8),
    )
    def test_any_partition_any_merge_order(
        self, seed, num_records, cut_seed, num_cuts
    ):
        records = list(
            sample_field_records(
                REFERENCE_PARAMETERS, REFERENCE_PROFILE, num_records, seed=seed
            )
        )
        single = StreamingEstimator()
        single.ingest_many(records)
        rng = np.random.default_rng(cut_seed)
        boundaries = sorted(
            int(b) for b in rng.integers(0, len(records) + 1, size=num_cuts)
        )
        shards = _partition(records, boundaries)
        states = []
        for shard in shards:
            estimator = StreamingEstimator()
            estimator.ingest_many(shard)
            states.append(estimator)
        order = rng.permutation(len(states)) if states else []
        merged = StreamingEstimator()
        for index in order:
            merged.merge(states[int(index)])
        assert merged.state() == single.state()

    def test_merge_through_serialised_state_round_trip(self):
        records = list(
            sample_field_records(REFERENCE_PARAMETERS, REFERENCE_PROFILE, 300, seed=6)
        )
        left, right = records[:137], records[137:]
        a, b = StreamingEstimator(), StreamingEstimator()
        a.ingest_many(left)
        b.ingest_many(right)
        merged = StreamingEstimator.from_state(a.state()).merge(
            StreamingEstimator.from_state(b.state())
        )
        single = StreamingEstimator()
        single.ingest_many(records)
        assert merged.state() == single.state()
        # And the reports built from the merged state are batch-identical.
        merged_report = merged.report(REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        batch = monitor_records(
            TrialRecords(records), REFERENCE_PARAMETERS, REFERENCE_PROFILE
        )
        assert [t.p_value for t in merged_report.tests] == [
            t.p_value for t in batch.tests
        ]

    def test_merge_rejects_foreign_objects(self):
        with pytest.raises(EstimationError, match="merge"):
            StreamingEstimator().merge({"records_used": 1})


class TestEstimatorState:
    def test_state_schema_and_validation(self):
        stream = StreamingEstimator()
        stream.ingest(record(machine_failed=True, recalled=False))
        state = stream.state()
        assert state["schema"] == ESTIMATOR_STATE_SCHEMA
        rebuilt = StreamingEstimator.from_state(state)
        assert rebuilt.state() == state

    def test_from_state_rejects_bad_payloads(self):
        with pytest.raises(EstimationError, match="schema"):
            StreamingEstimator.from_state({"schema": 99})
        with pytest.raises(EstimationError, match="mapping"):
            StreamingEstimator.from_state("nope")
        bad_counts = {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "records_seen": 1,
            "records_used": 1,
            "cells": {
                "easy": {
                    "records": 1,
                    "machine_failures": 2,
                    "human_failures_given_mf": 0,
                    "human_failures_given_ms": 0,
                }
            },
        }
        with pytest.raises(EstimationError, match="machine_failures"):
            StreamingEstimator.from_state(bad_counts)
        mismatch = {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "records_seen": 5,
            "records_used": 3,
            "cells": {},
        }
        with pytest.raises(EstimationError, match="records_used"):
            StreamingEstimator.from_state(mismatch)

    def test_estimates_and_gating(self):
        stream = StreamingEstimator()
        # 4 easy records: 1 machine failure (reader failed), 3 successes
        # (one reader failure).
        stream.ingest(record(case_id=0, machine_failed=True, recalled=False))
        stream.ingest(record(case_id=1, recalled=False))
        stream.ingest(record(case_id=2))
        stream.ingest(record(case_id=3))
        estimate = stream.estimates()["easy"]
        assert estimate.p_machine_failure == pytest.approx(0.25)
        assert estimate.p_human_failure_given_machine_failure == pytest.approx(1.0)
        assert estimate.p_human_failure_given_machine_success == pytest.approx(1 / 3)
        assert estimate.importance_index == pytest.approx(1.0 - 1 / 3)
        # A class with no machine failures yet has no PHf|Mf estimate.
        other = StreamingEstimator()
        other.ingest(record(name="difficult"))
        est = other.estimates()["difficult"]
        assert est.p_human_failure_given_machine_failure is None
        assert est.importance_index is None

    def test_covariance_decomposition_matches_model(self):
        """On a fully-observed stream the empirical decomposition equals the
        SequentialModel's, evaluated at the empirical parameters/profile."""
        from repro.core import SequentialModel

        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 4000, seed=7
        )
        stream = StreamingEstimator()
        stream.ingest_many(records)
        decomposition = stream.covariance_decomposition()
        assert decomposition is not None
        estimates = stream.estimates()
        empirical_parameters = ModelParameters(
            {
                name: ClassParameters(
                    e.p_machine_failure,
                    e.p_human_failure_given_machine_failure,
                    e.p_human_failure_given_machine_success,
                )
                for name, e in estimates.items()
            }
        )
        counts = stream.class_counts()
        total = sum(counts.values())
        empirical_profile = DemandProfile(
            {name: count / total for name, count in counts.items()}
        )
        model = SequentialModel(empirical_parameters)
        expected = model.covariance_decomposition(empirical_profile)
        assert decomposition.covariance == pytest.approx(expected.covariance)
        assert decomposition.total == pytest.approx(expected.total)

    def test_covariance_gated_until_estimable(self):
        stream = StreamingEstimator()
        assert stream.covariance_decomposition() is None
        stream.ingest(record())  # machine success only: no PHf|Mf yet
        assert stream.covariance_decomposition() is None
        stream.ingest(record(case_id=1, machine_failed=True))
        assert stream.covariance_decomposition() is not None


class TestWelfordAccumulator:
    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        values = rng.normal(3.0, 2.0, size=500)
        acc = WelfordAccumulator()
        for v in values:
            acc.add(v)
        assert acc.count == 500
        assert acc.mean == pytest.approx(float(np.mean(values)))
        assert acc.variance == pytest.approx(float(np.var(values, ddof=1)))
        assert acc.std == pytest.approx(float(np.std(values, ddof=1)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        size=st.integers(min_value=0, max_value=100),
        cut=st.integers(min_value=0, max_value=100),
    )
    def test_merge_is_order_insensitive_to_rounding(self, seed, size, cut):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, size=size)
        cut = min(cut, size)
        single = WelfordAccumulator()
        for v in values:
            single.add(v)
        a, b = WelfordAccumulator(), WelfordAccumulator()
        for v in values[:cut]:
            a.add(v)
        for v in values[cut:]:
            b.add(v)
        merged = b.merge(a)  # reversed order on purpose
        assert merged.count == single.count
        assert merged.mean == pytest.approx(single.mean, rel=1e-9, abs=1e-12)
        assert merged.variance == pytest.approx(single.variance, rel=1e-9, abs=1e-12)

    def test_empty_and_single(self):
        acc = WelfordAccumulator()
        assert acc.mean == 0.0 and acc.variance == 0.0
        acc.add(4.0)
        assert acc.mean == 4.0 and acc.variance == 0.0
        assert acc.state() == {"count": 1, "mean": 4.0, "variance": 0.0}


class TestCusumAlarm:
    def test_sustained_shift_fires_and_latches(self):
        alarm = CusumAlarm("x", threshold=5.0, drift=0.5)
        # z = 1.5 grows S+ by 1.0 per step: fires exactly at step 5,
        # restarts, and accumulates again.
        fired_at = [step for step in range(1, 7) if alarm.update(1.5)]
        assert fired_at == [5]
        assert alarm.tripped
        assert alarm.fires == 1
        assert alarm.positive == pytest.approx(1.0)  # restarted after firing

    def test_in_control_stream_fires_rarely(self):
        """h=5, k=0.5 has a one-sided in-control ARL around 465; a short
        standard-normal stream should fire at most about once."""
        rng = np.random.default_rng(13)
        alarm = CusumAlarm("x", threshold=5.0, drift=0.5)
        fired = sum(alarm.update(z) for z in rng.normal(0.0, 1.0, size=200))
        assert fired <= 1

    def test_negative_shift_fires_the_other_side(self):
        alarm = CusumAlarm("x", threshold=4.0, drift=0.5)
        for _ in range(10):
            alarm.update(-1.2)
        assert alarm.tripped

    def test_infinite_statistic_trips_immediately(self):
        alarm = CusumAlarm("x", threshold=5.0, drift=0.5)
        assert alarm.update(float("inf"))

    def test_reset_clears_latch_but_keeps_fires(self):
        alarm = CusumAlarm("x", threshold=1.0, drift=0.0)
        alarm.update(2.0)
        assert alarm.tripped and alarm.fires == 1
        alarm.reset()
        assert not alarm.tripped and alarm.fires == 1

    def test_validation_and_state(self):
        with pytest.raises(EstimationError, match="threshold"):
            CusumAlarm("x", threshold=0.0)
        with pytest.raises(EstimationError, match="drift"):
            CusumAlarm("x", drift=-1.0)
        state = CusumAlarm("easy/PMf").state()
        assert state["kind"] == "cusum"
        assert state["name"] == "easy/PMf"


class TestSprtAlarm:
    def test_doubled_rate_crosses_upper_boundary(self):
        alarm = SprtAlarm("x", p0=0.07, p1=0.14, alpha=0.01, beta=0.10)
        rng = np.random.default_rng(17)
        fired = False
        for _ in range(200):
            window = rng.random(64) < 0.14
            if alarm.update(int(window.sum()), 64):
                fired = True
                break
        assert fired and alarm.tripped

    def test_on_target_rate_keeps_accepting_null(self):
        alarm = SprtAlarm("x", p0=0.07, p1=0.14, alpha=0.01, beta=0.10)
        rng = np.random.default_rng(19)
        fired = 0
        for _ in range(200):
            window = rng.random(64) < 0.07
            fired += alarm.update(int(window.sum()), 64)
        assert fired == 0
        assert not alarm.tripped

    def test_validation(self):
        with pytest.raises(EstimationError, match="rates"):
            SprtAlarm("x", p0=0.0, p1=0.5)
        with pytest.raises(EstimationError, match="p1 != p0"):
            SprtAlarm("x", p0=0.2, p1=0.2)
        with pytest.raises(EstimationError, match="error rates"):
            SprtAlarm("x", p0=0.1, p1=0.2, alpha=2.0)
        alarm = SprtAlarm("x", p0=0.1, p1=0.2)
        with pytest.raises(EstimationError, match="window"):
            alarm.update(5, 3)
        assert alarm.update(0, 0) is False

    def test_state_payload(self):
        state = SprtAlarm("easy/PMf", p0=0.07, p1=0.14).state()
        assert state["kind"] == "sprt"
        assert state["upper"] > 0 > state["lower"]


class TestStreamMonitor:
    def make_monitor(self, **kwargs):
        kwargs.setdefault("check_every", 100)
        return StreamMonitor(REFERENCE_PARAMETERS, REFERENCE_PROFILE, **kwargs)

    def test_stable_stream_raises_no_alarms(self):
        monitor = self.make_monitor()
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 5000, seed=21
        )
        used = monitor.ingest(records)
        assert used == 5000
        assert monitor.checkpoints == 50
        assert monitor.tripped_alarms == 0
        assert monitor.fired_alarms == 0

    def test_machine_drift_fires_the_pmf_alarms(self):
        drifted = REFERENCE_PARAMETERS.with_class(
            "easy", ClassParameters(0.28, 0.18, 0.14)
        )
        monitor = self.make_monitor()
        records = sample_field_records(drifted, REFERENCE_PROFILE, 6000, seed=23)
        monitor.ingest(records)
        assert monitor.tripped_alarms > 0
        snapshot = monitor.snapshot()
        tripped = [
            key
            for key, state in {
                **snapshot["alarms"]["cusum"],
                **{f"sprt:{k}": v for k, v in snapshot["alarms"]["sprt"].items()},
            }.items()
            if state["tripped"]
        ]
        assert any("easy/PMf" in key for key in tripped)

    def test_alarm_state_published_to_obs(self):
        obs = Instrumentation("monitor-test")
        drifted = REFERENCE_PARAMETERS.with_class(
            "easy", ClassParameters(0.30, 0.18, 0.14)
        )
        monitor = self.make_monitor(obs=obs)
        monitor.ingest(sample_field_records(drifted, REFERENCE_PROFILE, 4000, seed=25))
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["monitor.checkpoints"] == monitor.checkpoints
        assert snapshot["counters"]["monitor.alarms.fired"] >= 1
        assert snapshot["gauges"]["monitor.records_used"] == 4000.0
        assert snapshot["gauges"]["monitor.alarms.tripped"] >= 1.0
        timeline_names = {event["name"] for event in snapshot["timeline"]}
        assert "monitor.checkpoint" in timeline_names
        assert any(name.startswith("monitor.alarm.") for name in timeline_names)

    def test_checkpoint_windows_are_disjoint(self):
        """Two equal halves ingested separately see their own windows: the
        second checkpoint's CUSUM input covers only the new records."""
        monitor = self.make_monitor(check_every=50)
        records = list(
            sample_field_records(REFERENCE_PARAMETERS, REFERENCE_PROFILE, 100, seed=27)
        )
        monitor.ingest(records[:50])
        first_cells = {
            name: monitor.estimator.cell(name).records
            for name in monitor.estimator.class_names
        }
        monitor.ingest(records[50:])
        assert monitor.checkpoints == 2
        assert sum(first_cells.values()) == 50
        assert monitor.estimator.records_used == 100

    def test_unknown_class_is_counted_not_fatal(self):
        obs = Instrumentation("unknown")
        monitor = self.make_monitor(check_every=1, obs=obs)
        monitor.ingest([record(name="novel")])
        assert monitor.snapshot()["unknown_classes"] == ["novel"]
        assert obs.metrics.snapshot()["counters"]["monitor.unknown_class"] == 1.0

    def test_merge_estimator_state_folds_shards(self):
        records = list(
            sample_field_records(REFERENCE_PARAMETERS, REFERENCE_PROFILE, 400, seed=29)
        )
        shard = StreamingEstimator()
        shard.ingest_many(records[200:])
        monitor = self.make_monitor()
        monitor.ingest(records[:200])
        monitor.merge_estimator_state(shard.state())
        single = StreamingEstimator()
        single.ingest_many(records)
        assert monitor.estimator.state() == single.state()
        assert monitor.checkpoints >= 2

    def test_report_is_batch_identical(self):
        records = sample_field_records(
            REFERENCE_PARAMETERS, REFERENCE_PROFILE, 1200, seed=31
        )
        monitor = self.make_monitor()
        monitor.ingest(records)
        batch = monitor_records(records, REFERENCE_PARAMETERS, REFERENCE_PROFILE)
        live = monitor.report()
        assert [t.p_value for t in live.tests] == [t.p_value for t in batch.tests]

    def test_snapshot_shape(self):
        monitor = self.make_monitor()
        monitor.ingest(
            sample_field_records(REFERENCE_PARAMETERS, REFERENCE_PROFILE, 300, seed=33)
        )
        snapshot = monitor.snapshot()
        assert snapshot["schema"] == 1
        assert snapshot["records"] == {"seen": 300, "used": 300}
        assert set(snapshot["alarms"]) == {"tripped", "fired", "cusum", "sprt"}
        assert snapshot["covariance"] is None or "covariance" in snapshot["covariance"]
        assert snapshot["false_prompts"]["count"] == 300

    def test_reset_alarms(self):
        drifted = REFERENCE_PARAMETERS.with_class(
            "easy", ClassParameters(0.30, 0.18, 0.14)
        )
        monitor = self.make_monitor()
        monitor.ingest(sample_field_records(drifted, REFERENCE_PROFILE, 4000, seed=35))
        assert monitor.tripped_alarms > 0
        monitor.reset_alarms()
        assert monitor.tripped_alarms == 0
        assert monitor.fired_alarms > 0  # history preserved

    def test_validation(self):
        with pytest.raises(EstimationError, match="ModelParameters"):
            StreamMonitor("nope", REFERENCE_PROFILE)
        with pytest.raises(EstimationError, match="DemandProfile"):
            StreamMonitor(REFERENCE_PARAMETERS, "nope")
        with pytest.raises(EstimationError, match="alpha"):
            self.make_monitor(alpha=0.0)
        with pytest.raises(EstimationError, match="check_every"):
            self.make_monitor(check_every=0)


class TestClassCell:
    def test_add_and_minus(self):
        cell = ClassCell()
        cell.add(record(machine_failed=True, recalled=False))
        cell.add(record(case_id=1, recalled=False))
        cell.add(record(case_id=2))
        assert cell.records == 3
        assert cell.machine_failures == 1
        assert cell.human_failures_given_mf == 1
        assert cell.human_failures_given_ms == 1
        assert cell.machine_successes == 2
        earlier = ClassCell(records=1, machine_failures=1, human_failures_given_mf=1)
        window = cell.minus(earlier)
        assert window.records == 2
        assert window.machine_failures == 0
        assert window.human_failures_given_ms == 1

    def test_validate_catches_inconsistencies(self):
        with pytest.raises(EstimationError, match="negative"):
            ClassCell(records=-1).validate("x")
        with pytest.raises(EstimationError, match="Ms trials"):
            ClassCell(records=2, machine_failures=1, human_failures_given_ms=2).validate(
                "x"
            )
