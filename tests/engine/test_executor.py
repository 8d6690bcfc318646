"""Executor mechanics: chunk planning, parallel fan-out, array views."""

import pytest

from repro.cadt import Cadt
from repro.engine import (
    CaseArrays,
    LESION_CODES,
    compare_systems_batch,
    evaluate_system_batch,
    plan_chunks,
)
from repro.exceptions import SimulationError
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import (
    SubtletyClassifier,
    routine_screening_population,
    trial_workload,
)
from repro.screening.workload import Workload
from repro.system import AssistedReading, UnaidedReading, compare_systems

from tests.engine.test_equivalence import failure_counts


def make_workload(n=500, seed=31):
    return trial_workload(
        routine_screening_population(seed=seed), n, cancer_fraction=0.3, name="ex"
    )


def make_system(seed=4):
    reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)
    return AssistedReading(reader, Cadt(seed=seed + 1000))


class TestPlanChunks:
    def test_covers_range_exactly(self):
        chunks = plan_chunks(10, 3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk_when_larger_than_workload(self):
        assert plan_chunks(5, 100) == [(0, 5)]

    def test_empty_range(self):
        assert plan_chunks(0, 4) == []

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(SimulationError):
            plan_chunks(10, 0)


class TestCaseArrays:
    def test_roundtrips_case_attributes(self):
        workload = make_workload(n=50)
        arrays = workload.to_arrays()
        assert isinstance(arrays, CaseArrays)
        assert len(arrays) == len(workload)
        for i, case in enumerate(workload):
            assert arrays.case_id[i] == case.case_id
            assert arrays.has_cancer[i] == case.has_cancer
            assert arrays.machine_difficulty[i] == case.machine_difficulty
            assert (
                arrays.human_detection_difficulty[i]
                == case.human_detection_difficulty
            )
        assert list(arrays.lesion_types()) == [c.lesion_type for c in workload]

    def test_lesion_codes_cover_all_types(self):
        assert len(set(LESION_CODES)) == len(LESION_CODES)
        workload = make_workload(n=200)
        arrays = workload.to_arrays()
        healthy = ~arrays.has_cancer
        assert (arrays.lesion_code[healthy] == -1).all()
        assert (arrays.lesion_code[~healthy] >= 0).all()

    def test_chunk_is_a_view(self):
        arrays = make_workload(n=20).to_arrays()
        chunk = arrays.chunk(5, 12)
        assert len(chunk) == 7
        assert chunk.case_id.base is arrays.case_id
        assert (chunk.case_id == arrays.case_id[5:12]).all()

    def test_chunk_bounds_checked(self):
        arrays = make_workload(n=20).to_arrays()
        with pytest.raises(SimulationError):
            arrays.chunk(5, 25)

    def test_mismatched_lengths_rejected(self):
        arrays = make_workload(n=4).to_arrays()
        with pytest.raises(SimulationError):
            CaseArrays(
                case_id=arrays.case_id,
                has_cancer=arrays.has_cancer[:2],
                lesion_code=arrays.lesion_code,
                breast_density=arrays.breast_density,
                subtlety=arrays.subtlety,
                machine_difficulty=arrays.machine_difficulty,
                human_detection_difficulty=arrays.human_detection_difficulty,
                human_classification_difficulty=arrays.human_classification_difficulty,
                distractor_level=arrays.distractor_level,
            )


class TestExecutorGuards:
    def test_empty_workload_rejected(self):
        with pytest.raises(SimulationError):
            evaluate_system_batch(make_system(), Workload("empty", ()))

    def test_parallel_without_seed_rejected(self):
        with pytest.raises(SimulationError, match="seed"):
            evaluate_system_batch(make_system(), make_workload(), workers=2)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SimulationError):
            evaluate_system_batch(make_system(), make_workload(), workers=0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            compare_systems_batch([make_system(1), make_system(2)], make_workload())


class TestParallelDeterminism:
    def test_worker_count_does_not_change_seeded_results(self):
        workload = make_workload()
        serial = evaluate_system_batch(
            make_system(1), workload, seed=8, chunk_size=100
        )
        parallel = evaluate_system_batch(
            make_system(2), workload, seed=8, chunk_size=100, workers=2
        )
        assert failure_counts(serial) == failure_counts(parallel)

    def test_parallel_per_class_counts_merge_correctly(self):
        workload = make_workload()
        classifier = SubtletyClassifier()
        serial = evaluate_system_batch(
            make_system(1), workload, classifier, seed=8, chunk_size=64
        )
        parallel = evaluate_system_batch(
            make_system(2), workload, classifier, seed=8, chunk_size=64, workers=2
        )
        assert failure_counts(serial) == failure_counts(parallel)
        assert sum(
            est.trials for est in parallel.per_class_false_negative.values()
        ) == parallel.false_negative.trials


class TestCompareSystemsBatch:
    def test_matches_scalar_compare_under_common_seed(self):
        workload = make_workload()
        systems_scalar = [
            UnaidedReading(
                ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="u", seed=1)
            ),
            make_system(2),
        ]
        systems_batch = [
            UnaidedReading(
                ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="u", seed=3)
            ),
            make_system(4),
        ]
        scalar = compare_systems(systems_scalar, workload, seed=13)
        batch = compare_systems_batch(systems_batch, workload, seed=13)
        assert scalar.keys() == batch.keys()
        for name in scalar:
            assert failure_counts(scalar[name]) == failure_counts(batch[name])

    def test_mixed_stateless_and_stateful_comparison(self):
        # A batch-incapable system rides the scalar fallback inside the
        # same comparison; everything still evaluates.
        from repro.reader import FatiguedReader

        workload = make_workload(n=200)
        stateless = make_system(1)
        stateful = UnaidedReading(
            FatiguedReader(
                ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="f", seed=2)
            )
        )
        results = compare_systems_batch([stateless, stateful], workload, seed=5)
        assert set(results) == {stateless.name, stateful.name}
        for evaluation in results.values():
            assert evaluation.false_negative is not None


class TestUnseededCompareOrder:
    @staticmethod
    def triple(order=("a", "drift", "b")):
        # Two batch systems and a scalar-only one (a drifting CADT), all
        # sharing one reader: unseeded, each draws from that reader's
        # private generator in turn.
        reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="shared", seed=7)
        systems = {
            "a": AssistedReading(reader, Cadt(seed=11), name="a"),
            "drift": AssistedReading(
                reader, Cadt(drift_per_case=1e-4, seed=12), name="drift"
            ),
            "b": UnaidedReading(reader, name="b"),
        }
        return [systems[name] for name in order]

    def test_scalar_fallback_runs_where_it_stands(self):
        workload = make_workload(300)
        batch = compare_systems_batch(self.triple(), workload)
        scalar = compare_systems(self.triple(), workload)
        assert list(batch) == ["a", "drift", "b"]
        assert {name: failure_counts(e) for name, e in batch.items()} == {
            name: failure_counts(e) for name, e in scalar.items()
        }
        # The order is observable: deciding b before drift changes it.
        hoisted = compare_systems(self.triple(("a", "b", "drift")), workload)
        assert failure_counts(hoisted["b"]) != failure_counts(batch["b"])
