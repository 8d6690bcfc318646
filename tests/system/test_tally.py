"""The one count type: :class:`FailureTally` is the kernel's count row.

The scalar loop (:meth:`FailureTally.record`), ``record_batch`` and the
fused kernel (:func:`~repro.engine.fused.run_fused_batch`) all fill one
int64 row in one layout, and every path — the scalar loop, the executor,
``EngineRuntime.compare``, a service request and a sweep cell — reaches
its :class:`~repro.system.simulate.SystemEvaluation` through
:meth:`FailureTally.to_evaluation`: the per-class rates are keyed by the
classifier's own classes, in its order, without the classes that had no
cancer trial.
"""

import asyncio

import numpy as np
import pytest

from repro.cadt import Cadt
from repro.core.case_class import DIFFICULT, EASY, CaseClass
from repro.engine import compare_systems_batch, evaluate_system_batch
from repro.engine.executor import cancer_class_codes
from repro.engine.fused import build_fused_item, run_fused_batch
from repro.exceptions import SimulationError
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import (
    LesionTypeClassifier,
    SubtletyClassifier,
    routine_screening_population,
    trial_workload,
)
from repro.service import ScreeningService, ServiceConfig
from repro.sweep import ScenarioGrid, run_sweep
from repro.sweep.grid import SystemSpec, WorkloadSpec
from repro.system import AssistedReading, FailureTally, compare_systems, evaluate_system
from repro.system.simulate import ROW_COLUMNS

SEED = 11
NUM_CASES = 600


def make_workload():
    # Population seed 1 puts a difficult cancer first, so the scalar
    # loop meets the classifier's classes out of order.
    return trial_workload(
        routine_screening_population(seed=1), NUM_CASES, cancer_fraction=0.4, name="tally"
    )


def make_system(seed=4):
    reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)
    return AssistedReading(reader, Cadt(seed=seed + 1000))


def kernel_row(workload, classifier, system, seed):
    """One seeded item's row from a single-chunk fused dispatch."""
    arrays = workload.to_arrays()
    positions = arrays.cancer_index
    codes = cancer_class_codes(workload, classifier, arrays, positions)
    items = (build_fused_item(0, system, seed),)
    task = (arrays, len(arrays), positions, codes, len(classifier.classes), items, None, False)
    (row,) = run_fused_batch(task).rows
    return row


class UndeclaredClassifier:
    """A per-case classifier (no ``classify_batch``) that puts every
    cancer in a class it does not declare."""

    def classify(self, case):
        return CaseClass("mystery")

    @property
    def classes(self):
        return (CaseClass("all"),)


class TestOneRow:
    def test_record_record_batch_and_the_kernel_fill_the_same_row(self):
        workload, classifier = make_workload(), SubtletyClassifier()
        arrays = workload.to_arrays()
        row = kernel_row(workload, classifier, make_system(), SEED)
        # A seeded single-chunk item decides with default_rng(seed).
        decisions = make_system().decide_batch(arrays, rng=np.random.default_rng(SEED))
        failed = np.asarray(decisions.failures(arrays.has_cancer))

        by_case = FailureTally(classifier.classes)
        for case, flag in zip(workload, failed.tolist()):
            by_case.record(case, flag, classifier)
        batch = FailureTally(classifier.classes)
        labels = [classifier.classify(case) for case in workload if case.has_cancer]
        batch.record_batch(arrays.has_cancer, failed, labels)

        assert row.shape == (len(ROW_COLUMNS) + 2 * len(classifier.classes),)
        assert by_case.row.dtype == batch.row.dtype == row.dtype == np.int64
        assert row[4:6].min() > 0  # failures in both classes
        np.testing.assert_array_equal(by_case.row, row)
        np.testing.assert_array_equal(batch.row, row)
        assert by_case == batch == FailureTally(classifier.classes, row)

    def test_record_batch_accumulates_over_chunks(self):
        workload, classifier = make_workload(), SubtletyClassifier()
        arrays = workload.to_arrays()
        failed = np.asarray(
            make_system().decide_batch(arrays, rng=np.random.default_rng(SEED))
            .failures(arrays.has_cancer)
        )
        labels = [classifier.classify(case) for case in workload if case.has_cancer]
        whole = FailureTally(classifier.classes)
        whole.record_batch(arrays.has_cancer, failed, labels)
        parts = FailureTally(classifier.classes)
        for start, stop in [(0, 137), (137, 400), (400, NUM_CASES)]:
            low, high = np.searchsorted(arrays.cancer_index, (start, stop))
            parts.record_batch(arrays.has_cancer[start:stop], failed[start:stop], labels[low:high])
        assert parts == whole

    def test_a_row_of_the_wrong_width_is_refused(self):
        with pytest.raises(SimulationError, match="8 columns"):
            FailureTally((EASY, DIFFICULT), np.zeros(6, dtype=np.int64))

    def test_tallies_compare_by_classes_and_counts(self):
        row = np.arange(8, dtype=np.int64)
        assert FailureTally((EASY, DIFFICULT), row) == FailureTally((EASY, DIFFICULT), row.copy())
        assert FailureTally((EASY, DIFFICULT), row) != FailureTally((DIFFICULT, EASY), row)
        assert FailureTally((EASY, DIFFICULT), row) != FailureTally((EASY, DIFFICULT))
        assert FailureTally((EASY, DIFFICULT)) != (EASY, DIFFICULT)


class TestToEvaluation:
    def test_drops_untried_classes_and_keeps_classifier_order(self):
        classes = (CaseClass("a", "first"), CaseClass("b", "second"), CaseClass("c", "third"))
        # cancer 3/10, healthy 1/5; per class failures (2, 0, 1), trials (6, 0, 4)
        row = np.array([3, 10, 1, 5, 2, 0, 1, 6, 0, 4], dtype=np.int64)
        evaluation = FailureTally(classes, row).to_evaluation("s", "w")
        per_class = evaluation.per_class_false_negative
        assert list(per_class) == [classes[0], classes[2]]
        assert all(key is own for key, own in zip(per_class, (classes[0], classes[2])))
        assert [(rate.failures, rate.trials) for rate in per_class.values()] == [(2, 6), (1, 4)]
        assert (evaluation.false_negative.failures, evaluation.false_negative.trials) == (3, 10)
        assert (evaluation.false_positive.failures, evaluation.false_positive.trials) == (1, 5)

    def test_no_trials_means_no_rate(self):
        evaluation = FailureTally((EASY,)).to_evaluation("s", "w")
        assert evaluation.false_negative is None
        assert evaluation.false_positive is None
        assert evaluation.per_class_false_negative == {}

    def test_rates_are_exact_python_counts(self):
        row = np.array([1, 2, 0, 3, 1, 2], dtype=np.int64)
        (rate,) = FailureTally((EASY,), row).to_evaluation("s", "w").per_class_false_negative.values()
        assert type(rate.failures) is int and type(rate.trials) is int


class TestUndeclaredClasses:
    def test_scalar_loop_refuses_an_undeclared_class(self):
        with pytest.raises(SimulationError, match="mystery"):
            evaluate_system(make_system(), make_workload(), UndeclaredClassifier(), seed=SEED)

    @pytest.mark.filterwarnings("ignore::repro.exceptions.RuntimeDegradationWarning")
    def test_batch_path_refuses_it_too(self):
        with pytest.raises(SimulationError, match="mystery"):
            evaluate_system_batch(make_system(), make_workload(), UndeclaredClassifier(), seed=SEED)

    def test_record_batch_refuses_an_undeclared_class(self):
        tally = FailureTally((EASY, DIFFICULT))
        has_cancer = np.array([True, False, True])
        with pytest.raises(SimulationError, match="mystery"):
            tally.record_batch(has_cancer, np.zeros(3, dtype=bool), [EASY, CaseClass("mystery")])
        assert tally == FailureTally((EASY, DIFFICULT))


WORKLOAD = WorkloadSpec(population="routine", num_cases=400, population_seed=3)
SYSTEMS = (SystemSpec(kind="assisted", bias="mild"), SystemSpec(kind="unaided", bias="none"))
GRID = ScenarioGrid(
    name="tally",
    populations=("routine",),
    num_cases=400,
    systems=("unaided", "assisted"),
    biases=("mild",),
    dynamics=("none",),
    operating_points=(0.0,),
    replicates=2,
)


def service_evaluations(classifier):
    """An evaluate and a compare request against one service."""

    async def main():
        config = ServiceConfig(workers=1, chunk_size=WORKLOAD.num_cases)
        async with ScreeningService(config, classifier=classifier) as service:
            single = await service.evaluate(WORKLOAD, SYSTEMS[0], seed=SEED)
            return [single, *await service.compare(WORKLOAD, SYSTEMS, seed=SEED)]

    return asyncio.run(main())


def every_path(classifier):
    """Per path, the evaluations of :data:`SYSTEMS` over :data:`WORKLOAD`
    (the sweep: every cell of :data:`GRID`)."""
    workload = WORKLOAD.build()

    def built():
        return [spec.build(SEED) for spec in SYSTEMS]

    sweep = run_sweep(GRID, seed=SEED, classifier=classifier)
    return {
        "scalar": list(compare_systems(built(), workload, classifier, seed=SEED).values()),
        "batch": [evaluate_system_batch(built()[0], workload, classifier, seed=SEED)],
        "compare": list(compare_systems_batch(built(), workload, classifier, seed=SEED).values()),
        "service": service_evaluations(classifier),
        "sweep cells": [cell.evaluation() for cell in sweep.results],
        "sweep evaluations": list(sweep.evaluations().values()),
    }


class TestEveryPath:
    @pytest.mark.parametrize("make_classifier", [SubtletyClassifier, LesionTypeClassifier])
    def test_keyed_by_the_classifiers_own_classes_in_its_order(self, make_classifier):
        classifier = make_classifier()
        for path, evaluations in every_path(classifier).items():
            for evaluation in evaluations:
                keys = list(evaluation.per_class_false_negative)
                # The classifier's own objects (descriptions kept), in its
                # order, and only those with a cancer trial.
                own = [next(c for c in classifier.classes if c == key) for key in keys]
                assert all(key is mine for key, mine in zip(keys, own)), path
                assert all(key.description for key in keys), path
                order = [classifier.classes.index(key) for key in keys]
                assert order == sorted(order), path
                assert all(rate.trials for rate in evaluation.per_class_false_negative.values())
                assert keys, path

    def test_scalar_loop_reports_in_classifier_order(self):
        workload, classifier = make_workload(), SubtletyClassifier()
        first = next(classifier.classify(case) for case in workload if case.has_cancer)
        assert first == DIFFICULT  # first encountered is not first declared
        evaluation = evaluate_system(make_system(), workload, classifier, seed=SEED)
        assert list(evaluation.per_class_false_negative) == [EASY, DIFFICULT]


class TestCellResult:
    def test_cell_results_compare_by_value(self):
        result = run_sweep(GRID, seed=SEED, classifier=SubtletyClassifier())
        first, second = result.results[0], result.results[1]
        assert first == result.results[0]
        assert first is not result.results[0]
        assert first != second
        assert isinstance(first.counts, FailureTally)
        assert first.counts.classes == (EASY, DIFFICULT)
        assert not first.counts.row.flags.writeable  # a view of the result's matrix
        np.testing.assert_array_equal(first.counts.row, result.counts[first.index])
