"""classify_batch: vectorized labels identical to the per-case protocol."""

import numpy as np
import pytest

from repro.engine import cancer_class_labels
from repro.screening import (
    CompositeClassifier,
    DensityBandClassifier,
    FunctionClassifier,
    LesionTypeClassifier,
    OracleDifficultyClassifier,
    SingleClassClassifier,
    SubtletyClassifier,
    routine_screening_population,
    trial_workload,
)


@pytest.fixture(scope="module")
def workload():
    return trial_workload(
        routine_screening_population(seed=17), 800, cancer_fraction=0.4, name="cb"
    )


BATCH_CLASSIFIERS = [
    SingleClassClassifier(),
    SubtletyClassifier(),
    SubtletyClassifier(threshold=0.4, density_weight=0.0),
    DensityBandClassifier(),
    DensityBandClassifier(boundaries=(0.2, 0.5, 0.8)),
    LesionTypeClassifier(),
    OracleDifficultyClassifier(),
    OracleDifficultyClassifier(boundaries=(0.1, 0.3, 0.6)),
    CompositeClassifier(SubtletyClassifier(), DensityBandClassifier()),
    CompositeClassifier(LesionTypeClassifier(), SubtletyClassifier()),
]


@pytest.mark.parametrize(
    "classifier", BATCH_CLASSIFIERS, ids=lambda c: type(c).__name__
)
class TestBatchMatchesScalar:
    def test_every_case_gets_the_same_class(self, classifier, workload):
        arrays = workload.to_arrays()
        codes = classifier.classify_batch(arrays)
        assert codes.shape == (len(workload),)
        assert codes.dtype == np.int64
        classes = classifier.classes
        for case, code in zip(workload, codes):
            assert classes[int(code)] == classifier.classify(case)

    def test_codes_index_declared_classes(self, classifier, workload):
        codes = classifier.classify_batch(workload.to_arrays())
        assert codes.min() >= 0
        assert codes.max() < len(classifier.classes)


class TestFallbacks:
    def test_function_classifier_has_no_batch_form(self, workload):
        classifier = SubtletyClassifier()
        wrapped = FunctionClassifier(classifier.classify, classifier.classes)
        assert not hasattr(wrapped, "classify_batch")
        positions, labels = cancer_class_labels(workload, wrapped)
        batch_positions, batch_labels = cancer_class_labels(workload, classifier)
        assert np.array_equal(positions, batch_positions)
        assert labels == batch_labels

    def test_composite_of_unbatchable_parts_falls_back(self, workload):
        inner = SubtletyClassifier()
        wrapped = FunctionClassifier(inner.classify, inner.classes)
        composite = CompositeClassifier(wrapped, DensityBandClassifier())
        with pytest.raises(NotImplementedError):
            composite.classify_batch(workload.to_arrays())
        # cancer_class_labels swallows the NotImplementedError and takes
        # the per-case path, matching a fully-batchable equivalent.
        reference = CompositeClassifier(inner, DensityBandClassifier())
        _, labels = cancer_class_labels(workload, composite)
        _, expected = cancer_class_labels(workload, reference)
        assert labels == expected

    def test_cancer_labels_positions_are_the_cancer_indices(self, workload):
        positions, labels = cancer_class_labels(workload, SubtletyClassifier())
        expected = [i for i, case in enumerate(workload) if case.has_cancer]
        assert positions.tolist() == expected
        assert len(labels) == len(expected)


class TestWorkloadColumnisationCache:
    def test_to_arrays_returns_the_same_object(self, workload):
        assert workload.to_arrays() is workload.to_arrays()

    def test_fingerprint_is_content_based(self):
        a = trial_workload(
            routine_screening_population(seed=3), 60, cancer_fraction=0.5, name="w"
        )
        b = trial_workload(
            routine_screening_population(seed=3), 60, cancer_fraction=0.5, name="w"
        )
        assert a.fingerprint() == b.fingerprint()
        c = trial_workload(
            routine_screening_population(seed=4), 60, cancer_fraction=0.5, name="w"
        )
        assert a.fingerprint() != c.fingerprint()

    def test_cache_invalidated_when_cases_change(self, workload):
        small = trial_workload(
            routine_screening_population(seed=5), 40, cancer_fraction=0.5, name="w"
        )
        first = small.to_arrays()
        # Out-of-band mutation (never done by repro code, but guarded).
        object.__setattr__(small, "cases", small.cases[:-1])
        second = small.to_arrays()
        assert second is not first
        assert len(second) == len(first) - 1

    def test_cache_invalidated_when_a_case_is_mutated_in_place(self):
        small = trial_workload(
            routine_screening_population(seed=6), 40, cancer_fraction=0.5, name="w"
        )
        first = small.to_arrays()
        case = small.cases[3]
        # Out-of-band mutation of a frozen case: the case tuple is the
        # same object, so only the content re-check can notice.
        object.__setattr__(case, "subtlety", case.subtlety + 1.0)
        second = small.to_arrays()
        assert second is not first
        assert second.subtlety[3] == case.subtlety
        assert first.subtlety[3] == case.subtlety - 1.0
