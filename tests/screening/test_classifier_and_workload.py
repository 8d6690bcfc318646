"""Tests for repro.screening.classifier and repro.screening.workload."""

import pytest

from repro.core import CaseClass, DIFFICULT, EASY
from repro.exceptions import ParameterError, SimulationError
from repro.screening import (
    CompositeClassifier,
    DensityBandClassifier,
    FunctionClassifier,
    LesionTypeClassifier,
    PopulationModel,
    SingleClassClassifier,
    SubtletyClassifier,
    Workload,
    empirical_profile,
    field_workload,
    trial_workload,
)


@pytest.fixture
def cancers(population):
    return population.generate_cancers(200)


class TestSingleClassClassifier:
    def test_everything_one_class(self, cancers):
        classifier = SingleClassClassifier()
        assert {classifier.classify(c).name for c in cancers} == {"all"}
        assert classifier.classes == (CaseClass("all"),)


class TestSubtletyClassifier:
    def test_emits_only_declared_classes(self, cancers):
        classifier = SubtletyClassifier()
        emitted = {classifier.classify(c) for c in cancers}
        assert emitted <= {EASY, DIFFICULT}

    def test_threshold_moves_boundary(self, cancers):
        lenient = SubtletyClassifier(threshold=1.2)
        strict = SubtletyClassifier(threshold=0.2)
        lenient_difficult = sum(
            lenient.classify(c) == DIFFICULT for c in cancers
        )
        strict_difficult = sum(strict.classify(c) == DIFFICULT for c in cancers)
        assert strict_difficult > lenient_difficult

    def test_difficult_cases_really_harder(self, population):
        """The observable criterion must correlate with latent difficulty."""
        import numpy as np

        cancers = population.generate_cancers(2000)
        classifier = SubtletyClassifier()
        easy = [c for c in cancers if classifier.classify(c) == EASY]
        difficult = [c for c in cancers if classifier.classify(c) == DIFFICULT]
        assert np.mean([c.human_detection_difficulty for c in difficult]) > np.mean(
            [c.human_detection_difficulty for c in easy]
        )

    def test_healthy_cases_classified_by_distractors(self, population):
        classifier = SubtletyClassifier()
        healthy = population.generate_healthy(50)
        for case in healthy:
            assert classifier.classify(case) in (EASY, DIFFICULT)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            SubtletyClassifier(threshold=0.0)
        with pytest.raises(ParameterError):
            SubtletyClassifier(density_weight=-1.0)


class TestDensityBandClassifier:
    def test_bands(self, cancers):
        classifier = DensityBandClassifier((0.35, 0.65))
        assert len(classifier.classes) == 3
        for case in cancers:
            band = classifier.classify(case)
            index = int(band.name.split("_")[1])
            if index == 0:
                assert case.breast_density <= 0.35
            elif index == 2:
                assert case.breast_density > 0.65

    def test_invalid_boundaries(self):
        with pytest.raises(ParameterError):
            DensityBandClassifier(())
        with pytest.raises(ParameterError):
            DensityBandClassifier((0.5, 0.3))
        with pytest.raises(ParameterError):
            DensityBandClassifier((0.0,))


class TestLesionTypeClassifier:
    def test_cancers_by_type(self, cancers):
        classifier = LesionTypeClassifier()
        for case in cancers:
            assert classifier.classify(case).name == case.lesion_type.value

    def test_healthy_is_normal(self, population):
        classifier = LesionTypeClassifier()
        healthy = population.generate_healthy(5)
        assert all(classifier.classify(c).name == "normal" for c in healthy)

    def test_five_classes(self):
        assert len(LesionTypeClassifier().classes) == 5


class TestCompositeClassifier:
    def test_product_classes(self):
        composite = CompositeClassifier(
            SubtletyClassifier(), DensityBandClassifier((0.5,))
        )
        assert len(composite.classes) == 4

    def test_classification_combines_names(self, cancers):
        composite = CompositeClassifier(
            SubtletyClassifier(), DensityBandClassifier((0.5,))
        )
        for case in cancers[:20]:
            name = composite.classify(case).name
            left, right = name.split("/")
            assert left in ("easy", "difficult")
            assert right.startswith("density_")


class TestFunctionClassifier:
    def test_wraps_function(self, cancers):
        odd = CaseClass("odd")
        even = CaseClass("even")
        classifier = FunctionClassifier(
            lambda c: odd if c.case_id % 2 else even, [odd, even]
        )
        assert classifier.classify(cancers[0]) in (odd, even)

    def test_undeclared_class_rejected(self, cancers):
        classifier = FunctionClassifier(
            lambda c: CaseClass("surprise"), [CaseClass("expected")]
        )
        with pytest.raises(ParameterError):
            classifier.classify(cancers[0])

    def test_empty_classes_rejected(self):
        with pytest.raises(ParameterError):
            FunctionClassifier(lambda c: CaseClass("x"), [])


class TestWorkload:
    def test_split_by_truth(self, population):
        workload = trial_workload(population, 100, cancer_fraction=0.4)
        cancers, healthy = workload.split_by_truth()
        assert len(cancers) + len(healthy) == 100
        assert all(c.has_cancer for c in cancers)
        assert all(not c.has_cancer for c in healthy)

    def test_trial_workload_enrichment(self, population):
        workload = trial_workload(population, 200, cancer_fraction=0.5)
        assert workload.cancer_fraction == pytest.approx(0.5, abs=0.01)

    def test_trial_workload_interleaves(self, population):
        """Cancers must not be bunched at one end of the ordering."""
        workload = trial_workload(population, 100, cancer_fraction=0.5)
        first_half = sum(c.has_cancer for c in workload.cases[:50])
        assert 15 <= first_half <= 35

    def test_subtlety_enrichment_tilts_mix(self, classifier):
        import numpy as np

        population_plain = PopulationModel(seed=77)
        population_enriched = PopulationModel(seed=77)
        plain = trial_workload(population_plain, 400, cancer_fraction=1.0)
        enriched = trial_workload(
            population_enriched,
            400,
            cancer_fraction=1.0,
            subtlety_enrichment=2.0,
            selection_seed=1,
        )
        assert np.mean([c.subtlety for c in enriched.cases]) > np.mean(
            [c.subtlety for c in plain.cases]
        )
        plain_difficult = empirical_profile(plain, classifier)["difficult"]
        enriched_difficult = empirical_profile(enriched, classifier)["difficult"]
        assert enriched_difficult > plain_difficult

    def test_negative_enrichment_rejected(self, population):
        with pytest.raises(SimulationError):
            trial_workload(population, 10, subtlety_enrichment=-1.0)

    def test_field_workload_prevalence(self):
        population = PopulationModel(prevalence=0.05, seed=21)
        workload = field_workload(population, 2000)
        assert workload.cancer_fraction == pytest.approx(0.05, abs=0.02)

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            Workload("", ())

    def test_len_and_iter(self, population):
        workload = field_workload(population, 10)
        assert len(workload) == 10
        assert len(list(workload)) == 10


class TestEmpiricalProfile:
    def test_profile_over_cancers(self, population, classifier):
        workload = trial_workload(population, 300, cancer_fraction=0.5)
        profile = empirical_profile(workload, classifier)
        assert sum(p for _, p in profile.items()) == pytest.approx(1.0)
        # Both classes should appear in a decent sample.
        assert profile["easy"] > 0 and profile["difficult"] > 0

    def test_profile_counts_match(self, population, classifier):
        cancers = population.generate_cancers(100)
        profile = empirical_profile(cancers, classifier)
        difficult_count = sum(
            classifier.classify(c).name == "difficult" for c in cancers
        )
        assert profile["difficult"] == pytest.approx(difficult_count / 100)

    def test_each_case_classified_once(self, population, classifier):
        calls = []

        def counting(case):
            calls.append(case.case_id)
            return classifier.classify(case)

        cases = population.generate(300) + population.generate_cancers(40)
        counted = FunctionClassifier(counting, classifier.classes)
        profile = empirical_profile(cases, counted)
        assert sorted(calls) == [c.case_id for c in cases if c.has_cancer]
        assert dict(profile.items()) == dict(empirical_profile(cases, classifier).items())

    def test_healthy_side(self, population, classifier):
        healthy = population.generate_healthy(100)
        profile = empirical_profile(healthy, classifier, cancers_only=False)
        assert sum(p for _, p in profile.items()) == pytest.approx(1.0)

    def test_no_matching_cases_rejected(self, population, classifier):
        healthy = population.generate_healthy(10)
        with pytest.raises(SimulationError):
            empirical_profile(healthy, classifier, cancers_only=True)


class TestOracleDifficultyClassifier:
    def test_bands_by_latent_difficulty(self, cancers):
        from repro.screening import OracleDifficultyClassifier

        classifier = OracleDifficultyClassifier((0.25,))
        for case in cancers:
            band = classifier.classify(case).name
            if case.overall_difficulty > 0.25:
                assert band == "oracle_1"
            else:
                assert band == "oracle_0"

    def test_oracle_separates_difficulty_better_than_observable(self, population):
        """The oracle's classes are more homogeneous in latent difficulty
        than the observable subtlety classifier's — its reason to exist."""
        import numpy as np

        from repro.screening import OracleDifficultyClassifier

        cancers = population.generate_cancers(2000)

        def within_class_variance(classifier):
            groups = {}
            for case in cancers:
                groups.setdefault(classifier.classify(case).name, []).append(
                    case.overall_difficulty
                )
            total = len(cancers)
            return sum(
                len(values) / total * float(np.var(values))
                for values in groups.values()
            )

        observable = SubtletyClassifier()
        oracle = OracleDifficultyClassifier((0.25,))
        assert within_class_variance(oracle) < within_class_variance(observable)

    def test_invalid_boundaries(self):
        from repro.screening import OracleDifficultyClassifier

        with pytest.raises(ParameterError):
            OracleDifficultyClassifier(())
        with pytest.raises(ParameterError):
            OracleDifficultyClassifier((0.8, 0.2))
        with pytest.raises(ParameterError):
            OracleDifficultyClassifier((1.0,))
