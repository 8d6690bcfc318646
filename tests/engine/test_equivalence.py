"""Scalar/batch equivalence: the engine's bit-identical-counts guarantee.

For every stateless system configuration over every population preset,
the vectorized engine must report *exactly* the failure counts the scalar
loop reports — overall and per case class — in both randomness modes:

* unseeded: two fresh, identically-seeded systems, one driven case by
  case and one through the engine (components consume their private
  generator streams identically);
* seeded single chunk: the engine replicates the seeded scalar loop's
  shared-generator stream.
"""

import numpy as np
import pytest

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import evaluate_system_batch
from repro.reader import (
    MILD_BIAS,
    NO_BIAS,
    STRONG_BIAS,
    ReaderModel,
    ReaderSkill,
    ReadingProcedure,
)
from repro.screening import (
    SubtletyClassifier,
    low_correlation_population,
    routine_screening_population,
    symptomatic_clinic_population,
    trial_workload,
    young_cohort_population,
)
from repro.system import (
    AssistedDoubleReading,
    AssistedReading,
    DoubleReading,
    RecallPolicy,
    UnaidedReading,
    evaluate_system,
)

POPULATION_PRESETS = {
    "routine": routine_screening_population,
    "young": young_cohort_population,
    "symptomatic": symptomatic_clinic_population,
    "low_correlation": low_correlation_population,
}

BIASES = {"no_bias": NO_BIAS, "mild": MILD_BIAS, "strong": STRONG_BIAS}


def make_workload(preset, n=600):
    return trial_workload(preset(seed=11), n, cancer_fraction=0.3, name="eq")


def make_unaided(seed, bias=MILD_BIAS, procedure=ReadingProcedure.SEQUENTIAL):
    reader = ReaderModel(
        skill=ReaderSkill(), bias=bias, procedure=procedure, name="r", seed=seed
    )
    return UnaidedReading(reader)


def make_assisted(seed, bias=MILD_BIAS, procedure=ReadingProcedure.SEQUENTIAL):
    reader = ReaderModel(
        skill=ReaderSkill(), bias=bias, procedure=procedure, name="r", seed=seed
    )
    return AssistedReading(reader, Cadt(DetectionAlgorithm(), seed=seed + 1000))


def make_double(policy, assisted):
    """A Section 7 double-reading factory under one recall policy."""

    def factory(seed):
        readers = [
            ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name=f"r{k}", seed=seed + k)
            for k in range(3)
        ]
        arbiter = readers[2] if policy is RecallPolicy.ARBITRATION else None
        if assisted:
            cadt = Cadt(DetectionAlgorithm(), seed=seed + 1000)
            return AssistedDoubleReading(readers[:2], cadt, policy, arbiter=arbiter)
        return DoubleReading(readers[:2], policy, arbiter=arbiter)

    return factory


SYSTEM_FACTORIES = {
    "unaided": make_unaided,
    "assisted": make_assisted,
    **{
        f"{prefix}double_{policy.value}": make_double(policy, assisted)
        for prefix, assisted in (("", False), ("assisted_", True))
        for policy in RecallPolicy
    },
}


def failure_counts(evaluation):
    """Every count the evaluation carries, as one comparable structure."""
    return {
        "fn": (
            (evaluation.false_negative.failures, evaluation.false_negative.trials)
            if evaluation.false_negative
            else None
        ),
        "fp": (
            (evaluation.false_positive.failures, evaluation.false_positive.trials)
            if evaluation.false_positive
            else None
        ),
        "per_class": {
            cls.name: (est.failures, est.trials)
            for cls, est in evaluation.per_class_false_negative.items()
        },
    }


@pytest.mark.parametrize("population", POPULATION_PRESETS)
@pytest.mark.parametrize("kind", SYSTEM_FACTORIES)
class TestUnseededEquivalence:
    def test_fresh_systems_bit_identical(self, population, kind):
        workload = make_workload(POPULATION_PRESETS[population])
        classifier = SubtletyClassifier()
        scalar = evaluate_system(
            SYSTEM_FACTORIES[kind](seed=7), workload, classifier
        )
        batch = evaluate_system_batch(
            SYSTEM_FACTORIES[kind](seed=7), workload, classifier
        )
        assert failure_counts(scalar) == failure_counts(batch)

    def test_chunking_does_not_change_unseeded_results(self, population, kind):
        # PCG64 stream continuity: drawing a batch's uniforms in chunks
        # consumes the private generators identically to one flat draw.
        workload = make_workload(POPULATION_PRESETS[population])
        whole = evaluate_system_batch(SYSTEM_FACTORIES[kind](seed=3), workload)
        chunked = evaluate_system_batch(
            SYSTEM_FACTORIES[kind](seed=3), workload, chunk_size=97
        )
        assert failure_counts(whole) == failure_counts(chunked)


@pytest.mark.parametrize("population", POPULATION_PRESETS)
@pytest.mark.parametrize("kind", SYSTEM_FACTORIES)
class TestSeededEquivalence:
    def test_seeded_single_chunk_matches_seeded_scalar(self, population, kind):
        # Component seeds differ on purpose: with an evaluation seed the
        # private generators are bypassed, so only the seed may matter.
        workload = make_workload(POPULATION_PRESETS[population])
        classifier = SubtletyClassifier()
        scalar = evaluate_system(
            SYSTEM_FACTORIES[kind](seed=1), workload, classifier, seed=2024
        )
        batch = evaluate_system_batch(
            SYSTEM_FACTORIES[kind](seed=2), workload, classifier, seed=2024
        )
        assert failure_counts(scalar) == failure_counts(batch)

    def test_seeded_multichunk_is_reproducible(self, population, kind):
        workload = make_workload(POPULATION_PRESETS[population])
        first = evaluate_system_batch(
            SYSTEM_FACTORIES[kind](seed=1), workload, seed=5, chunk_size=100
        )
        second = evaluate_system_batch(
            SYSTEM_FACTORIES[kind](seed=2), workload, seed=5, chunk_size=100
        )
        assert failure_counts(first) == failure_counts(second)


@pytest.mark.parametrize("bias", BIASES)
@pytest.mark.parametrize("procedure", list(ReadingProcedure))
class TestReaderVariantEquivalence:
    def test_assisted_bias_and_procedure_variants(self, bias, procedure):
        workload = make_workload(routine_screening_population)
        scalar = evaluate_system(
            make_assisted(seed=7, bias=BIASES[bias], procedure=procedure), workload
        )
        batch = evaluate_system_batch(
            make_assisted(seed=7, bias=BIASES[bias], procedure=procedure), workload
        )
        assert failure_counts(scalar) == failure_counts(batch)

    def test_unaided_bias_and_procedure_variants(self, bias, procedure):
        workload = make_workload(routine_screening_population)
        scalar = evaluate_system(
            make_unaided(seed=7, bias=BIASES[bias], procedure=procedure), workload
        )
        batch = evaluate_system_batch(
            make_unaided(seed=7, bias=BIASES[bias], procedure=procedure), workload
        )
        assert failure_counts(scalar) == failure_counts(batch)


class TestMachineFailureEquivalence:
    def test_batch_machine_failures_match_scalar(self):
        # The machine-failure flags, not just system failures, must agree.
        workload = make_workload(routine_screening_population, n=400)
        arrays = workload.to_arrays()
        scalar_system = make_assisted(seed=9)
        batch_system = make_assisted(seed=9)
        scalar_flags = [
            scalar_system.decide(case).machine_failed for case in workload
        ]
        decisions = batch_system.decide_batch(arrays)
        assert decisions.machine_failed is not None
        assert [bool(f) for f in decisions.machine_failed] == scalar_flags

    def test_batch_recall_decisions_match_scalar(self):
        workload = make_workload(routine_screening_population, n=400)
        arrays = workload.to_arrays()
        scalar_system = make_unaided(seed=9)
        batch_system = make_unaided(seed=9)
        scalar_recalls = [scalar_system.decide(case).recall for case in workload]
        decisions = batch_system.decide_batch(arrays)
        assert decisions.machine_failed is None
        assert [bool(r) for r in decisions.recall] == scalar_recalls


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("kind", [k for k in SYSTEM_FACTORIES if "double" in k])
class TestDoubleReadingDecisions:
    def test_decide_batch_matches_decide_case_by_case(self, kind, seeded):
        # Every policy reserves the same per-case uniforms in both paths
        # (the arbiter's included), so decisions agree case by case.
        workload = make_workload(routine_screening_population, n=400)
        scalar_system = SYSTEM_FACTORIES[kind](seed=9)
        batch_system = SYSTEM_FACTORIES[kind](seed=9)
        scalar_rng = np.random.default_rng(31) if seeded else None
        scalar = [scalar_system.decide(case, scalar_rng) for case in workload]
        batch_rng = np.random.default_rng(31) if seeded else None
        decisions = batch_system.decide_batch(workload.to_arrays(), batch_rng)
        assert decisions.recall.tolist() == [d.recall for d in scalar]
        machine = [d.machine_failed for d in scalar]
        if decisions.machine_failed is None:
            assert machine == [None] * len(workload)
        else:
            assert decisions.machine_failed.tolist() == machine
