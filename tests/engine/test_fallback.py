"""Stateful systems keep their order-dependent semantics — transparently
and exactly — through the batch entry point.

Fatigued and adapting readers, and drifting tools, are order-dependent:
the decision on case ``i`` depends on cases ``0..i-1``.  Temporal reader
wrappers now run on the engine's ordered stream-carry path (see
``tests/engine/test_stateful_equivalence.py`` for the full battery);
drifting tools still route through
:func:`~repro.system.simulate.evaluate_system`.  Either way the batch
entry point must reproduce the scalar trajectories exactly — that is
what these tests pin down.
"""

import pytest

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import evaluate_system_batch, supports_batch
from repro.exceptions import SimulationError
from repro.reader import (
    MILD_BIAS,
    AdaptiveReader,
    FatiguedReader,
    ReaderModel,
    ReaderSkill,
)
from repro.screening import routine_screening_population, trial_workload
from repro.system import (
    AssistedDoubleReading,
    AssistedReading,
    DoubleReading,
    RecallPolicy,
    UnaidedReading,
    evaluate_system,
)

from tests.engine.test_equivalence import failure_counts


def base_reader(seed):
    return ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)


def workload(n=400):
    return trial_workload(
        routine_screening_population(seed=21), n, cancer_fraction=0.3, name="fb"
    )


def fatigued_system(seed):
    return UnaidedReading(FatiguedReader(base_reader(seed), seed=seed + 50))


def adaptive_system(seed):
    return AssistedReading(
        AdaptiveReader(base_reader(seed), seed=seed + 50), Cadt(seed=seed + 100)
    )


def drifting_system(seed):
    return AssistedReading(
        base_reader(seed),
        Cadt(DetectionAlgorithm(), drift_per_case=5e-3, seed=seed + 100),
    )


def fatigued_double(seed):
    return DoubleReading(
        [FatiguedReader(base_reader(seed), seed=seed + 50), base_reader(seed + 1)],
        RecallPolicy.ARBITRATION,
        arbiter=base_reader(seed + 2),
    )


def drifting_double(seed):
    return AssistedDoubleReading(
        [base_reader(seed), base_reader(seed + 1)],
        Cadt(DetectionAlgorithm(), drift_per_case=5e-3, seed=seed + 100),
    )


def repeated_reader_double(seed):
    # One reader listed twice interleaves two segments per case on its
    # private generator; only the scalar loop reproduces that unseeded.
    reader = base_reader(seed)
    return DoubleReading([reader, reader], RecallPolicy.UNANIMOUS)


STATEFUL_FACTORIES = {
    "fatigued_reader": fatigued_system,
    "adaptive_reader": adaptive_system,
    "drifting_cadt": drifting_system,
    "fatigued_double": fatigued_double,
    "drifting_double": drifting_double,
    "repeated_reader_double": repeated_reader_double,
}


@pytest.mark.parametrize("kind", STATEFUL_FACTORIES)
class TestStatefulFallback:
    def test_declares_no_batch_support(self, kind):
        assert not supports_batch(STATEFUL_FACTORIES[kind](seed=1))

    def test_batch_entry_point_matches_scalar_loop(self, kind):
        # Order-dependent results, bit for bit: the fallback must run the
        # very same per-case loop over the very same sequence.
        wl = workload()
        scalar = evaluate_system(STATEFUL_FACTORIES[kind](seed=5), wl)
        batch = evaluate_system_batch(STATEFUL_FACTORIES[kind](seed=5), wl)
        assert failure_counts(scalar) == failure_counts(batch)

    def test_seeded_fallback_matches_seeded_scalar(self, kind):
        wl = workload()
        scalar = evaluate_system(STATEFUL_FACTORIES[kind](seed=5), wl, seed=77)
        batch = evaluate_system_batch(STATEFUL_FACTORIES[kind](seed=5), wl, seed=77)
        assert failure_counts(scalar) == failure_counts(batch)

    def test_decide_batch_refuses_stateful_components(self, kind):
        system = STATEFUL_FACTORIES[kind](seed=1)
        with pytest.raises(SimulationError):
            system.decide_batch(workload(50).to_arrays())


class TestStatefulnessIsObservable:
    def test_fatigue_actually_changes_results(self):
        # Guard against the fallback tests passing vacuously: the
        # stateful wrapper must differ from its stateless base.
        wl = workload()
        rested = evaluate_system(UnaidedReading(base_reader(5)), wl, seed=77)
        fatigued = evaluate_system(fatigued_system(5), wl, seed=77)
        assert failure_counts(rested) != failure_counts(fatigued)

    def test_drift_actually_changes_results(self):
        wl = workload()
        stable = evaluate_system(
            AssistedReading(base_reader(5), Cadt(seed=105)), wl, seed=77
        )
        drifting = evaluate_system(drifting_system(5), wl, seed=77)
        assert failure_counts(stable) != failure_counts(drifting)
