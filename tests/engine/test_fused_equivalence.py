"""Pin the fused-dispatch kernel bit-identical to the per-call executor.

``run_fused_batch`` is the one kernel behind every evaluation, sweep
shard and service dispatch.  These tests build :data:`FusedTask` tuples
by hand and assert that every item's row of the returned count matrix,
demultiplexed as :class:`~repro.engine.fused.FusedCounts`, rebuilds *exactly* the
:class:`~repro.system.simulate.SystemEvaluation` a standalone
:func:`~repro.engine.executor.evaluate_system_batch` run of the same
``(seed, chunk_size)`` produces — for batch systems, stream systems,
mixed fusions, pooled dispatch, and multi-class breakdowns.
"""

import numpy as np
import pytest

from repro.cadt import Cadt
from repro.engine import EngineRuntime, evaluate_system_batch
from repro.engine.fused import (
    FusedCounts,
    build_fused_item,
    cancer_class_codes,
    run_fused_batch,
)
from repro.exceptions import SimulationError
from repro.reader import MILD_BIAS, AdaptiveReader, FatiguedReader, ReaderModel, ReaderSkill
from repro.screening import SingleClassClassifier, SubtletyClassifier
from repro.system import AssistedDoubleReading, AssistedReading, RecallPolicy

from tests.engine.test_executor import make_system, make_workload


def stream_system(seed=2, wrapper=FatiguedReader):
    """An assisted system on the ordered stream-carry path."""
    reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)
    return AssistedReading(wrapper(reader, seed=seed + 500), Cadt(seed=seed + 1000))


def double_system(seed=3):
    """Section 7's assisted double reading with arbitration (batch path)."""
    readers = [
        ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name=f"r{k}", seed=seed + k)
        for k in range(3)
    ]
    return AssistedDoubleReading(
        readers[:2], Cadt(seed=seed + 1000), RecallPolicy.ARBITRATION, arbiter=readers[2]
    )


def fused_task(workload, items, chunk_size, classifier, plane=None):
    """Hand-build one whole-plan, untraced dispatch as the runtime does."""
    arrays = workload.to_arrays()
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(workload, classifier, arrays, positions)
    n_classes = len(classifier.classes)
    return (
        plane if plane is not None else arrays,
        chunk_size,
        positions,
        codes,
        n_classes,
        tuple(items),
        None,
        False,
    )


def fused_evaluations(workload, pairs, chunk_size, classifier=None):
    """Evaluate ``(system, seed)`` pairs through one fused dispatch."""
    classifier = classifier if classifier is not None else SingleClassClassifier()
    items = [
        build_fused_item(index, system, seed)
        for index, (system, seed) in enumerate(pairs)
    ]
    rows = run_fused_batch(fused_task(workload, items, chunk_size, classifier)).rows
    class_names = tuple(case_class.name for case_class in classifier.classes)
    return [
        FusedCounts.from_row(row, class_names).evaluation(
            system.name, workload.name
        )
        for row, (system, _) in zip(rows, pairs)
    ]


class TestFusedEquivalence:
    @pytest.mark.parametrize("chunk_size", [64, 128, 16384])
    def test_batch_system_matches_executor(self, chunk_size):
        workload = make_workload(600)
        (fused,) = fused_evaluations(workload, [(make_system(), 17)], chunk_size)
        reference = evaluate_system_batch(
            make_system(), workload, seed=17, chunk_size=chunk_size
        )
        # Frozen-dataclass equality: counts, Wilson intervals, names.
        assert fused == reference

    @pytest.mark.parametrize("chunk_size", [64, 250])
    @pytest.mark.parametrize("wrapper", [FatiguedReader, AdaptiveReader])
    def test_stream_system_matches_executor(self, chunk_size, wrapper):
        # Stateful wrappers carry reader state across chunk boundaries;
        # the fused path must reproduce the executor's ordered stream.
        workload = make_workload(500)
        (fused,) = fused_evaluations(
            workload, [(stream_system(wrapper=wrapper), 23)], chunk_size
        )
        reference = evaluate_system_batch(
            stream_system(wrapper=wrapper), workload, seed=23, chunk_size=chunk_size
        )
        assert fused == reference

    def test_double_reading_matches_executor(self):
        workload = make_workload(600)
        classifier = SubtletyClassifier()
        (fused,) = fused_evaluations(
            workload, [(double_system(), 41)], 128, classifier=classifier
        )
        reference = evaluate_system_batch(
            double_system(), workload, classifier=classifier, seed=41, chunk_size=128
        )
        assert fused == reference

    def test_mixed_fusion_matches_each_solo_run(self):
        # Batch and stream items fused into ONE task each stay identical
        # to their standalone runs: per-item seeds, no cross-talk.
        workload = make_workload(400)
        pairs = [
            (make_system(1), 101),
            (stream_system(2), 202),
            (make_system(3), 303),
            (stream_system(4, wrapper=AdaptiveReader), 404),
        ]
        fused = fused_evaluations(workload, pairs, 128)
        rebuilt = [
            (make_system(1), 101),
            (stream_system(2), 202),
            (make_system(3), 303),
            (stream_system(4, wrapper=AdaptiveReader), 404),
        ]
        for evaluation, (system, seed) in zip(fused, rebuilt):
            assert evaluation == evaluate_system_batch(
                system, workload, seed=seed, chunk_size=128
            )

    def test_per_class_counts_match_under_subtlety_classifier(self):
        workload = make_workload(800)
        classifier = SubtletyClassifier()
        (fused,) = fused_evaluations(
            workload, [(make_system(), 9)], 128, classifier=classifier
        )
        reference = evaluate_system_batch(
            make_system(), workload, classifier=classifier, seed=9, chunk_size=128
        )
        assert fused.per_class_false_negative == reference.per_class_false_negative
        assert fused == reference

    def test_pooled_dispatch_returns_identical_rows(self):
        # The same task shipped through runtime.map (workers attach the
        # published plane) yields byte-for-byte the in-process rows.
        workload = make_workload(600)
        classifier = SingleClassClassifier()
        items = [
            build_fused_item(0, make_system(1), 31),
            build_fused_item(1, make_system(2), 32),
        ]
        in_process = run_fused_batch(fused_task(workload, items, 128, classifier))
        with EngineRuntime(workers=2) as runtime:
            arrays, segment = runtime.publish_workload(workload)
            plane = segment if segment is not None else arrays
            task = fused_task(workload, items, 128, classifier, plane=plane)
            (pooled,) = runtime.map(run_fused_batch, [task])
        assert pooled.rows.dtype == in_process.rows.dtype == np.int64
        assert np.array_equal(pooled.rows, in_process.rows)

    def test_item_order_and_indices_survive_the_round_trip(self):
        # One row per item, in item order, whatever labels the items
        # carry: reversing the items reverses the rows, and each row is
        # its item's solo run.
        workload = make_workload(300)
        classifier = SingleClassClassifier()

        def rows(order):
            items = [build_fused_item(7 * n, make_system(n), 50 + n) for n in order]
            return run_fused_batch(fused_task(workload, items, 128, classifier)).rows

        forward, backward = rows([0, 1, 2]), rows([2, 1, 0])
        assert forward.shape == (3, 4 + 2 * len(classifier.classes))
        assert np.array_equal(forward, backward[::-1])
        for n, row in enumerate(forward):
            assert np.array_equal(row, rows([n])[0])


class TestBuildFusedItem:
    def test_rejects_non_vectorizable_systems(self):
        class ScalarOnly:
            name = "scalar-only"

        with pytest.raises(SimulationError, match="neither batch nor stream"):
            build_fused_item(0, ScalarOnly(), 1)

    def test_stream_flag_reflects_execution_mode(self):
        assert build_fused_item(0, make_system(), 1)[3] is False
        assert build_fused_item(0, stream_system(), 1)[3] is True

    def test_accepts_double_reading(self):
        assert build_fused_item(0, double_system(), 1)[3] is False
