"""Ranged fused tasks: the chunk range and traced switch of a task.

A :data:`~repro.engine.fused.FusedTask` carries a chunk range and a
traced switch after its plane, chunking, class codes and items.  Its
rows over a plan's chunk ranges must sum to the whole-plan row, a stream
item's final state must come back (and be committed), and tracing must
leave the counts alone.  The executor entry points, with no runtime
passed, must run on the same kernel and report through the runtime's
degradation channel.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core import CaseClass
from repro.engine import evaluate_system_batch
from repro.engine.fused import build_fused_item, cancer_class_codes, run_fused_batch
from repro.engine.runtime import _chunk_ranges
from repro.exceptions import RuntimeDegradationWarning
from repro.obs import Instrumentation, use_instrumentation
from repro.screening import SubtletyClassifier

from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload
from tests.engine.test_fused_equivalence import stream_system
from tests.engine.test_stateful_equivalence import reader_state


def ranged_task(workload, items, chunk_size, chunk_range=None, traced=False):
    classifier = SubtletyClassifier()
    arrays = workload.to_arrays()
    positions = arrays.cancer_index
    codes = cancer_class_codes(workload, classifier, arrays, positions)
    return (
        arrays, chunk_size, positions, codes, len(classifier.classes),
        tuple(items), chunk_range, traced,
    )


class TestRangedTasks:
    @pytest.mark.parametrize("chunk_size", [37, 100, 499])
    @pytest.mark.parametrize("parts", [2, 3, 7])
    def test_range_rows_sum_to_the_whole_plan_row(self, chunk_size, parts):
        workload = make_workload(500)
        n_chunks = -(-len(workload) // chunk_size)
        items = [build_fused_item(n, make_system(n), 40 + n) for n in range(2)]
        whole = run_fused_batch(ranged_task(workload, items, chunk_size))
        summed = sum(
            run_fused_batch(ranged_task(workload, items, chunk_size, chunk_range)).rows
            for chunk_range in _chunk_ranges(n_chunks, parts)
        )
        assert np.array_equal(summed, whole.rows)

    def test_stream_item_state_returned_and_committed(self):
        workload = make_workload(400)
        system = stream_system()
        output = run_fused_batch(
            ranged_task(workload, [build_fused_item(0, system, 9)], 64)
        )
        (state,) = output.states
        reference = stream_system()
        evaluate_system_batch(reference, workload, SubtletyClassifier(), seed=9, chunk_size=64)
        assert reader_state(system) == reader_state(reference)
        assert state.decrement.tolist() == [reader_state(reference)[0]]

    def test_traced_switch_returns_chunk_spans_and_the_same_rows(self):
        workload = make_workload(300)
        items = [build_fused_item(0, make_system(), 5), build_fused_item(1, stream_system(), 5)]
        plain = run_fused_batch(ranged_task(workload, items, 100))
        items = [build_fused_item(0, make_system(), 5), build_fused_item(1, stream_system(), 5)]
        traced = run_fused_batch(ranged_task(workload, items, 100, traced=True))
        assert plain.spans == []
        assert np.array_equal(plain.rows, traced.rows)
        assert [name for name, *_ in traced.spans] == ["runtime.chunk"] * 6
        assert [attrs for _, attrs, _, _ in traced.spans[:3]] == [
            {"start": 0, "stop": 100},
            {"start": 100, "stop": 200},
            {"start": 200, "stop": 300},
        ]
        assert all(pid == os.getpid() for *_, pid in traced.spans)


class ClassifyOnlyClassifier:
    """Per-case ``classify`` only: the scalar classification fallback."""

    _class = CaseClass("all")

    def classify(self, case):
        return self._class

    @property
    def classes(self):
        return (self._class,)


class TestPerCallExecutor:
    def test_per_call_stream_pools_and_commits(self):
        obs = Instrumentation()
        system = stream_system()
        with use_instrumentation(obs):
            pooled = evaluate_system_batch(
                system, make_workload(), seed=3, chunk_size=64, workers=2
            )
        reference = stream_system()
        serial = evaluate_system_batch(reference, make_workload(), seed=3, chunk_size=64)
        assert failure_counts(pooled) == failure_counts(serial)
        assert reader_state(system) == reader_state(reference)
        chunk_spans = [r for r in obs.spans.records() if r.name == "runtime.chunk"]
        assert len(chunk_spans) == 8
        assert all(record.pid != os.getpid() for record in chunk_spans)

    def test_scalar_classify_reports_through_the_runtime_channel(self):
        obs = Instrumentation()
        with warnings.catch_warnings(record=True) as caught, use_instrumentation(obs):
            warnings.simplefilter("always")
            evaluate_system_batch(
                make_system(), make_workload(), ClassifyOnlyClassifier(), seed=1
            )
        assert any(
            issubclass(w.category, RuntimeDegradationWarning)
            and "scalar_classify" in str(w.message)
            for w in caught
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.scalar_classify"] == 1.0
        assert "executor.scalar_classify" not in counters
