"""EngineRuntime: pooled workers, the shared-memory plane, class-code memos."""

import threading
import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cadt import Cadt
from repro.engine import (
    EngineRuntime,
    compare_systems_batch,
    evaluate_system_batch,
    shared_memory_available,
)
from repro.engine import runtime as runtime_module
from repro.engine.arrays import ENTRIES_PER_KIND
from repro.exceptions import RuntimeDegradationWarning, SimulationError
from repro.obs import Instrumentation
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import SingleClassClassifier, SubtletyClassifier

from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload
from tests.engine.test_fused_equivalence import stream_system
from tests.engine.test_stateful_equivalence import reader_state
from repro.system import AssistedReading


def named_system(seed=4, name=None):
    reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)
    return AssistedReading(reader, Cadt(seed=seed + 1000), name=name)


def type_name(value):
    """Picklable by reference, and defined for any item, picklable or not."""
    return type(value).__name__


class FailingBatchSystem:
    """Picklable stateless system whose decide_batch always raises."""

    name = "failing"
    supports_batch = True

    def decide_batch(self, chunk, rng=None):
        raise ValueError("injected decide_batch failure")


class CountingClassifier(SubtletyClassifier):
    """The subtlety criterion, counting its per-batch classification passes."""

    def __init__(self):
        super().__init__()
        self.passes = 0

    def classify_batch(self, arrays):
        self.passes += 1
        return super().classify_batch(arrays)


class TestChunkSizeContract:
    """``chunk_size`` is an integer >= 1 on every entry point, checked
    before any classification, publication or decision."""

    @pytest.mark.parametrize("chunk_size", [None, 0, -1, 2.5, True])
    def test_refused_before_any_work(self, chunk_size):
        workload, classifier = make_workload(300), CountingClassifier()
        with EngineRuntime(workers=2) as runtime:
            with pytest.raises(SimulationError, match="chunk_size"):
                runtime.run_fused(
                    [(workload, [(FailingBatchSystem(), 1)])],
                    classifier=classifier, chunk_size=chunk_size,
                )
            with pytest.raises(SimulationError, match="chunk_size"):
                runtime.compare(
                    [FailingBatchSystem()], workload, classifier, seed=1, chunk_size=chunk_size
                )
            assert runtime.pool_launches == 0
            assert runtime.active_segments == ()
        with pytest.raises(SimulationError, match="chunk_size"):
            evaluate_system_batch(
                FailingBatchSystem(), workload, classifier, seed=1, chunk_size=chunk_size
            )
        assert classifier.passes == 0


class TestDeterminism:
    def test_seeded_bit_identical_across_worker_counts(self):
        workload = make_workload(3000)
        reference = evaluate_system_batch(
            make_system(), workload, seed=11, chunk_size=512
        )
        for workers in (1, 2, 4):
            with EngineRuntime(workers=workers) as runtime:
                evaluation = evaluate_system_batch(
                    make_system(),
                    workload,
                    seed=11,
                    chunk_size=512,
                    runtime=runtime,
                )
            assert failure_counts(evaluation) == failure_counts(reference)

    def test_unseeded_runtime_matches_serial_batch(self):
        workload = make_workload(800)
        serial = evaluate_system_batch(make_system(), workload, seed=None)
        with EngineRuntime(workers=2) as runtime:
            pooled = evaluate_system_batch(
                make_system(), workload, seed=None, runtime=runtime
            )
        assert failure_counts(pooled) == failure_counts(serial)

    def test_fallback_path_matches_shared_memory_path(self, monkeypatch):
        workload = make_workload(2500)
        with monkeypatch.context() as patch:
            patch.setattr(runtime_module, "shared_memory_available", lambda: False)
            with pytest.warns(RuntimeDegradationWarning, match="no_shm"):
                no_shm = EngineRuntime(workers=2)
        with no_shm:
            assert not no_shm.uses_shared_memory
            pickled = evaluate_system_batch(
                make_system(), workload, seed=7, chunk_size=500, runtime=no_shm
            )
            assert no_shm.active_segments == ()
        with EngineRuntime(workers=2) as with_shm:
            shared = evaluate_system_batch(
                make_system(), workload, seed=7, chunk_size=500, runtime=with_shm
            )
        assert failure_counts(pickled) == failure_counts(shared)

    def test_classifier_breakdown_identical_through_runtime(self):
        workload = make_workload(1500)
        classifier = SubtletyClassifier()
        reference = evaluate_system_batch(
            make_system(), workload, classifier, seed=3, chunk_size=300
        )
        with EngineRuntime(workers=2) as runtime:
            pooled = evaluate_system_batch(
                make_system(),
                workload,
                classifier,
                seed=3,
                chunk_size=300,
                runtime=runtime,
            )
        assert failure_counts(pooled) == failure_counts(reference)


class TestPoolReuse:
    def test_one_pool_across_many_calls(self):
        workload = make_workload(2500)
        with EngineRuntime(workers=2) as runtime:
            for seed in (1, 2, 3):
                runtime.evaluate(make_system(), workload, seed=seed, chunk_size=500)
            assert runtime.pool_launches == 1

    def test_compare_systems_batch_uses_one_pool(self, monkeypatch):
        launches = []
        real_pool = runtime_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            launches.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "ProcessPoolExecutor", counting_pool)
        workload = make_workload(2500)
        results = compare_systems_batch(
            [named_system(1, "a"), named_system(2, "b"), named_system(3, "c")],
            workload,
            seed=11,
            chunk_size=500,
            workers=2,
        )
        assert set(results) == {"a", "b", "c"}
        assert len(launches) == 1

    def test_pooled_runtime_publishes_a_workload_once_across_calls(self):
        workload = make_workload(1200)
        with EngineRuntime(workers=2) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            runtime.evaluate(make_system(), workload, seed=1, chunk_size=400)
            published = runtime.active_segments
            runtime.evaluate(make_system(), workload, seed=2, chunk_size=400)
            assert len(published) == 1
            assert runtime.active_segments == published

    def test_serial_runtime_holds_no_plane(self):
        workload = make_workload(1200)
        with EngineRuntime(workers=1) as runtime:
            runtime.evaluate(make_system(), workload, seed=1, chunk_size=400)
            runtime.compare([make_system()], workload, seed=2, chunk_size=400)
            assert runtime.active_segments == ()
            assert runtime.shm_bytes_live == 0


class TestClassCodeMemo:
    """A classifier's cancer-class codes are a bounded memo on the
    workload's arrays, shared by every runtime that reads them."""

    def test_fresh_runtimes_classify_a_workload_once(self):
        workload, classifier = make_workload(1500), CountingClassifier()
        counts = []
        for _ in range(2):
            with EngineRuntime(workers=1) as runtime:
                evaluation = runtime.evaluate(
                    make_system(), workload, classifier, seed=3, chunk_size=300
                )
            counts.append(failure_counts(evaluation))
        assert classifier.passes == 1
        assert counts[0] == counts[1]

    def test_classifier_less_calls_keep_a_bounded_memo(self):
        # Every call without a classifier shares DEFAULT_CLASSIFIER, so
        # the arrays hold its one entry (of at most ENTRIES_PER_KIND).
        workload = make_workload(2000)
        with EngineRuntime(workers=1) as runtime:
            counts = [
                [failure_counts(e) for e in runtime.compare([make_system()], workload, seed=5).values()]
                for _ in range(50)
            ]
        entries = workload.to_arrays().derived("class_codes", dict)
        assert len(entries) == 1 < ENTRIES_PER_KIND == 8
        assert counts == [counts[0]] * 50

    def test_classifier_less_calls_share_one_pass(self, monkeypatch):
        # A classifier-less call used to bring a fresh classifier: eight
        # of them classified eight times and evicted the subtlety entry.
        passes = {SingleClassClassifier: 0, SubtletyClassifier: 0}
        for kind in passes:
            def counting(self, arrays, _kind=kind, _original=kind.classify_batch):
                passes[_kind] += 1
                return _original(self, arrays)

            monkeypatch.setattr(kind, "classify_batch", counting)
        workload, subtlety = make_workload(1500), SubtletyClassifier()
        evaluate_system_batch(make_system(), workload, subtlety, seed=1)
        for seed in range(8):
            evaluate_system_batch(make_system(), workload, seed=seed)
        evaluate_system_batch(make_system(), workload, subtlety, seed=1)
        assert passes == {SingleClassClassifier: 1, SubtletyClassifier: 1}
        assert len(workload.to_arrays().derived("class_codes", dict)) == 2


@pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory in this environment"
)
class TestSegmentLifecycle:
    def test_segments_cleaned_up_on_close(self):
        workload = make_workload(2500)
        runtime = EngineRuntime(workers=2)
        try:
            runtime.evaluate(make_system(), workload, seed=5, chunk_size=500)
            names = runtime.active_segments
            assert names  # the workload was published
        finally:
            runtime.close()
        assert runtime.active_segments == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_cleaned_up_after_worker_exception(self):
        workload = make_workload(2500)
        runtime = EngineRuntime(workers=2)
        try:
            with pytest.raises(ValueError, match="injected"):
                runtime.evaluate(
                    FailingBatchSystem(), workload, seed=5, chunk_size=500
                )
            names = runtime.active_segments
            # The pool survives the worker exception and stays reusable.
            evaluation = runtime.evaluate(
                make_system(), workload, seed=5, chunk_size=500
            )
            assert evaluation.false_negative is not None
        finally:
            runtime.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_final(self):
        runtime = EngineRuntime(workers=1)
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(SimulationError):
            runtime.evaluate(make_system(), make_workload(50), seed=1)


class TestRuntimeApi:
    def test_compare_shares_everything(self):
        workload = make_workload(2500)
        with EngineRuntime(workers=2) as runtime:
            pooled = runtime.compare(
                [named_system(1, "a"), named_system(2, "b")],
                workload,
                seed=11,
                chunk_size=500,
            )
            assert runtime.pool_launches == 1
            assert len(runtime.active_segments) == 1
        serial = compare_systems_batch(
            [named_system(1, "a"), named_system(2, "b")],
            workload,
            seed=11,
            chunk_size=500,
        )
        assert {k: failure_counts(v) for k, v in pooled.items()} == {
            k: failure_counts(v) for k, v in serial.items()
        }

    def test_compare_rejects_duplicate_names(self):
        with EngineRuntime(workers=1) as runtime:
            with pytest.raises(SimulationError):
                runtime.compare(
                    [named_system(1, "same"), named_system(2, "same")],
                    make_workload(100),
                    seed=1,
                )

    def test_map_preserves_order(self):
        with EngineRuntime(workers=2) as runtime:
            assert runtime.map(abs, [-3, 1, -2]) == [3, 1, 2]

    def test_map_falls_back_for_unpicklable_functions(self):
        with EngineRuntime(workers=2) as runtime:
            doubled = runtime.map(lambda x: 2 * x, [1, 2, 3])
        assert doubled == [2, 4, 6]

    def test_map_falls_back_for_an_unpicklable_later_item(self):
        obs = Instrumentation()
        with EngineRuntime(workers=2, obs=obs) as runtime:
            with pytest.warns(RuntimeDegradationWarning, match="unpicklable_map"):
                names = runtime.map(type_name, [1, 2.0, threading.Lock()])
            assert runtime.degradations == frozenset({"unpicklable_map"})
        assert names == ["int", "float", "lock"]
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.unpicklable_map"] == 1.0

    def test_map_raises_what_the_function_raises_on_the_pool(self):
        with EngineRuntime(workers=2) as runtime:
            with pytest.raises(TypeError, match="bad operand type for abs"):
                runtime.map(abs, [-1, "x", -3])
            assert runtime.degradations == frozenset()
            assert runtime.map(abs, [-4]) == [4]

    def test_map_fallback_leaves_a_pool_that_closes(self):
        """Tasks that fail to pickle settle before the pool shuts down,
        so closing right after the fallback cannot hang."""
        results = []

        def round_trips():
            for _ in range(3):
                with EngineRuntime(workers=2) as runtime:
                    results.append(runtime.map(abs, [-1, 2]))
                    results.append(runtime.map(lambda x: 2 * x, range(8)))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeDegradationWarning)
            worker = threading.Thread(target=round_trips, daemon=True)
            worker.start()
            worker.join(timeout=120)
        assert not worker.is_alive()
        assert results == [[1, 2], [0, 2, 4, 6, 8, 10, 12, 14]] * 3

    def test_map_empty(self):
        with EngineRuntime(workers=2) as runtime:
            assert runtime.map(abs, []) == []

    def test_temporal_reader_runs_on_stream_path(self):
        # A fatigued reader now takes the ordered stream-carry path
        # through the runtime — no degradation — and counts every case.
        from repro.system import UnaidedReading
        from repro.reader import FatiguedReader

        reader = FatiguedReader(
            ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=2),
            seed=2,
        )
        workload = make_workload(200)
        with EngineRuntime(workers=2) as runtime:
            evaluation = runtime.evaluate(
                UnaidedReading(reader), workload, seed=3
            )
            assert runtime.degradations == frozenset()
        total = (
            evaluation.false_negative.trials + evaluation.false_positive.trials
        )
        assert total == len(workload)

    def test_drifting_system_falls_back_to_scalar(self):
        # A drifting CADT is stateful in a way the reader-state carry
        # does not model: it routes to the scalar loop (and says so).
        import warnings

        from repro.cadt import Cadt
        from repro.system import AssistedReading

        reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=2)
        system = AssistedReading(reader, Cadt(drift_per_case=1e-5, seed=4))
        workload = make_workload(200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with EngineRuntime(workers=2) as runtime:
                evaluation = runtime.evaluate(system, workload, seed=3)
                assert runtime.degradations == frozenset({"scalar_system"})
        total = (
            evaluation.false_negative.trials + evaluation.false_positive.trials
        )
        assert total == len(workload)

    def test_rejects_bad_construction(self):
        with pytest.raises(SimulationError):
            EngineRuntime(workers=0)
        with pytest.raises(SimulationError):
            EngineRuntime(max_cached_workloads=0)

    def test_lru_eviction_unlinks_segments(self):
        runtime = EngineRuntime(workers=2, max_cached_workloads=1)
        try:
            first = make_workload(1500, seed=1)
            second = make_workload(1500, seed=2)
            runtime.evaluate(make_system(), first, seed=5, chunk_size=300)
            evicted = runtime.active_segments
            runtime.evaluate(make_system(), second, seed=5, chunk_size=300)
            assert len(runtime.active_segments) == int(runtime.uses_shared_memory)
            assert not set(evicted) & set(runtime.active_segments)
            if shared_memory_available():
                for name in evicted:
                    with pytest.raises(FileNotFoundError):
                        shared_memory.SharedMemory(name=name)
        finally:
            runtime.close()


class TestShmByteBudget:
    """LRU segment eviction under the shm_byte_budget cap."""

    def test_rejects_bad_budget(self):
        with pytest.raises(SimulationError, match="shm_byte_budget"):
            EngineRuntime(shm_byte_budget=0)

    def test_no_budget_keeps_every_segment(self):
        from repro.obs import Instrumentation

        obs = Instrumentation(name="test")
        with EngineRuntime(workers=2, obs=obs) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            runtime.publish_workload(make_workload(800, seed=1))
            runtime.publish_workload(make_workload(800, seed=2))
            assert len(runtime.active_segments) == 2
            assert runtime.shm_bytes_live > 0
        assert obs.metrics.counter("runtime.shm.evicted").value == 0

    def test_budget_evicts_lru_segment_and_counts(self):
        from repro.obs import Instrumentation

        obs = Instrumentation(name="test")
        # A 1-byte budget forces every publication to evict everything
        # except the segment just published (which is never evicted).
        with EngineRuntime(workers=2, shm_byte_budget=1, obs=obs) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            runtime.publish_workload(make_workload(800, seed=1))
            first = runtime.active_segments
            assert len(first) == 1
            runtime.publish_workload(make_workload(800, seed=2))
            assert obs.metrics.counter("runtime.shm.evicted").value == 1
            # Only the fresh segment is live; the evicted name is gone.
            assert len(runtime.active_segments) == 1
            assert runtime.active_segments != first
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first[0])

    def test_segments_gauge_counts_the_planes_left_after_a_trim(self):
        obs = Instrumentation(name="test")
        with EngineRuntime(workers=2, max_cached_workloads=1, obs=obs) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            runtime.publish_workload(make_workload(800, seed=1))
            runtime.publish_workload(make_workload(800, seed=2))
            assert len(runtime.active_segments) == 1
            assert obs.metrics.snapshot()["gauges"]["runtime.shm.segments"] == 1.0

    def test_evicted_workload_republishes_on_next_use(self):
        from repro.obs import Instrumentation

        obs = Instrumentation(name="test")
        with EngineRuntime(workers=2, shm_byte_budget=1, obs=obs) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            first = make_workload(800, seed=1)
            second = make_workload(800, seed=2)
            runtime.publish_workload(first)
            runtime.publish_workload(second)  # evicts first's segment
            _, spec = runtime.publish_workload(first)  # republish
            assert spec is not None
            assert obs.metrics.counter("runtime.shm.evicted").value == 2

    def test_results_identical_under_budget_pressure(self):
        workloads = [make_workload(600, seed=i) for i in range(3)]
        system = make_system()
        serial = [
            evaluate_system_batch(system, w, seed=9, chunk_size=200)
            for w in workloads
        ]
        with EngineRuntime(workers=2, shm_byte_budget=1) as runtime:
            pooled = [
                runtime.evaluate(system, w, seed=9, chunk_size=200)
                for w in workloads
            ]
        assert serial == pooled

    def test_publish_workload_serial_runtime_returns_no_spec(self):
        with EngineRuntime(workers=1) as runtime:
            arrays, spec = runtime.publish_workload(make_workload(400, seed=3))
            assert spec is None
            assert len(arrays.has_cancer) == 400

    def test_publish_on_closed_runtime_raises(self):
        runtime = EngineRuntime(workers=1)
        runtime.close()
        with pytest.raises(SimulationError, match="closed"):
            runtime.publish_workload(make_workload(400, seed=3))


class TestRunFusedBatches:
    """``run_fused`` places every batch of a call by one rule: a call with
    more than one batch, or a multi-chunk batch, goes to the pool."""

    @staticmethod
    def batches():
        # 300 cases over 128-case chunks: three chunk ranges' worth of
        # batch items plus a stream part; 100 cases: one chunk, whole.
        return [
            (make_workload(300, seed=1), [(named_system(1, "a"), 11), (stream_system(2), 12)]),
            (make_workload(100, seed=2), [(named_system(3, "b"), 21), (stream_system(4), 22)]),
        ]

    def test_two_batches_pool_once_and_equal_each_batch_alone(self):
        classifier = SubtletyClassifier()
        alone = self.batches()
        with EngineRuntime(workers=1) as serial:
            expected = [
                serial.run_fused([batch], classifier=classifier, chunk_size=128)[0]
                for batch in alone
            ]
        together = self.batches()
        with EngineRuntime(workers=2) as runtime:
            rows = runtime.run_fused(together, classifier=classifier, chunk_size=128)
            assert runtime.pool_launches == 1
        assert [r.dtype for r in rows] == [np.int64, np.int64]
        assert all(np.array_equal(got, want) for got, want in zip(rows, expected))
        # The stream items' final states came back from the pool.
        assert [reader_state(system) for _, items in together for system, _ in items[1:]] == [
            reader_state(system) for _, items in alone for system, _ in items[1:]
        ]

    def test_one_single_chunk_batch_launches_no_pool(self):
        classifier = SubtletyClassifier()
        with EngineRuntime(workers=2) as runtime:
            (batch, _) = self.batches()
            runtime.run_fused([batch], classifier=classifier, chunk_size=300)
            assert runtime.pool_launches == 0
            # Two single-chunk batches are more than one batch: pooled.
            runtime.run_fused(self.batches(), classifier=classifier, chunk_size=300)
            assert runtime.pool_launches == 1

    def test_every_plane_of_a_call_outlives_its_tasks(self, monkeypatch):
        # One plane and one byte of shared memory: each batch's plane must
        # stay published until the call's tasks finish, and be released
        # (not leaked) once the call trims the planes.
        created = []
        publish = runtime_module._publish_arrays

        def recording(arrays):
            segment, spec = publish(arrays)
            created.append(spec.name)
            return segment, spec

        monkeypatch.setattr(runtime_module, "_publish_arrays", recording)
        classifier = SubtletyClassifier()
        with EngineRuntime(workers=1) as serial:
            expected = serial.run_fused(self.batches(), classifier=classifier, chunk_size=128)
        with EngineRuntime(workers=2, max_cached_workloads=1, shm_byte_budget=1) as runtime:
            if not runtime.uses_shared_memory:
                pytest.skip("shared memory unavailable")
            rows = runtime.run_fused(self.batches(), classifier=classifier, chunk_size=128)
            assert len(runtime.active_segments) == 1
            live = set(runtime.active_segments)
        assert all(np.array_equal(got, want) for got, want in zip(rows, expected))
        assert len(created) == 2 and len(live) == 1
        for name in set(created) - live:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
