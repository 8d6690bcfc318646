"""Engine-level observability: bit-identity, worker-span merging, and
degradation warnings.

These are the integration halves of the :mod:`repro.obs` contract:

* instrumentation never changes seeded results (on/off bit-identity);
* spans recorded inside worker processes merge back through the result
  channel with their worker pids intact;
* every silent fallback in the runtime now warns
  (:class:`RuntimeDegradationWarning`) exactly once per runtime per
  reason, while its counter records every event.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.core import CaseClass
from repro.engine import EngineRuntime, compare_systems_batch
from repro.engine import runtime as runtime_module
from repro.exceptions import RuntimeDegradationWarning
from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    get_instrumentation,
    use_instrumentation,
)
from repro.screening import SubtletyClassifier
from repro.system import DoubleReading, RecallPolicy
from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload
from tests.engine.test_runtime import named_system

SEED = 97
CHUNK = 64  # 500-case workload -> 8 chunks: genuinely multi-chunk


def degradation_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeDegradationWarning)]


class ClassifyOnlyClassifier:
    """A third-party-style classifier: per-case ``classify`` only."""

    _class = CaseClass("all")

    def classify(self, case):
        return self._class

    @property
    def classes(self):
        return (self._class,)


class TestBitIdentity:
    def test_seeded_comparison_identical_with_instrumentation_on_and_off(self):
        workload = make_workload()
        classifier = SubtletyClassifier()
        systems = [named_system(seed=4, name="a"), named_system(seed=9, name="b")]

        with EngineRuntime(workers=2) as runtime:
            plain = compare_systems_batch(
                systems, workload, classifier,
                seed=SEED, chunk_size=CHUNK, runtime=runtime,
            )
        obs = Instrumentation(name="test")
        with EngineRuntime(workers=2, obs=obs) as runtime:
            traced = compare_systems_batch(
                systems, workload, classifier,
                seed=SEED, chunk_size=CHUNK, runtime=runtime,
            )

        assert {n: failure_counts(e) for n, e in traced.items()} == {
            n: failure_counts(e) for n, e in plain.items()
        }
        # ... and the traced run actually recorded something.
        assert len(obs.spans) > 0

    def test_serial_runtime_identical_with_instrumentation_on_and_off(self):
        workload = make_workload()
        system = make_system()
        with EngineRuntime(workers=1) as runtime:
            plain = runtime.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
        with EngineRuntime(workers=1, obs=Instrumentation()) as runtime:
            traced = runtime.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
        assert failure_counts(traced) == failure_counts(plain)


class TestWorkerSpanMerging:
    def test_chunk_spans_come_back_from_worker_processes(self):
        obs = Instrumentation()
        with EngineRuntime(workers=2, obs=obs) as runtime:
            runtime.evaluate(make_system(), make_workload(), seed=SEED, chunk_size=CHUNK)
            shm = runtime.uses_shared_memory
        chunk_spans = [r for r in obs.spans.records() if r.name == "runtime.chunk"]
        assert len(chunk_spans) == 8
        # Chunk work ran on the pool, so its spans carry worker pids.
        assert all(record.pid != os.getpid() for record in chunk_spans)
        # Every chunk also lands in the wall-time histogram.
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["runtime.chunk.wall_s"]["count"] == 8
        if shm:
            attach_spans = [
                r for r in obs.spans.records() if r.name == "runtime.attach"
            ]
            assert 1 <= len(attach_spans) <= 2  # once per attaching worker
            assert snapshot["counters"]["runtime.shm.bytes_attached"] > 0
            assert snapshot["counters"]["runtime.shm.bytes_published"] > 0

    def test_parent_spans_describe_the_evaluation(self):
        obs = Instrumentation()
        with EngineRuntime(workers=2, obs=obs) as runtime:
            runtime.evaluate(make_system(), make_workload(), seed=SEED, chunk_size=CHUNK)
        by_name = {r.name: r for r in obs.spans.records()}
        evaluate = by_name["runtime.evaluate"]
        assert evaluate.pid == os.getpid()
        assert evaluate.attrs["cases"] == 500
        assert evaluate.attrs["chunks"] == 8
        assert evaluate.attrs["chunk_size"] == CHUNK
        assert "runtime.tally" in by_name
        assert "runtime.pool_launch" in by_name

    def test_cache_counters_record_hits_and_misses(self):
        obs = Instrumentation()
        workload = make_workload()
        classifier = SubtletyClassifier()
        with EngineRuntime(workers=1, obs=obs) as runtime:
            runtime.evaluate(make_system(), workload, classifier, seed=SEED)
            runtime.evaluate(make_system(), workload, classifier, seed=SEED)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.workload_cache.miss"] == 1.0
        assert counters["runtime.workload_cache.hit"] == 1.0
        assert counters["runtime.label_cache.miss"] == 1.0
        assert counters["runtime.label_cache.hit"] == 1.0


class TestAmbientResolution:
    def test_runtime_defaults_to_null_instrumentation(self):
        with EngineRuntime(workers=1) as runtime:
            assert runtime.obs is NULL_INSTRUMENTATION
            assert not runtime.obs.enabled

    def test_runtime_picks_up_ambient_instrumentation(self):
        obs = Instrumentation()
        with use_instrumentation(obs):
            with EngineRuntime(workers=1) as runtime:
                assert runtime.obs is obs
        assert get_instrumentation() is NULL_INSTRUMENTATION

    def test_explicit_obs_wins_over_ambient(self):
        ambient, explicit = Instrumentation(), Instrumentation()
        with use_instrumentation(ambient):
            with EngineRuntime(workers=1, obs=explicit) as runtime:
                assert runtime.obs is explicit


class TestDegradationWarnings:
    def test_no_shm_warns_once_at_construction(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "shared_memory_available", lambda: False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=2, obs=obs) as runtime:
                assert not runtime.uses_shared_memory
                assert runtime.degradations == frozenset({"no_shm"})
        (warning,) = degradation_warnings(caught)
        assert "no_shm" in str(warning.message)
        assert obs.metrics.snapshot()["counters"]["runtime.degraded.no_shm"] == 1.0

    def test_serial_runtime_does_not_warn_about_shm(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "shared_memory_available", lambda: False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with EngineRuntime(workers=1):
                pass
        assert degradation_warnings(caught) == []

    def test_unpicklable_system_warns_once_per_runtime(self):
        workload = make_workload()
        system = make_system()
        system.marker = lambda: None  # closures cannot be pickled
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=2, obs=obs) as runtime:
                first = runtime.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
                second = runtime.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
                assert runtime.degradations == frozenset({"unpicklable_system"})
        (warning,) = degradation_warnings(caught)  # once, not once per call
        assert "unpicklable_system" in str(warning.message)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.unpicklable_system"] == 2.0
        # The in-process fallback is still bit-identical to the serial path.
        assert failure_counts(first) == failure_counts(second)

    def test_scalar_classify_fallback_warns_once_per_runtime(self):
        workload = make_workload()
        classifier = ClassifyOnlyClassifier()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=1, obs=obs) as runtime:
                runtime.evaluate(make_system(), workload, classifier, seed=SEED)
                runtime.evaluate(make_system(), workload, classifier, seed=SEED)
        (warning,) = degradation_warnings(caught)  # label cache: one fallback
        assert "scalar_classify" in str(warning.message)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.scalar_classify"] == 1.0

    def test_temporal_readers_run_stream_with_zero_degradations(self):
        """The tentpole regression: adaptation/bias/fatigue workloads no
        longer fire ``unpicklable_system``/``scalar_classify`` (or any
        other degradation) — they run vectorized on the stream path."""
        from tests.engine.test_stateful_equivalence import SYSTEM_FACTORIES

        workload = make_workload()
        classifier = SubtletyClassifier()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=2, obs=obs) as runtime:
                for factory in SYSTEM_FACTORIES.values():
                    runtime.evaluate(
                        factory(), workload, classifier, seed=SEED, chunk_size=CHUNK
                    )
                assert runtime.degradations == frozenset()
        assert degradation_warnings(caught) == []
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("runtime.degraded.unpicklable_system", 0.0) == 0.0
        assert counters.get("runtime.degraded.scalar_classify", 0.0) == 0.0
        assert counters.get("runtime.degraded.scalar_system", 0.0) == 0.0
        # The stream genuinely ran chunked (one span per chunk, pooled).
        chunk_spans = [r for r in obs.spans.records() if r.name == "runtime.chunk"]
        assert len(chunk_spans) == 8 * len(SYSTEM_FACTORIES)
        assert all(record.pid != os.getpid() for record in chunk_spans)

    def test_genuinely_unvectorizable_system_still_degrades(self):
        """A custom scalar-only reader keeps the scalar fallback — and now
        says so via ``runtime.degraded.scalar_system``."""
        from tests.engine.test_stateful_equivalence import SEED as TEQ_SEED
        from repro.reader import MILD_BIAS, ReaderModel
        from repro.system import UnaidedReading

        class ScalarOnlyReader:
            """Stateful in a way the carry protocol does not model."""

            name = "scalar-only"

            def __init__(self):
                self._inner = ReaderModel(bias=MILD_BIAS, name="inner", seed=TEQ_SEED)
                self.mood = 0.0  # arbitrary untracked state

            def decide(self, case, cadt_output=None, rng=None):
                self.mood += 1.0
                return self._inner.decide(case, cadt_output, rng)

        workload = make_workload()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=2, obs=obs) as runtime:
                runtime.evaluate(
                    UnaidedReading(ScalarOnlyReader()), workload, seed=SEED
                )
                assert runtime.degradations == frozenset({"scalar_system"})
        (warning,) = degradation_warnings(caught)
        assert "scalar_system" in str(warning.message)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.scalar_system"] == 1.0

    def test_double_reading_with_fatigued_member_still_degrades(self):
        """Double reading is vectorized only over plain readers; a
        fatigued member keeps it on the scalar loop, and the runtime says
        so.  The plain-member twin in the same comparison does not."""
        from tests.engine.test_fallback import base_reader, fatigued_double

        plain = DoubleReading(
            [base_reader(5), base_reader(6)],
            RecallPolicy.ARBITRATION,
            arbiter=base_reader(7),
            name="plain",
        )
        workload = make_workload()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs = Instrumentation()
            with EngineRuntime(workers=1, obs=obs) as runtime:
                runtime.compare([plain, fatigued_double(5)], workload, seed=SEED)
                assert runtime.degradations == frozenset({"scalar_system"})
        (warning,) = degradation_warnings(caught)
        assert "double_arbitration" in str(warning.message)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.scalar_system"] == 1.0

    def test_unpicklable_stream_state_falls_back_to_serial_stream(self):
        """An unpicklable temporal system still runs *vectorized* — the
        degradation only moves the stream in-process."""
        from tests.engine.test_stateful_equivalence import (
            make_fatigued_system,
            reader_state,
        )

        workload = make_workload()
        reference = make_fatigued_system()
        with EngineRuntime(workers=1) as runtime:
            expected = runtime.evaluate(reference, workload, seed=SEED, chunk_size=CHUNK)
        system = make_fatigued_system()
        system.marker = lambda: None  # closures cannot be pickled
        with pytest.warns(RuntimeDegradationWarning, match="unpicklable_system"):
            obs = Instrumentation()
            with EngineRuntime(workers=2, obs=obs) as runtime:
                degraded = runtime.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
        assert failure_counts(degraded) == failure_counts(expected)
        assert reader_state(system) == reader_state(reference)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.unpicklable_system"] == 1.0

    def test_broken_pool_warns_and_recovers_in_process(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class ExplodingPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("injected")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        workload = make_workload()
        system = make_system()
        obs = Instrumentation()
        with EngineRuntime(workers=2, obs=obs) as runtime:
            reference = EngineRuntime(workers=1)
            expected = reference.evaluate(system, workload, seed=SEED, chunk_size=CHUNK)
            reference.close()
            monkeypatch.setattr(
                runtime, "_ensure_pool", lambda: ExplodingPool()
            )
            with pytest.warns(RuntimeDegradationWarning, match="broken_pool"):
                recovered = runtime.evaluate(
                    system, workload, seed=SEED, chunk_size=CHUNK
                )
        assert failure_counts(recovered) == failure_counts(expected)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.broken_pool"] == 1.0
