"""The tentpole invariant: coalescing is invisible in the results.

A randomized swarm of concurrent clients — distinct seeds, mixed
workloads and systems — gets bit-identical responses whether requests
coalesce into fused dispatches or run one-per-dispatch
(``max_batch=1``), and both match standalone
:func:`~repro.engine.executor.evaluate_system_batch` runs of the same
``(seed, chunk_size)``.
"""

import asyncio
import multiprocessing
import os

import numpy as np

from repro.engine.executor import evaluate_system_batch
from repro.obs import Instrumentation
from repro.service import ScreeningService, ServiceConfig
from repro.sweep.grid import SystemSpec, WorkloadSpec

CHUNK_SIZE = 128

WORKLOADS = [
    WorkloadSpec(population="routine", num_cases=160),
    WorkloadSpec(population="young", num_cases=160),
]
SYSTEMS = [
    SystemSpec(kind="assisted", bias="mild"),
    SystemSpec(kind="unaided", bias="none"),
    SystemSpec(kind="assisted", bias="strong", dynamics="fatigue"),
]


def random_requests(count, rng):
    return [
        (
            WORKLOADS[rng.integers(len(WORKLOADS))],
            SYSTEMS[rng.integers(len(SYSTEMS))],
            int(rng.integers(1, 2**31)),
        )
        for _ in range(count)
    ]


def run_service(requests, *, max_batch, workers=1, obs=None):
    async def main():
        config = ServiceConfig(
            workers=workers,
            max_batch=max_batch,
            chunk_size=CHUNK_SIZE,
        )
        async with ScreeningService(config, obs=obs) as service:
            return await asyncio.gather(
                *(
                    service.evaluate(workload, system, seed=seed)
                    for workload, system, seed in requests
                )
            )

    return asyncio.run(main())


def standalone(requests, chunk_size=CHUNK_SIZE):
    built = {}
    results = []
    for workload, system, seed in requests:
        if workload.key() not in built:
            built[workload.key()] = workload.build()
        results.append(
            evaluate_system_batch(
                system.build(seed),
                built[workload.key()],
                seed=seed,
                chunk_size=chunk_size,
            )
        )
    return results


def assert_same_counts(got, reference):
    for evaluation, ref in zip(got, reference, strict=True):
        assert evaluation.false_negative == ref.false_negative
        assert evaluation.false_positive == ref.false_positive
        assert evaluation.per_class_false_negative == ref.per_class_false_negative


class TestCoalescingBitIdentity:
    def test_randomized_concurrent_clients_match_standalone(self):
        rng = np.random.default_rng(20260808)
        requests = random_requests(24, rng)
        coalesced = run_service(requests, max_batch=16)
        serial = run_service(requests, max_batch=1)
        reference = standalone(requests)
        for got, alone, ref in zip(coalesced, serial, reference):
            # SystemEvaluation is a frozen dataclass of counts and
            # Wilson intervals: equality here is bit-identity.
            assert got == alone
            assert got.false_negative == ref.false_negative
            assert got.false_positive == ref.false_positive
            assert got.per_class_false_negative == ref.per_class_false_negative

    def test_duplicate_seeds_on_one_workload_still_split_correctly(self):
        workload = WORKLOADS[0]
        requests = [(workload, SYSTEMS[0], 42), (workload, SYSTEMS[1], 42)]
        first, second = run_service(requests, max_batch=8)
        ref_first, ref_second = standalone(requests)
        assert first.false_negative == ref_first.false_negative
        assert second.false_negative == ref_second.false_negative

    def test_pooled_workers_match_standalone(self):
        rng = np.random.default_rng(7)
        requests = random_requests(8, rng)
        coalesced = run_service(requests, max_batch=8, workers=2)
        for got, ref in zip(coalesced, standalone(requests)):
            assert got.false_negative == ref.false_negative
            assert got.false_positive == ref.false_positive


class TestCoalescingObservables:
    def test_batches_and_metrics_reflect_coalescing(self):
        from repro.obs import Instrumentation

        obs = Instrumentation("service-test")
        requests = [(WORKLOADS[0], SYSTEMS[0], seed) for seed in range(6)]

        async def main():
            config = ServiceConfig(
                workers=1, max_batch=16, chunk_size=CHUNK_SIZE
            )
            async with ScreeningService(config, obs=obs) as service:
                return await asyncio.gather(
                    *(
                        service.evaluate(workload, system, seed=seed)
                        for workload, system, seed in requests
                    )
                )

        asyncio.run(main())
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["service.requests"] == 6
        assert snapshot["counters"]["service.dispatches"] == 1
        assert snapshot["counters"]["service.coalesced"] == 6
        assert snapshot["histograms"]["service.batch_size"]["max"] == 6
        assert snapshot["histograms"]["service.latency_s"]["count"] == 6
        assert "p99" in snapshot["histograms"]["service.latency_s"]

    def test_compare_is_one_dispatch_and_shares_the_seed(self):
        from repro.obs import Instrumentation

        obs = Instrumentation("service-test")
        workload = WORKLOADS[0]

        async def main():
            config = ServiceConfig(
                workers=1, max_batch=16, chunk_size=CHUNK_SIZE
            )
            async with ScreeningService(config, obs=obs) as service:
                return await service.compare(
                    workload, SYSTEMS, seed=99, level=0.95
                )

        evaluations = asyncio.run(main())
        references = standalone([(workload, system, 99) for system in SYSTEMS])
        for got, ref in zip(evaluations, references):
            assert got.false_negative == ref.false_negative
        assert obs.metrics.snapshot()["counters"]["service.dispatches"] == 1


class TestDispatchPlacement:
    """A batch runs where the runtime places a ``compare``: in-process when
    its workload fits one chunk, split into chunk ranges over the pool
    otherwise; the counts are the same either way."""

    def test_single_chunk_batches_run_in_process(self):
        obs = Instrumentation("service-test")
        requests = random_requests(8, np.random.default_rng(11))
        chunk_size = 256  # every 160-case workload is one chunk

        async def main():
            before = {child.pid for child in multiprocessing.active_children()}
            config = ServiceConfig(workers=2, max_batch=8, chunk_size=chunk_size)
            async with ScreeningService(config, obs=obs) as service:
                results = await asyncio.gather(
                    *(
                        service.evaluate(workload, system, seed=seed)
                        for workload, system, seed in requests
                    )
                )
                after = {child.pid for child in multiprocessing.active_children()}
            return results, after - before

        results, spawned = asyncio.run(main())
        assert spawned == set()
        assert "runtime.pool.launches" not in obs.metrics.snapshot()["counters"]
        placed = [r for r in obs.spans.records() if r.name == "runtime.evaluate"]
        assert placed and all(r.attrs["chunks"] == 1 for r in placed)
        assert_same_counts(results, standalone(requests, chunk_size=chunk_size))

    def test_multi_chunk_batches_split_over_the_pool(self):
        obs = Instrumentation("service-test")
        # 160 cases over 128-case chunks: two chunks; the fatigue system
        # travels whole as a stream task beside the two chunk ranges.
        requests = [(WORKLOADS[0], system, 500 + n) for n, system in enumerate(SYSTEMS)]
        results = run_service(requests, max_batch=8, workers=2, obs=obs)
        assert obs.metrics.snapshot()["counters"]["runtime.pool.launches"] == 1
        chunks = [r for r in obs.spans.records() if r.name == "runtime.chunk"]
        # Every item decides each of its two chunks once, in a pool worker.
        assert len(chunks) == 2 * len(requests)
        assert all(r.pid != os.getpid() for r in chunks)
        assert_same_counts(results, standalone(requests))
