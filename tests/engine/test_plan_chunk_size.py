"""Edge cases for adaptive chunk planning and degenerate chunk shapes.

Complements ``tests/engine/test_runtime.py::TestPlanChunkSize`` (the
budget/fair-share interplay) with the boundary shapes: empty and
single-case workloads, a requested chunk bigger than the workload, and
more workers than chunks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import EngineRuntime, evaluate_system_batch, plan_chunk_size
from repro.engine.executor import plan_chunks
from repro.engine.runtime import MIN_CHUNK_SIZE, _chunk_ranges
from repro.exceptions import SimulationError
from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload


class TestPlanChunkSizeEdges:
    def test_zero_cases_returns_the_floor(self):
        assert plan_chunk_size(0, 1) == MIN_CHUNK_SIZE
        assert plan_chunk_size(0, 16) == MIN_CHUNK_SIZE

    def test_negative_cases_treated_as_empty(self):
        assert plan_chunk_size(-5, 2) == MIN_CHUNK_SIZE

    def test_zero_cases_with_tiny_floor_still_positive(self):
        assert plan_chunk_size(0, 2, min_chunk_size=0) == 1

    def test_single_case_workload_plans_one_case_chunks(self):
        assert plan_chunk_size(1, 1) == 1
        assert plan_chunk_size(1, 64) == 1

    def test_workers_far_exceeding_cases_cap_at_workload(self):
        # Fair share would be sub-1-case chunks; the plan caps at n.
        assert plan_chunk_size(10, 64) == 10

    def test_plan_never_exceeds_workload(self):
        for n in (1, 2, 1023, 1024, 1025, 10_000):
            for workers in (1, 2, 7, 64):
                size = plan_chunk_size(n, workers)
                assert 1 <= size <= n

    def test_custom_floor_and_chunks_per_worker(self):
        # 8 workers x 2 chunks each over 1600 cases -> 100-case fair
        # share, kept (floor lowered below it).
        assert (
            plan_chunk_size(
                1600, 8, min_chunk_size=10, chunks_per_worker=2,
                bytes_per_case=1, target_chunk_bytes=1 << 20,
            )
            == 100
        )

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(SimulationError):
            plan_chunk_size(100, 0)
        with pytest.raises(SimulationError):
            plan_chunk_size(100, -2)


class TestDegenerateChunkShapes:
    def test_chunk_size_larger_than_workload_is_one_chunk(self):
        assert plan_chunks(10, 100) == [(0, 10)]

    def test_evaluation_with_oversized_chunk_matches_exact_fit(self):
        workload = make_workload(200)
        exact = evaluate_system_batch(
            make_system(), workload, seed=5, chunk_size=200
        )
        oversized = evaluate_system_batch(
            make_system(), workload, seed=5, chunk_size=10_000
        )
        # Both plans collapse to the single chunk [0, 200): same single
        # seeded generator, bit-identical tallies.
        assert failure_counts(oversized) == failure_counts(exact)

    def test_more_workers_than_chunks(self):
        workload = make_workload(300)
        serial = evaluate_system_batch(
            make_system(), workload, seed=5, chunk_size=100
        )
        with EngineRuntime(workers=8) as runtime:  # 3 chunks, 8 workers
            pooled = evaluate_system_batch(
                make_system(), workload, seed=5, chunk_size=100, runtime=runtime
            )
        assert failure_counts(pooled) == failure_counts(serial)

    @given(n_chunks=st.integers(1, 300), parts=st.integers(1, 64))
    def test_chunk_ranges_cover_every_chunk(self, n_chunks, parts):
        # The pool's chunk-range splitter: no empty range, at most one
        # range per part, contiguous, and covering every chunk once.
        ranges = _chunk_ranges(n_chunks, parts)
        assert 1 <= len(ranges) <= parts
        assert all(first < stop for first, stop in ranges)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_chunks
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - first for first, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert _chunk_ranges(2, 8) == [(0, 1), (1, 2)]
        assert _chunk_ranges(2, 1) == [(0, 2)]
