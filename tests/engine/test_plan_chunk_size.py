"""Degenerate chunk shapes: a requested chunk bigger than the workload,
and more workers than chunks."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.engine import EngineRuntime, evaluate_system_batch
from repro.engine.executor import plan_chunks
from repro.engine.runtime import _chunk_ranges
from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload


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
