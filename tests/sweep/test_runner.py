"""Tests for the sweep runner (repro.sweep.runner).

The determinism contract under test: a cell's result depends only on its
recorded ``(seed, chunk_size)`` — never on fusion geometry, worker
count, journalling, or which other cells ran alongside it.
"""

import gc
import os
import weakref
from collections.abc import Mapping, Sequence

import numpy as np
import pytest

from repro.analysis.streaming import WelfordAccumulator
from repro.engine.fused import FusedCounts
from repro.engine.runtime import EngineRuntime, shared_memory_available
from repro.exceptions import SimulationError
from repro.obs import Instrumentation
from repro.screening import SubtletyClassifier
from repro.sweep import (
    ScenarioGrid,
    ShardStreamState,
    reproduce_cell,
    resume_sweep,
    run_sweep,
)


def small_grid(**overrides):
    defaults = dict(
        name="runner",
        populations=("routine", "symptomatic"),
        num_cases=40,
        systems=("unaided", "assisted"),
        biases=("none", "mild"),
        dynamics=("none", "adaptive"),
        operating_points=(0.0,),
        replicates=1,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestRunSweep:
    def test_complete_sweep_covers_every_cell(self):
        grid = small_grid()
        result = run_sweep(grid, seed=5)
        assert result.complete
        assert result.executed == len(grid)
        assert result.skipped == 0
        assert set(result.evaluations()) == {c.cell_id for c in grid.cells()}

    def test_fused_matches_standalone_reproduction(self):
        # Every cell — batch and adaptive-stream alike — must be
        # bit-identical to its standalone evaluate_system_batch replay.
        classifier = SubtletyClassifier()
        result = run_sweep(small_grid(), seed=5, classifier=classifier)
        evaluations = result.evaluations()
        for cell_id, evaluation in evaluations.items():
            assert evaluation == reproduce_cell(
                result.plan, cell_id, classifier=classifier
            ), f"fused result for {cell_id} differs from standalone replay"

    def test_results_independent_of_fusion_geometry(self):
        grid = small_grid()
        wide = run_sweep(grid, seed=5, shard_size=64, fuse_limit=32)
        narrow = run_sweep(grid, seed=5, shard_size=2, fuse_limit=1)
        assert wide.evaluations() == narrow.evaluations()

    def test_each_workload_is_released_after_its_last_shard(self):
        # The runner drops a workload, with its memos, once the shard
        # holding its last batch has run: no later shard sees it alive.
        tracked = []  # [weak reference, index of the last call using it]
        alive_at_call = []

        class TrackingRuntime(EngineRuntime):
            def run_fused(self, batches, **kwargs):
                gc.collect()
                alive_at_call.append([ref() is not None for ref, _ in tracked])
                for workload, _ in batches:
                    entry = next((e for e in tracked if e[0]() is workload), None)
                    if entry is None:
                        tracked.append(entry := [weakref.ref(workload), 0])
                    entry[1] = len(alive_at_call) - 1
                return super().run_fused(batches, **kwargs)

        grid = small_grid(profiles=("trial", "field"))
        with TrackingRuntime(workers=1) as runtime:
            result = run_sweep(grid, seed=5, shard_size=4, runtime=runtime)
        assert len(tracked) == len(result.plan.workloads) == 4
        released = [last_call < len(alive_at_call) - 1 for _, last_call in tracked]
        assert released.count(True) >= 3
        for position, (_, last_call) in enumerate(tracked):
            for alive in alive_at_call[last_call + 1 :]:
                assert not alive[position]
        assert result.evaluations() == run_sweep(grid, seed=5).evaluations()

    def test_serial_matches_parallel_workers(self):
        grid = small_grid()
        serial = run_sweep(grid, seed=5, workers=1)
        parallel = run_sweep(grid, seed=5, workers=2)
        assert serial.evaluations() == parallel.evaluations()

    def test_classifier_produces_per_class_breakdown(self):
        result = run_sweep(small_grid(), seed=5, classifier=SubtletyClassifier())
        evaluation = next(iter(result.evaluations().values()))
        assert evaluation.per_class_false_negative

    def test_rows_expose_grid_coordinates_and_counts(self):
        grid = small_grid()
        result = run_sweep(grid, seed=5)
        rows = result.rows()
        assert len(rows) == len(grid)
        row = rows[0]
        for column in (
            "cell_id",
            "seed",
            "population",
            "system",
            "bias",
            "dynamics",
            "replicate",
            "fn_failures",
            "fn_trials",
            "fp_failures",
            "fp_trials",
        ):
            assert column in row
        assert row["fn_trials"] + row["fp_trials"] == grid.num_cases

    def test_counters_track_completed_cells_and_dispatches(self):
        obs = Instrumentation(name="test")
        grid = small_grid()
        result = run_sweep(grid, seed=5, fuse_limit=4, obs=obs)
        metrics = obs.metrics
        assert metrics.counter("sweep.cells.completed").value == len(grid)
        assert metrics.counter("sweep.cells.skipped").value == 0
        assert metrics.counter("sweep.dispatches").value == result.plan.fused_dispatches
        assert metrics.counter("sweep.workloads.built").value == len(
            result.plan.workloads
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dispatches_are_traced_under_their_shard(self, workers):
        obs = Instrumentation(name="test")
        run_sweep(small_grid(), seed=5, workers=workers, obs=obs)
        records = obs.spans.records()
        shards = [r for r in records if r.name == "sweep.shard"]
        placed = [r for r in records if r.name == "runtime.evaluate"]
        assert len(placed) == len(shards)
        for record in placed:
            assert any(
                shard.started_s <= record.started_s
                and record.started_s + record.duration_s <= shard.started_s + shard.duration_s
                for shard in shards
            )
        chunks = [r for r in records if r.name == "runtime.chunk"]
        assert chunks
        if workers > 1:  # two workloads per shard: two batches, so pooled
            assert all(r.pid != os.getpid() for r in chunks)
            if shared_memory_available():
                assert any(r.name == "runtime.attach" for r in records)

    def test_invalid_arguments_rejected(self):
        grid = small_grid()
        with pytest.raises(SimulationError, match="workers"):
            run_sweep(grid, seed=5, workers=0)
        with pytest.raises(SimulationError, match="max_shards"):
            run_sweep(grid, seed=5, max_shards=-1)
        with pytest.raises(SimulationError, match="requires a journal"):
            run_sweep(grid, seed=5, resume=True)


class TestJournalling:
    def test_max_shards_returns_partial_result(self, tmp_path):
        grid = small_grid()
        journal = tmp_path / "sweep.jsonl"
        partial = run_sweep(
            grid, seed=5, journal=journal, shard_size=3, max_shards=2
        )
        assert not partial.complete
        assert partial.executed == 6
        assert journal.exists()

    def test_existing_journal_without_resume_refused(self, tmp_path):
        grid = small_grid()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(grid, seed=5, journal=journal, shard_size=3, max_shards=1)
        with pytest.raises(SimulationError, match="already exists"):
            run_sweep(grid, seed=5, journal=journal)

    def test_resume_skips_journalled_cells(self, tmp_path):
        grid = small_grid()
        journal = tmp_path / "sweep.jsonl"
        partial = run_sweep(
            grid, seed=5, journal=journal, shard_size=3, max_shards=2
        )
        obs = Instrumentation(name="test")
        resumed = resume_sweep(grid, seed=5, journal=journal, shard_size=3, obs=obs)
        assert resumed.complete
        assert resumed.skipped == partial.executed == 6
        assert resumed.executed == len(grid) - 6
        assert obs.metrics.counter("sweep.cells.skipped").value == 6
        assert obs.metrics.counter("sweep.cells.completed").value == len(grid) - 6

    def test_resume_rejects_journal_from_different_plan(self, tmp_path):
        grid = small_grid()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(grid, seed=5, journal=journal, shard_size=3, max_shards=1)
        with pytest.raises(SimulationError, match="different plan"):
            resume_sweep(grid, seed=6, journal=journal, shard_size=3)
        with pytest.raises(SimulationError, match="different plan"):
            resume_sweep(
                small_grid(replicates=2), seed=5, journal=journal, shard_size=3
            )

    def test_resume_with_fresh_journal_runs_everything(self, tmp_path):
        grid = small_grid()
        result = resume_sweep(grid, seed=5, journal=tmp_path / "new.jsonl")
        assert result.complete and result.skipped == 0


class TestShardStreamStates:
    def test_one_state_per_shard_and_totals_match_rows(self):
        grid = small_grid()
        result = run_sweep(grid, seed=5, shard_size=3)
        assert len(result.shard_states) == len(result.plan.shards)
        assert [s.shard for s in result.shard_states] == sorted(
            s.shard for s in result.shard_states
        )
        merged = result.stream_state()
        rows = result.rows()
        assert merged.cells == len(rows)
        assert merged.fn_failures == sum(r["fn_failures"] for r in rows)
        assert merged.fn_trials == sum(r["fn_trials"] for r in rows)
        assert merged.fp_failures == sum(r["fp_failures"] for r in rows)
        assert merged.fp_trials == sum(r["fp_trials"] for r in rows)

    def test_merged_totals_invariant_to_shard_partition(self):
        grid = small_grid()
        wide = run_sweep(grid, seed=5, shard_size=64).stream_state()
        narrow = run_sweep(grid, seed=5, shard_size=2).stream_state()
        for field in (
            "cells",
            "fn_failures",
            "fn_trials",
            "fp_failures",
            "fp_trials",
        ):
            assert getattr(wide, field) == getattr(narrow, field)
        # Per-cell moments see the same multiset of rates either way.
        assert wide.fn_rate.count == narrow.fn_rate.count
        assert wide.fn_rate.mean == pytest.approx(narrow.fn_rate.mean)

    def test_streaming_summary_shape(self):
        result = run_sweep(small_grid(), seed=5, shard_size=4)
        summary = result.streaming_summary()
        assert "shard" not in summary
        assert summary["shards"] == len(result.plan.shards)
        assert summary["cells"] == len(result.plan)
        for key in (
            "fn_failures",
            "fn_trials",
            "fp_failures",
            "fp_trials",
            "fn_rate",
            "fp_rate",
            "fn_rate_per_cell",
            "fp_rate_per_cell",
        ):
            assert key in summary

    def test_rate_moments_fold_cell_by_cell_then_shard_by_shard(self):
        # Derived from the matrix, the moments keep the journaled-state
        # era's fold order: cells in plan order within a shard, then a
        # parallel merge of the shards in shard order.
        result = run_sweep(small_grid(), seed=5, shard_size=3)
        merged = ShardStreamState()
        for shard in result.plan.shards:
            state = ShardStreamState(shard=shard.index)
            for cell in result.results[shard.start : shard.stop]:
                counts = cell.counts
                state.fn_rate.add(counts.cancer_failures / counts.cancer_trials)
                state.fp_rate.add(counts.healthy_failures / counts.healthy_trials)
            merged.fn_rate.merge(state.fn_rate)
            merged.fp_rate.merge(state.fp_rate)
        assert result.stream_state().fn_rate.state() == merged.fn_rate.state()
        assert result.stream_state().fp_rate.state() == merged.fp_rate.state()

    def test_merge_rejects_other_types(self):
        with pytest.raises(SimulationError, match="cannot merge"):
            ShardStreamState().merge({"cells": 1})
        with pytest.raises(SimulationError, match="cannot merge"):
            ShardStreamState().merge(WelfordAccumulator())

    def test_resume_restores_shard_states(self, tmp_path):
        grid = small_grid()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(grid, seed=5, journal=journal, shard_size=3, max_shards=2)
        resumed = resume_sweep(grid, seed=5, journal=journal, shard_size=3)
        assert resumed.complete
        assert len(resumed.shard_states) == len(resumed.plan.shards)
        fresh = run_sweep(grid, seed=5, shard_size=3)
        merged, baseline = resumed.stream_state(), fresh.stream_state()
        assert merged.cells == baseline.cells
        assert merged.fn_failures == baseline.fn_failures
        assert merged.fp_failures == baseline.fp_failures
        assert merged.fn_rate.count == baseline.fn_rate.count

    def test_progress_events_emitted(self):
        obs = Instrumentation(name="test")
        result = run_sweep(small_grid(), seed=5, shard_size=3, obs=obs)
        metrics = obs.metrics
        shards = len(result.plan.shards)
        assert metrics.counter("sweep.shards.completed").value == shards
        assert metrics.gauge("sweep.progress").value == 1.0
        marks = [
            event
            for event in metrics.timeline.events()
            if event.name == "sweep.shard.completed"
        ]
        assert [m.value for m in marks] == list(range(shards))


class TestResultViews:
    """Every per-cell view is derived from the count matrix when read."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(small_grid(), seed=5, classifier=SubtletyClassifier(), shard_size=3)

    def test_one_count_row_per_cell(self, result):
        classes = len(SubtletyClassifier().classes)
        assert result.counts.shape == (len(result.plan), 4 + 2 * classes)
        assert result.counts.dtype == np.int64
        for cell in result.results:
            assert cell.counts == FusedCounts.from_row(result.counts[cell.index], result.class_names)

    def test_evaluations_equal_an_eagerly_built_dict(self, result):
        eager = {cell.cell_id: cell.evaluation(result.level) for cell in result.results}
        evaluations = result.evaluations()
        assert isinstance(evaluations, Mapping)
        assert evaluations == eager and eager == evaluations
        assert list(evaluations) == list(result.plan.cell_ids)
        assert len(evaluations) == len(eager)

    def test_evaluations_unknown_id_raises_key_error(self, result):
        with pytest.raises(KeyError):
            result.evaluations()["not-a-cell"]
        assert "not-a-cell" not in result.evaluations()

    def test_unfinished_cells_are_absent(self, tmp_path):
        partial = run_sweep(
            small_grid(), seed=5, shard_size=3, max_shards=1, journal=tmp_path / "j.jsonl"
        )
        evaluations = partial.evaluations()
        assert len(evaluations) == len(partial.results) == 3
        fourth = partial.plan.cell_ids[3]
        assert fourth not in evaluations
        with pytest.raises(KeyError):
            evaluations[fourth]

    def test_evaluations_build_only_the_cells_read(self, result, monkeypatch):
        built = []
        original = FusedCounts.evaluation

        def counting(self, *args, **kwargs):
            built.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FusedCounts, "evaluation", counting)
        evaluations = result.evaluations()
        assert len(evaluations) == len(result.plan)
        ids = list(evaluations)
        assert built == []
        evaluations[ids[0]]
        evaluations[ids[-1]]
        assert len(built) == 2

    def test_results_is_a_sized_sequence_built_when_read(self, result):
        results = result.results
        assert isinstance(results, Sequence)
        assert len(results) == len(result.plan)
        assert results[-1].index == len(result.plan) - 1
        assert [cell.index for cell in results[2:5]] == [2, 3, 4]
        first = results[0]
        assert first.cell_id == result.plan.cell_ids[0]
        assert first.seed == result.plan.seeds[0]
        assert first.evaluation() == reproduce_cell(
            result.plan, first.cell_id, classifier=SubtletyClassifier()
        )
