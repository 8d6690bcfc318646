"""Tests for the sweep compiler (repro.sweep.plan)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.obs import Instrumentation, use_instrumentation
from repro.sweep import ScenarioGrid, compile_grid
from repro.sweep.plan import _cell_seeds


def small_grid(**overrides):
    defaults = dict(
        name="plan",
        populations=("routine", "symptomatic"),
        num_cases=50,
        systems=("unaided", "assisted"),
        biases=("none", "mild"),
        operating_points=(0.0, 0.2),
        replicates=2,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestCompileGrid:
    def test_plan_covers_every_cell_exactly_once(self):
        grid = small_grid()
        plan = compile_grid(grid, seed=11)
        planned_ids = [cell.cell_id for cell in plan.cells()]
        grid_ids = [cell.cell_id for cell in grid.cells()]
        assert planned_ids == grid_ids
        assert len(plan) == len(grid)

    def test_workloads_deduplicated_by_key(self):
        plan = compile_grid(small_grid(), seed=11)
        # Two populations, one profile/size/fraction => two workloads
        # shared by all system variants and replicates.
        assert len(plan.workloads) == 2
        cells = list(plan.cells())
        for batch in (b for shard in plan.shards for b in shard.batches):
            assert all(
                cell.workload_key == batch.workload_key
                for cell in cells[batch.start : batch.stop]
            )

    def test_fusion_respects_fuse_limit(self):
        plan = compile_grid(small_grid(), seed=11, fuse_limit=4)
        sizes = [len(b) for shard in plan.shards for b in shard.batches]
        assert max(sizes) <= 4
        assert plan.fused_dispatches == len(sizes)

    def test_sharding_respects_shard_size(self):
        plan = compile_grid(small_grid(), seed=11, shard_size=5, fuse_limit=3)
        assert all(len(shard) <= 5 for shard in plan.shards)
        assert sum(len(shard) for shard in plan.shards) == len(plan)

    def test_fuse_limit_clamped_to_shard_size(self):
        # A dispatch must never span a checkpoint boundary.
        plan = compile_grid(small_grid(), seed=11, shard_size=3, fuse_limit=64)
        sizes = [len(b) for shard in plan.shards for b in shard.batches]
        assert max(sizes) <= 3
        assert all(len(shard) <= 3 for shard in plan.shards)

    def test_seeds_are_unique_and_stable(self):
        first = compile_grid(small_grid(), seed=42)
        second = compile_grid(small_grid(), seed=42)
        seeds = [cell.seed for cell in first.cells()]
        assert seeds == [cell.seed for cell in second.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_seeds_do_not_depend_on_scheduling(self):
        # Fusion and sharding are scheduling decisions only: the seed a
        # cell records must not change with shard/fuse geometry.
        wide = compile_grid(small_grid(), seed=42, shard_size=64, fuse_limit=32)
        narrow = compile_grid(small_grid(), seed=42, shard_size=2, fuse_limit=2)
        assert {c.cell_id: c.seed for c in wide.cells()} == {
            c.cell_id: c.seed for c in narrow.cells()
        }

    def test_master_seed_changes_cell_seeds(self):
        a = compile_grid(small_grid(), seed=1)
        b = compile_grid(small_grid(), seed=2)
        assert [c.seed for c in a.cells()] != [c.seed for c in b.cells()]

    def test_invalid_sizes_rejected(self):
        for kwargs in (
            {"chunk_size": 0},
            {"shard_size": 0},
            {"fuse_limit": -1},
        ):
            with pytest.raises(SimulationError, match="must be >= 1"):
                compile_grid(small_grid(), seed=1, **kwargs)

    def test_batches_and_shards_are_contiguous_index_runs(self):
        # The journal records a shard as its cell range, so shards (and
        # the batches inside them) must tile the index order exactly.
        plan = compile_grid(small_grid(), seed=11, shard_size=5, fuse_limit=3)
        assert [cell.index for cell in plan.cells()] == list(range(len(plan)))
        start = 0
        for position, shard in enumerate(plan.shards):
            assert (shard.index, shard.start) == (position, start)
            assert [b.start for b in shard.batches] == [shard.start] + [
                b.stop for b in shard.batches[:-1]
            ]
            assert shard.batches[-1].stop == shard.stop
            start = shard.stop
        assert start == len(plan)

    def test_cell_seeds_match_spawned_seed_sequences(self):
        # The vectorised derivation must give SeedSequence's own words,
        # for one-word, multi-word and beyond-the-pool master seeds.
        for seed in (0, 1, 9, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**130 + 7):
            for count in (0, 1, 2, 97):
                expected = [
                    int(child.generate_state(1)[0])
                    for child in np.random.SeedSequence(seed).spawn(count)
                ]
                assert _cell_seeds(seed, count) == expected, (seed, count)
        with pytest.raises(ValueError):
            _cell_seeds(-1, 3)

    def test_compile_emits_plan_gauges(self):
        obs = Instrumentation(name="test")
        with use_instrumentation(obs):
            plan = compile_grid(small_grid(), seed=7, shard_size=8)
        metrics = obs.metrics
        assert metrics.gauge("sweep.plan.cells").value == len(plan)
        assert metrics.gauge("sweep.plan.workloads").value == len(plan.workloads)
        assert metrics.gauge("sweep.plan.shards").value == len(plan.shards)


class TestSweepPlan:
    def test_cell_by_id_round_trip(self):
        plan = compile_grid(small_grid(), seed=9)
        for cell in plan.cells():
            assert plan.cell_by_id(cell.cell_id) is cell

    def test_cell_by_id_unknown_raises(self):
        plan = compile_grid(small_grid(), seed=9)
        with pytest.raises(SimulationError, match="not in this plan"):
            plan.cell_by_id("not-a-cell")

    def test_fingerprint_stable_for_same_inputs(self):
        a = compile_grid(small_grid(), seed=9)
        b = compile_grid(small_grid(), seed=9)
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize(
        "kwargs, shards, dispatches, fingerprint",
        [
            (dict(seed=9), 2, 4, "caee36e106b257810827220f33dfda78213b4be1"),
            (
                dict(seed=9, shard_size=5, fuse_limit=3),
                32,
                32,
                "a5a3c7c5c8d5fd22d4089fdd6d5ec2a1acffd109",
            ),
            (
                dict(seed=2**40 + 3, chunk_size=8),
                2,
                4,
                "8742ed14e43c09f3f97143c31a9c6c09fe2d4ea5",
            ),
        ],
    )
    def test_fingerprint_pinned(self, kwargs, shards, dispatches, fingerprint):
        # Recorded before the plan became columnar: the cell ids, seeds,
        # shards and fingerprint a journal names must not move.
        grid = small_grid(profiles=("trial", "field"), dynamics=("none", "fatigue"))
        plan = compile_grid(grid, **kwargs)
        assert (len(plan), len(plan.shards), plan.fused_dispatches) == (96, shards, dispatches)
        assert plan.fingerprint == fingerprint

    def test_fingerprint_sensitive_to_grid_seed_and_chunking(self):
        base = compile_grid(small_grid(), seed=9)
        variants = [
            compile_grid(small_grid(replicates=3), seed=9),
            compile_grid(small_grid(), seed=10),
            compile_grid(small_grid(), seed=9, chunk_size=8),
            compile_grid(small_grid(), seed=9, shard_size=4),
        ]
        prints = {plan.fingerprint for plan in variants}
        assert base.fingerprint not in prints
        assert len(prints) == len(variants)
