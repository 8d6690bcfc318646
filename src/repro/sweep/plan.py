"""The sweep compiler: scenario grids to fused, sharded execution plans.

Compilation does three things a naive per-cell loop cannot:

* **Seed assignment.**  Every cell receives an integer seed from
  ``SeedSequence(master).spawn(n_cells)``, recorded on the plan.  The
  seed — together with the plan's ``chunk_size`` — fully determines the
  cell's result, so any cell is reproducible standalone through
  :func:`~repro.engine.executor.evaluate_system_batch` long after the
  sweep ran (see :func:`repro.sweep.runner.reproduce_cell`).
* **Workload deduplication.**  Each distinct
  :class:`~repro.sweep.grid.WorkloadSpec` and
  :class:`~repro.sweep.grid.SystemSpec` is built once, its key or label
  formatted once, and every cell refers to them by index; each distinct
  workload is materialised, columnised, classified, and (under a
  parallel runtime) published to shared memory exactly once per run,
  however many cells share it.
* **Fusion + sharding.**  A grid's cells run workload by workload, so
  every workload's cells form one contiguous index run.  Runs split into
  :class:`FusedBatch` dispatches (one pool round-trip executes many
  cells against one set of arrays), and batches pack into
  :class:`Shard`\\ s — the checkpoint granularity: the runner journals
  after every completed shard, and ``resume`` restores whole shards
  already journalled.  Batches and shards are contiguous index ranges.

The plan's :attr:`~SweepPlan.fingerprint` covers the grid, the master
seed, the chunking, and every (cell id, cell seed) pair; a journal
records it so resuming against a different grid or seed fails loudly
instead of silently mixing results.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from ..exceptions import SimulationError
from ..obs import get_instrumentation
from .grid import ScenarioCell, ScenarioGrid, SystemSpec, WorkloadSpec

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_FUSE_LIMIT",
    "PlannedCell",
    "FusedBatch",
    "Shard",
    "SweepPlan",
    "compile_grid",
]

#: Cells per shard (the checkpoint granularity) unless overridden.
DEFAULT_SHARD_SIZE = 64

#: Cells per fused dispatch unless overridden.  Large enough that the
#: dispatch round-trip amortises well, small enough that one dispatch is
#: not itself a straggler.
DEFAULT_FUSE_LIMIT = 32


@dataclass(frozen=True)
class PlannedCell:
    """A scenario cell with its execution identity attached.

    Attributes:
        index: Position in the grid's canonical cell order.
        cell: The declarative cell.
        seed: The recorded evaluation seed (drives the chunk generators,
            exactly as ``evaluate_system_batch(..., seed=seed)`` would).
        workload_key: The cell's workload identity (dedup/fusion key).
        cell_id: The cell's stable identity (journal/report key).
    """

    index: int
    cell: ScenarioCell
    seed: int
    workload_key: str
    cell_id: str


@dataclass(frozen=True)
class FusedBatch:
    """Cells ``start`` to ``stop`` fused into one dispatch: one workload, many systems."""

    workload_key: str
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Shard:
    """One checkpoint unit, cells ``start`` to ``stop``: a run journals after each."""

    index: int
    start: int
    stop: int
    batches: tuple[FusedBatch, ...]

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """A compiled, executable sweep: one row of arrays per cell, in index order.

    Attributes:
        grid: The source grid.
        seed: The master seed every cell seed derives from.
        chunk_size: Chunk size every cell evaluates with (part of the
            determinism contract: results depend on ``(seed, chunk_size)``).
        shard_size: Cells per checkpoint shard.
        shards: The execution order.
        workloads: Distinct workload specs by key — what dedup bought.
        systems: Distinct system specs, in grid order.
        cell_ids: Every cell's stable identity.
        seeds: Every cell's recorded seed.
        cell_workload: Every cell's workload, as a position in ``workloads``.
        cell_system: Every cell's system, as a position in ``systems``.
        cell_replicate: Every cell's replicate number.
    """

    grid: ScenarioGrid
    seed: int
    chunk_size: int
    shard_size: int
    shards: tuple[Shard, ...]
    workloads: Mapping[str, WorkloadSpec]
    systems: tuple[SystemSpec, ...]
    cell_ids: tuple[str, ...]
    seeds: tuple[int, ...]
    cell_workload: np.ndarray
    cell_system: np.ndarray
    cell_replicate: np.ndarray

    def cells(self) -> Iterator[PlannedCell]:
        """Every planned cell, in execution (index) order."""
        return iter(self._planned)

    def __len__(self) -> int:
        return len(self.cell_ids)

    @property
    def fused_dispatches(self) -> int:
        """Total fused dispatches across all shards."""
        return sum(len(shard.batches) for shard in self.shards)

    @cached_property
    def workload_keys(self) -> tuple[str, ...]:
        """The distinct workloads' keys, by position (what ``cell_workload`` indexes)."""
        return tuple(self.workloads)

    @cached_property
    def cell_index(self) -> Mapping[str, int]:
        """Each cell id's index (a ``KeyError`` for an id not in the plan)."""
        return {cell_id: index for index, cell_id in enumerate(self.cell_ids)}

    def cell_by_id(self, cell_id: str) -> PlannedCell:
        """Look one planned cell up by its id.

        Raises:
            SimulationError: if the id is not in this plan.
        """
        try:
            return self._planned[self.cell_index[cell_id]]
        except KeyError:
            raise SimulationError(f"cell {cell_id!r} is not in this plan") from None

    @cached_property
    def _planned(self) -> tuple[PlannedCell, ...]:
        specs = list(self.workloads.values())
        return tuple(
            PlannedCell(
                index=index,
                cell=ScenarioCell(specs[w], self.systems[s], replicate),
                seed=seed,
                workload_key=self.workload_keys[w],
                cell_id=cell_id,
            )
            for index, (cell_id, seed, w, s, replicate) in enumerate(
                zip(
                    self.cell_ids,
                    self.seeds,
                    self.cell_workload.tolist(),
                    self.cell_system.tolist(),
                    self.cell_replicate.tolist(),
                )
            )
        )

    @cached_property
    def fingerprint(self) -> str:
        """Stable identity of the plan (grid + seed + chunking + cell seeds)."""
        payload = {
            "grid": self.grid.to_dict(),
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "shard_size": self.shard_size,
            "cells": [list(pair) for pair in zip(self.cell_ids, self.seeds)],
        }
        digest = hashlib.sha1(
            json.dumps(payload, sort_keys=True).encode()
        )
        return digest.hexdigest()


_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _cell_seeds(seed: int, count: int) -> list[int]:
    """One recorded integer seed per cell, derived from the master seed.

    Cell ``i``'s seed is
    ``SeedSequence(seed).spawn(count)[i].generate_state(1)[0]``: spawned
    streams are statistically independent, and each collapses to a plain
    ``uint32`` int — journals store ints, and ``default_rng(int)`` is the
    standalone reproduction path.  The children differ only in their
    last entropy word, the spawn index, so this runs ``SeedSequence``'s
    pool mixing once for the shared words and vectorises the last one
    over all children (``tests/sweep/test_plan.py`` holds it to
    ``SeedSequence`` itself).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [(seed >> shift) & _MASK for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value = ((value ^ const) * (const * _MULT_A & _MASK)) & _MASK
        const = const * _MULT_A & _MASK
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # Only the first pool word feeds one output word, and it mixes the
    # spawn index first: hashmix, then mix, over every index at once.
    value = np.arange(count, dtype=np.uint32) ^ np.uint32(const)
    value *= np.uint32(const * _MULT_A & _MASK)
    value ^= value >> np.uint32(16)
    first = np.uint32(_MIX_L * pool[0] & _MASK) - np.uint32(_MIX_R) * value
    first ^= first >> np.uint32(16)
    first ^= np.uint32(_INIT_B)
    first *= np.uint32(_INIT_B * _MULT_B & _MASK)
    first ^= first >> np.uint32(16)
    return first.tolist()


def compile_grid(
    grid: ScenarioGrid,
    *,
    seed: int,
    chunk_size: int = 16384,
    shard_size: int = DEFAULT_SHARD_SIZE,
    fuse_limit: int = DEFAULT_FUSE_LIMIT,
) -> SweepPlan:
    """Compile a grid into a deduplicated, fused, sharded plan.

    Each workload's contiguous run of cells is split into fused batches
    of at most ``fuse_limit`` cells, and batches are packed, in order,
    into shards of at most ``shard_size`` cells.  Grouping and packing
    are scheduling decisions only: every cell keeps its recorded seed,
    so results never depend on how cells were fused or sharded.

    Args:
        grid: The scenario grid.
        seed: Master seed; every cell's recorded seed derives from it.
        chunk_size: Chunk size all cells evaluate with.
        shard_size: Checkpoint granularity (cells per shard).
        fuse_limit: Maximum cells per fused dispatch.

    Raises:
        SimulationError: on a non-positive chunk/shard/fuse size.
    """
    if chunk_size < 1:
        raise SimulationError(f"chunk_size must be >= 1, got {chunk_size!r}")
    if shard_size < 1:
        raise SimulationError(f"shard_size must be >= 1, got {shard_size!r}")
    if fuse_limit < 1:
        raise SimulationError(f"fuse_limit must be >= 1, got {fuse_limit!r}")
    # A dispatch never spans a checkpoint: batches cap at the shard size
    # so every shard holds whole batches and stays within shard_size.
    fuse_limit = min(fuse_limit, shard_size)
    obs = get_instrumentation()
    with obs.span("sweep.compile", grid=grid.name, cells=len(grid)):
        workloads = {spec.key(): spec for spec in grid.workload_specs()}
        systems = grid.system_specs()
        replicates = grid.replicates
        per_workload = len(systems) * replicates
        ids = [
            ScenarioCell.format_id(key, system.label(), replicate)
            for key in workloads
            for system in systems
            for replicate in range(replicates)
        ]
        if len(set(ids)) != len(ids):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise SimulationError(
                f"grid {grid.name!r} produced duplicate cell ids "
                f"(first: {duplicates[0]!r}); cell ids must be unique for "
                "journalling and reproduction"
            )

        batches = [
            FusedBatch(key, start, min(start + fuse_limit, (w + 1) * per_workload))
            for w, key in enumerate(workloads)
            for start in range(w * per_workload, (w + 1) * per_workload, fuse_limit)
        ]
        groups: list[list[FusedBatch]] = []
        for batch in batches:
            if groups and batch.stop - groups[-1][0].start <= shard_size:
                groups[-1].append(batch)
            else:
                groups.append([batch])
        shards = [
            Shard(index, group[0].start, group[-1].stop, tuple(group))
            for index, group in enumerate(groups)
        ]

        columns = {
            "cell_workload": np.arange(len(workloads)).repeat(per_workload),
            "cell_system": np.tile(np.arange(len(systems)).repeat(replicates), len(workloads)),
            "cell_replicate": np.tile(np.arange(replicates), len(workloads) * len(systems)),
        }
        for column in columns.values():
            column.flags.writeable = False
        obs.gauge("sweep.plan.cells", len(ids))
        obs.gauge("sweep.plan.workloads", len(workloads))
        obs.gauge("sweep.plan.shards", len(shards))
        return SweepPlan(
            grid=grid,
            seed=seed,
            chunk_size=chunk_size,
            shard_size=shard_size,
            shards=tuple(shards),
            workloads=workloads,
            systems=systems,
            cell_ids=tuple(ids),
            seeds=tuple(_cell_seeds(seed, len(ids))),
            **columns,
        )
