"""The sweep runner: execute compiled plans fast, checkpointed, resumable.

Execution walks the plan shard by shard, on one
:class:`~repro.engine.runtime.EngineRuntime` (``workers=1`` when
serial).  Each distinct workload (not each cell) is materialised once per
run.  A shard's fused dispatches — each many ``(system, seed)`` pairs
against one workload — go to the runtime as the batches of one
:meth:`~repro.engine.runtime.EngineRuntime.run_fused` call, which
classifies each workload once (a memo on its arrays), publishes it once
when pooled, and places the batches by the rule every evaluation
shares.

**One count matrix.**  A run's result is one int64 matrix with a row per
planned cell (eq. (8)'s per-class failure counts, in the column layout
of :meth:`~repro.engine.runtime.EngineRuntime.run_fused`): every dispatch's rows
are copied into it, every journal line holds a shard's block of it, and
every per-cell object — :class:`CellResult`, evaluation, Wilson
interval, shard summary — is built from it only when a caller reads it.

**Determinism contract.**  A cell's failure counts depend only on its
recorded ``(seed, chunk_size)``: fused dispatches execute through the
runtime's one placement rule and the engine's one kernel (the path the
service's micro-batcher and
:func:`~repro.engine.executor.evaluate_system_batch` take), whose chunk
generators derive from the item's seed and the chunk's index alone and
whose rows are the scalar loop's count layout,
:class:`~repro.system.simulate.FailureTally`.  Fused, sharded, serial,
parallel, interrupted-and-resumed — all bit-identical to evaluating the
cell standalone (:func:`reproduce_cell`), and, for a single-chunk plan,
to the scalar loop.

**Checkpointing.**  With a journal path, a header records the plan
fingerprint and the classifier's classes, and every completed shard
appends one line: its index, its cell range, its rows and a CRC-32 over
them (:func:`repro.trial.storage.append_journal_entries`).
``resume=True`` replays the journal — verifying the header and every
row against the plan — and restores completed shards without
recomputing them (counted under ``sweep.cells.skipped``).
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from ..analysis.streaming import WelfordAccumulator
from ..core.case_class import CaseClass
from ..engine.executor import DEFAULT_CHUNK_SIZE
from ..engine.runtime import EngineRuntime
from ..exceptions import SimulationError
from ..obs import Instrumentation, get_instrumentation
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier
from ..screening.workload import Workload
from ..system.simulate import ROW_COLUMNS, FailureTally, SystemEvaluation
from ..trial.storage import append_journal_entries, load_journal_entries
from .grid import ScenarioGrid
from .plan import (
    DEFAULT_FUSE_LIMIT,
    DEFAULT_SHARD_SIZE,
    Shard,
    SweepPlan,
    compile_grid,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "CellResult",
    "ShardStreamState",
    "SweepResult",
    "run_sweep",
    "resume_sweep",
    "reproduce_cell",
]

#: Version stamped into (and required of) sweep journal headers.
JOURNAL_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CellResult:
    """One executed cell's exact integer failure counts.

    Storing counts — not derived rates — keeps results bit-stable
    through the journal: :meth:`evaluation` rebuilds the same
    :class:`~repro.system.simulate.SystemEvaluation` (identical Wilson
    intervals) whether the counts come from this run, a resumed journal,
    or a standalone reproduction.

    Attributes:
        index: The cell's position in the plan.
        cell_id: Stable cell identity.
        seed: The recorded evaluation seed.
        system_name: Name of the evaluated system.
        workload_name: Name of the workload it ran on.
        counts: The cell's failure counts, a tally over its read-only
            row of :attr:`SweepResult.counts`.
    """

    index: int
    cell_id: str
    seed: int
    system_name: str
    workload_name: str
    counts: FailureTally

    def evaluation(self, level: float = 0.95) -> SystemEvaluation:
        """The counts as a :class:`SystemEvaluation` (same floats as live)."""
        return self.counts.to_evaluation(self.system_name, self.workload_name, level)


@dataclass
class ShardStreamState:
    """One shard's mergeable streaming summary of its cell results.

    The exact-count fields (totals) merge by integer addition —
    associative and commutative, so any shard partition and merge order
    folds to the same global state (same contract as
    :class:`~repro.analysis.streaming.StreamingEstimator`).  The per-cell
    rate dispersion rides in :class:`WelfordAccumulator` twins whose
    parallel merge is associative up to floating-point rounding.

    Attributes:
        shard: The shard's plan index (``-1`` for a merged global state).
        cells: Cell results folded in.
        fn_failures: Pooled false negatives over cancer trials.
        fn_trials: Pooled cancer trials.
        fp_failures: Pooled false positives over healthy trials.
        fp_trials: Pooled healthy trials.
        fn_rate: Streaming moments of the per-cell FN rate.
        fp_rate: Streaming moments of the per-cell FP rate.
    """

    shard: int = -1
    cells: int = 0
    fn_failures: int = 0
    fn_trials: int = 0
    fp_failures: int = 0
    fp_trials: int = 0
    fn_rate: WelfordAccumulator = None  # type: ignore[assignment]
    fp_rate: WelfordAccumulator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fn_rate is None:
            self.fn_rate = WelfordAccumulator()
        if self.fp_rate is None:
            self.fp_rate = WelfordAccumulator()

    @classmethod
    def from_rows(cls, shard: int, rows: np.ndarray) -> "ShardStreamState":
        """Fold one shard's count rows, in plan order, into a fresh state."""
        leading = rows[:, : len(ROW_COLUMNS)]
        state = cls(shard, len(rows), *(int(total) for total in leading.sum(axis=0)))
        for fn_failures, fn_trials, fp_failures, fp_trials in leading.tolist():
            if fn_trials:
                state.fn_rate.add(fn_failures / fn_trials)
            if fp_trials:
                state.fp_rate.add(fp_failures / fp_trials)
        return state

    def merge(self, other: "ShardStreamState") -> "ShardStreamState":
        """Fold another shard's state in (in place; returns self)."""
        if not isinstance(other, ShardStreamState):
            raise SimulationError(
                f"cannot merge {type(other).__name__} into ShardStreamState"
            )
        self.cells += other.cells
        self.fn_failures += other.fn_failures
        self.fn_trials += other.fn_trials
        self.fp_failures += other.fp_failures
        self.fp_trials += other.fp_trials
        self.fn_rate.merge(other.fn_rate)
        self.fp_rate.merge(other.fp_rate)
        return self

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (pooled rates + per-cell dispersion)."""
        return {
            "shard": self.shard,
            "cells": self.cells,
            "fn_failures": self.fn_failures,
            "fn_trials": self.fn_trials,
            "fp_failures": self.fp_failures,
            "fp_trials": self.fp_trials,
            "fn_rate": (
                self.fn_failures / self.fn_trials if self.fn_trials else None
            ),
            "fp_rate": (
                self.fp_failures / self.fp_trials if self.fp_trials else None
            ),
            "fn_rate_per_cell": self.fn_rate.state(),
            "fp_rate_per_cell": self.fp_rate.state(),
        }


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Everything a finished (or interrupted) sweep run produced.

    The result is its count matrix; every other view is derived from it
    when read.

    Attributes:
        plan: The executed plan.
        counts: One int64 row per planned cell, in index order, in the
            :meth:`~repro.engine.runtime.EngineRuntime.run_fused` column layout
            (rows of shards not completed are zero).
        classes: The classifier's classes, in per-class column order.
        completed_shards: Indices of the shards whose rows are filled,
            ascending (all of them unless interrupted by ``max_shards``).
        executed: Cells computed by this run.
        skipped: Cells restored from the journal instead of recomputed.
        level: Confidence level used by :meth:`evaluations`.
    """

    plan: SweepPlan
    counts: np.ndarray
    classes: tuple[CaseClass, ...]
    completed_shards: tuple[int, ...]
    executed: int
    skipped: int
    level: float = 0.95

    @cached_property
    def _cells(self) -> list[int]:
        """The completed cells' indices, ascending."""
        shards = self.plan.shards
        return [
            index
            for shard in self.completed_shards
            for index in range(shards[shard].start, shards[shard].stop)
        ]

    @cached_property
    def _done(self) -> np.ndarray:
        done = np.zeros(len(self.plan), dtype=bool)
        done[self._cells] = True
        return done

    @property
    def complete(self) -> bool:
        """Whether every planned cell has a result."""
        return len(self._cells) == len(self.plan)

    @property
    def results(self) -> Sequence[CellResult]:
        """Completed cells' results in plan order, each built when read."""
        return _CellResults(self)

    def cell_result(self, index: int) -> CellResult:
        """Cell ``index``'s result, built from its row of the matrix."""
        plan = self.plan
        return CellResult(
            index=index,
            cell_id=plan.cell_ids[index],
            seed=plan.seeds[index],
            system_name=plan.systems[plan.cell_system[index]].label(),
            workload_name=plan.workload_keys[plan.cell_workload[index]],
            counts=FailureTally(self.classes, self.counts[index]),
        )

    def evaluations(self) -> Mapping[str, SystemEvaluation]:
        """Per-cell evaluations keyed by cell id, each built when read.

        A read-only mapping over the completed cells; equal (``==``) to
        the dict of every evaluation.
        """
        return _Evaluations(self)

    def rows(self) -> list[dict[str, Any]]:
        """Flat per-cell rows for the consolidated analysis report.

        Each row carries the cell's axis values plus its raw counts —
        the input shape :func:`repro.analysis.report.build_sweep_summary`
        consumes.
        """
        rows = []
        planned = list(self.plan.cells())
        leading = self.counts[:, : len(ROW_COLUMNS)].tolist()
        for index in self._cells:
            cell = planned[index].cell
            fn_failures, fn_trials, fp_failures, fp_trials = leading[index]
            rows.append(
                {
                    "cell_id": planned[index].cell_id,
                    "seed": planned[index].seed,
                    "population": cell.workload.population,
                    "profile": cell.workload.profile,
                    "system": cell.system.kind,
                    "bias": cell.system.bias,
                    "dynamics": cell.system.dynamics,
                    "operating_point": cell.system.operating_point,
                    "replicate": cell.replicate,
                    "fn_failures": fn_failures,
                    "fn_trials": fn_trials,
                    "fp_failures": fp_failures,
                    "fp_trials": fp_trials,
                }
            )
        return rows

    @property
    def shard_states(self) -> tuple[ShardStreamState, ...]:
        """Per-shard mergeable streaming summaries, shard order, from the rows."""
        shards = self.plan.shards
        return tuple(
            ShardStreamState.from_rows(
                index, self.counts[shards[index].start : shards[index].stop]
            )
            for index in self.completed_shards
        )

    def stream_state(self) -> ShardStreamState:
        """All shard states folded into one global state.

        The integer totals are merge-order invariant (exact sums); the
        per-cell rate moments match any fold order to floating-point
        rounding.
        """
        merged = ShardStreamState()
        for state in self.shard_states:
            merged.merge(state)
        return merged

    def streaming_summary(self) -> dict[str, Any]:
        """The merged shard states as one consolidated JSON-ready row.

        Complements :meth:`rows` + ``build_sweep_summary``: the same
        pooled counts, but produced by folding the per-shard streaming
        states instead of re-scanning cell results — the shape a live
        progress consumer reads mid-run.
        """
        summary = self.stream_state().as_dict()
        summary.pop("shard")
        summary["shards"] = len(self.completed_shards)
        return summary


class _CellResults(Sequence[CellResult]):
    """A sweep's completed cells as :class:`CellResult`\\ s, built when read."""

    def __init__(self, result: SweepResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return len(self._result._cells)

    def __getitem__(self, position: Any) -> Any:
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        return self._result.cell_result(self._result._cells[position])


class _Evaluations(Mapping[str, SystemEvaluation]):
    """A sweep's per-cell evaluations by cell id, built when read."""

    def __init__(self, result: SweepResult) -> None:
        self._result = result

    def __getitem__(self, cell_id: str) -> SystemEvaluation:
        result = self._result
        index = result.plan.cell_index[cell_id]
        if not result._done[index]:
            raise KeyError(cell_id)
        return result.cell_result(index).evaluation(result.level)

    def __iter__(self) -> Iterator[str]:
        ids = self._result.plan.cell_ids
        return (ids[index] for index in self._result._cells)

    def __len__(self) -> int:
        return len(self._result._cells)


# ---------------------------------------------------------------------------
# journal


def _journal_header(plan: SweepPlan, class_names: Sequence[str]) -> dict[str, Any]:
    return {
        "kind": "header",
        "schema": JOURNAL_SCHEMA_VERSION,
        "plan": plan.fingerprint,
        "grid": plan.grid.name,
        "seed": plan.seed,
        "chunk_size": plan.chunk_size,
        "cells": len(plan),
        "classes": list(class_names),
    }


def _shard_crc(index: Any, cells: Any, rows: Any) -> int:
    """CRC-32 of a shard line's index, cell range and rows, as compact JSON."""
    return zlib.crc32(json.dumps([index, cells, rows], separators=(",", ":")).encode())


def _shard_entry(shard: Shard, rows: np.ndarray) -> dict[str, Any]:
    """The journal line for one completed shard."""
    cells, values = [shard.start, shard.stop], rows.tolist()
    return {
        "kind": "shard",
        "shard": shard.index,
        "cells": cells,
        "rows": values,
        "crc": _shard_crc(shard.index, cells, values),
    }


def _load_journal(
    path: str | Path, plan: SweepPlan, class_names: Sequence[str]
) -> dict[int, np.ndarray] | None:
    """Completed shards' rows recorded in a journal, each checked against the plan.

    Returns ``None`` when the journal holds no entry at all (missing,
    empty, or only a torn header).

    Raises:
        SimulationError: when the journal belongs to a different plan
            (grid, seed, or chunking changed) or classifier, is
            structurally invalid, or records a shard the plan, its CRC
            or its own counts contradict.
        EstimationError: on an unreadable or undecodable journal.
    """
    entries = load_journal_entries(path)
    if not entries:
        return None
    header = entries[0]
    if header.get("kind") != "header":
        raise SimulationError(
            f"journal {path} has no header line; not a sweep journal"
        )
    if header.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise SimulationError(
            f"journal {path} has schema {header.get('schema')!r}; "
            f"this build reads schema {JOURNAL_SCHEMA_VERSION}"
        )
    if header.get("plan") != plan.fingerprint:
        raise SimulationError(
            f"journal {path} was written by a different plan "
            f"(fingerprint {header.get('plan')!r} != {plan.fingerprint!r}); "
            "refusing to mix results — use a fresh journal or the original "
            "grid, seed, and chunking"
        )
    if header.get("classes") != list(class_names):
        raise SimulationError(
            f"journal {path} was written with classes {header.get('classes')!r}, "
            f"not this classifier's {list(class_names)!r}"
        )
    restored: dict[int, np.ndarray] = {}
    for number, entry in enumerate(entries[1:], start=2):
        try:
            index, rows = _restored_shard(entry, plan, len(class_names))
        except SimulationError as exc:
            raise SimulationError(f"journal {path} line {number}: {exc}") from None
        previous = restored.setdefault(index, rows)
        if not np.array_equal(previous, rows):
            raise SimulationError(
                f"journal {path} line {number}: shard {index} is journaled twice "
                "with different rows"
            )
    return restored


def _restored_shard(
    entry: Mapping[str, Any], plan: SweepPlan, n_classes: int
) -> tuple[int, np.ndarray]:
    """A journaled shard's index and rows, once the CRC and the plan agree with it.

    The line must be a shard line whose CRC matches; its range must be
    the plan's shard's; and every row must hold one count per column,
    trials that cover its workload's cases, per-class counts that sum to
    its cancer counts, and failures within trials.
    """
    if entry.get("kind") != "shard":
        raise SimulationError(f"is a {entry.get('kind')!r} line, not a shard line")
    try:
        index, cells, rows, crc = (entry[key] for key in ("shard", "cells", "rows", "crc"))
    except KeyError as exc:
        raise SimulationError(f"shard line has no {exc} field") from None
    if _shard_crc(index, cells, rows) != crc:
        raise SimulationError("shard line does not match its CRC")
    if not (type(index) is int and 0 <= index < len(plan.shards)):
        raise SimulationError(f"shard {index!r} is not in the plan")
    shard = plan.shards[index]
    if cells != [shard.start, shard.stop]:
        raise SimulationError(
            f"shard {index} covers cells {cells!r}, not the plan's "
            f"{[shard.start, shard.stop]!r}"
        )
    width = len(ROW_COLUMNS) + 2 * n_classes
    if not (
        type(rows) is list
        and len(rows) == len(shard)
        and all(type(row) is list and len(row) == width for row in rows)
        and all(type(value) is int and 0 <= value < 2**63 for row in rows for value in row)
    ):
        raise SimulationError(
            f"shard {index} does not hold {len(shard)} rows of {width} counts (integers >= 0)"
        )
    block = np.array(rows, dtype=np.int64)
    class_failures, class_trials = block[:, 4 : 4 + n_classes], block[:, 4 + n_classes :]
    num_cases = np.array([spec.num_cases for spec in plan.workloads.values()])
    if not (
        np.all(block[:, 1] + block[:, 3] == num_cases[plan.cell_workload[shard.start : shard.stop]])
        and np.all(class_trials.sum(axis=1) == block[:, 1])
        and np.all(class_failures.sum(axis=1) == block[:, 0])
        and np.all(block[:, 0] <= block[:, 1])
        and np.all(block[:, 2] <= block[:, 3])
        and np.all(class_failures <= class_trials)
    ):
        raise SimulationError(
            f"shard {index} has counts that contradict its workloads or its per-class counts"
        )
    return index, block


# ---------------------------------------------------------------------------
# entry points


def run_sweep(
    grid: ScenarioGrid,
    *,
    seed: int,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    shard_size: int = DEFAULT_SHARD_SIZE,
    fuse_limit: int = DEFAULT_FUSE_LIMIT,
    journal: str | Path | None = None,
    resume: bool = False,
    max_shards: int | None = None,
    runtime: EngineRuntime | None = None,
    obs: Instrumentation | None = None,
) -> SweepResult:
    """Compile a grid and execute it: the sweep engine's main entry point.

    Args:
        grid: The scenario grid.
        seed: Master seed; every cell's recorded seed derives from it,
            and any cell is reproducible standalone from that recorded
            seed (:func:`reproduce_cell`).
        classifier: Per-class breakdown criterion (single class when
            omitted), shared by every cell.
        level: Confidence level of the per-cell intervals.
        workers: Worker processes of the run's
            :class:`~repro.engine.runtime.EngineRuntime`.  ``1`` runs
            everything in-process; more spread each shard's fused
            dispatches over the pool, reading the workload plane from
            shared memory.  Results are identical at every worker count.
        chunk_size: Chunk size all cells evaluate with (results depend
            only on ``(seed, chunk_size)``).
        shard_size: Checkpoint granularity (cells per journalled shard).
        fuse_limit: Maximum cells per fused dispatch.
        journal: JSONL checkpoint path; each completed shard appends its
            rows.  ``None`` disables checkpointing.
        resume: Replay ``journal`` (verifying the plan fingerprint) and
            skip already-completed shards.
        max_shards: Execute at most this many (non-empty) shards this
            run, then return a partial result — interruption made
            deterministic, for tests and budgeted runs.
        runtime: An existing runtime to execute on (its worker count
            wins over ``workers``); the caller keeps ownership.  With
            ``None``, a runtime of ``workers`` is created and closed
            internally.
        obs: Instrumentation to record into (ambient resolution when
            ``None``).

    Raises:
        SimulationError: on invalid arguments, a journal that exists
            while ``resume`` is false, or a journal from a different
            plan.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers!r}")
    if max_shards is not None and max_shards < 0:
        raise SimulationError(f"max_shards must be >= 0, got {max_shards!r}")
    if journal is None and resume:
        raise SimulationError("resume=True requires a journal path")
    plan = compile_grid(
        grid,
        seed=seed,
        chunk_size=chunk_size,
        shard_size=shard_size,
        fuse_limit=fuse_limit,
    )
    instrumentation = obs if obs is not None else get_instrumentation()
    own_runtime = runtime is None
    if own_runtime:
        runtime = EngineRuntime(workers=workers, obs=instrumentation)
    try:
        return _execute_plan(
            plan,
            classifier=classifier,
            level=level,
            runtime=runtime,
            journal=journal,
            resume=resume,
            max_shards=max_shards,
            obs=instrumentation,
        )
    finally:
        if own_runtime:
            runtime.close()


def resume_sweep(
    grid: ScenarioGrid,
    *,
    seed: int,
    journal: str | Path,
    **kwargs: Any,
) -> SweepResult:
    """Resume an interrupted sweep from its journal.

    Sugar for :func:`run_sweep` with ``resume=True``: the grid and seed
    must match the interrupted run (the journal's recorded plan
    fingerprint is verified), completed shards are restored without
    recomputation, and only the remainder executes.
    """
    return run_sweep(grid, seed=seed, journal=journal, resume=True, **kwargs)


def _execute_plan(
    plan: SweepPlan,
    *,
    classifier: CaseClassifier | None,
    level: float,
    runtime: EngineRuntime,
    journal: str | Path | None,
    resume: bool,
    max_shards: int | None,
    obs: Instrumentation,
) -> SweepResult:
    """Walk the plan's shards; the shared body of run/resume."""
    classifier = classifier if classifier is not None else DEFAULT_CLASSIFIER
    class_names = tuple(case_class.name for case_class in classifier.classes)
    restored: dict[int, np.ndarray] | None = None
    if journal is not None:
        if Path(journal).exists() and not resume:
            raise SimulationError(
                f"journal {journal} already exists; pass resume=True to "
                "continue it or choose a fresh path"
            )
        if resume:
            restored = _load_journal(journal, plan, class_names)

    counts = np.zeros((len(plan), len(ROW_COLUMNS) + 2 * len(class_names)), dtype=np.int64)
    # Each workload is built on first use and dropped, with its memos,
    # once the shard holding its last batch is done.
    workloads: dict[str, Workload] = {}
    last_shard = {
        batch.workload_key: shard.index for shard in plan.shards for batch in shard.batches
    }
    completed: list[int] = []
    executed = 0
    skipped = 0
    executed_shards = 0

    with obs.span(
        "sweep.run",
        grid=plan.grid.name,
        cells=len(plan),
        shards=len(plan.shards),
        workloads=len(plan.workloads),
    ):
        if journal is not None and restored is None:
            append_journal_entries(journal, [_journal_header(plan, class_names)])
        for shard in plan.shards:
            rows = None if restored is None else restored.get(shard.index)
            if rows is not None:
                counts[shard.start : shard.stop] = rows
                skipped += len(shard)
                obs.count("sweep.cells.skipped", len(shard))
            else:
                if max_shards is not None and executed_shards >= max_shards:
                    break
                with obs.span("sweep.shard", shard=shard.index, cells=len(shard)):
                    _execute_shard(plan, shard, counts, workloads, classifier, runtime, obs)
                if journal is not None:
                    append_journal_entries(
                        journal, [_shard_entry(shard, counts[shard.start : shard.stop])]
                    )
                executed += len(shard)
                executed_shards += 1
                obs.count("sweep.cells.completed", len(shard))
                obs.count("sweep.shards.completed")
                obs.mark("sweep.shard.completed", shard.index)
            for batch in shard.batches:
                if last_shard[batch.workload_key] == shard.index:
                    workloads.pop(batch.workload_key, None)
            completed.append(shard.index)
            obs.gauge("sweep.progress", (executed + skipped) / len(plan))
        obs.gauge("sweep.cells.done", executed + skipped)
    counts.flags.writeable = False
    return SweepResult(
        plan=plan,
        counts=counts,
        classes=tuple(classifier.classes),
        completed_shards=tuple(completed),
        executed=executed,
        skipped=skipped,
        level=level,
    )


def _workload(
    plan: SweepPlan, key: str, workloads: dict[str, Workload], obs: Instrumentation
) -> Workload:
    """One distinct workload, built on first use and reused after."""
    workload = workloads.get(key)
    if workload is not None:
        obs.count("sweep.workloads.reused")
        return workload
    with obs.span("sweep.workload", key=key):
        workload = workloads[key] = plan.workloads[key].build()
    obs.count("sweep.workloads.built")
    return workload


def _execute_shard(
    plan: SweepPlan,
    shard: Shard,
    counts: np.ndarray,
    workloads: dict[str, Workload],
    classifier: CaseClassifier,
    runtime: EngineRuntime,
    obs: Instrumentation,
) -> None:
    """Run one shard's fused dispatches as the batches of one
    :meth:`~repro.engine.runtime.EngineRuntime.run_fused` call, filling
    their rows of ``counts``."""
    batches = []
    for batch in shard.batches:
        seeds = plan.seeds[batch.start : batch.stop]
        specs = plan.cell_system[batch.start : batch.stop]
        batches.append((
            _workload(plan, batch.workload_key, workloads, obs),
            [(plan.systems[spec].build(seed), seed) for spec, seed in zip(specs, seeds)],
        ))
        obs.count("sweep.dispatches")
    outputs = runtime.run_fused(batches, classifier=classifier, chunk_size=plan.chunk_size)
    for batch, rows in zip(shard.batches, outputs):
        counts[batch.start : batch.stop] = rows


def reproduce_cell(
    plan: SweepPlan,
    cell_id: str,
    *,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
) -> SystemEvaluation:
    """Re-evaluate one cell standalone from its recorded seed.

    Builds the cell's workload and system from their specs and drives
    them through :func:`~repro.engine.executor.evaluate_system_batch`
    with the recorded ``(seed, chunk_size)`` — a one-item batch, alone,
    which the determinism contract promises is bit-identical to the
    cell's row of the fused sweep.
    """
    from ..engine.executor import evaluate_system_batch

    planned = plan.cell_by_id(cell_id)
    workload = planned.cell.workload.build()
    system = planned.cell.system.build(planned.seed)
    return evaluate_system_batch(
        system,
        workload,
        classifier,
        level,
        seed=planned.seed,
        chunk_size=plan.chunk_size,
    )
