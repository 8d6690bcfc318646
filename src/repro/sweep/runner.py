"""The sweep runner: execute compiled plans fast, checkpointed, resumable.

Execution walks the plan shard by shard.  Per distinct workload (not per
cell) it materialises the cases, columnises them, classifies the cancer
cases, and — on a parallel runtime — publishes the arrays to shared
memory once, through the :class:`~repro.engine.runtime.EngineRuntime`
fingerprint-keyed caches.  Cells sharing a workload then execute as
fused dispatches: one task carries many ``(system, seed)`` pairs against
one set of arrays, so the pool round-trip, the columnisation, and the
classification amortise across the whole batch.

**Determinism contract.**  A cell's failure counts depend only on its
recorded ``(seed, chunk_size)``: fused dispatches execute through the
shared :mod:`repro.engine.fused` kernel
(:func:`~repro.engine.fused.run_fused_batch` — the same kernel the
always-on service's micro-batcher runs), whose chunk generators derive
via the same ``SeedSequence`` scheme as
:func:`~repro.engine.executor.evaluate_system_batch` and whose tally is
an exact integer-count reformulation of
:class:`~repro.system.simulate.FailureTally`.  Fused, sharded, serial,
parallel, interrupted-and-resumed — all bit-identical to evaluating the
cell standalone (:func:`reproduce_cell`).

**Checkpointing.**  With a journal path, a header records the plan
fingerprint and every completed shard appends its cell results as JSONL
(:func:`repro.trial.storage.append_journal_entries`).  ``resume=True``
replays the journal — verifying the fingerprint — and skips completed
cells without recomputing them (counted under ``sweep.cells.skipped``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..engine.executor import DEFAULT_CHUNK_SIZE
from ..engine.fused import (
    FusedCounts,
    FusedItem,
    FusedTask,
    build_fused_item,
    cancer_class_codes,
    run_fused_batch,
)
from ..analysis.streaming import WelfordAccumulator
from ..engine.runtime import EngineRuntime, _SegmentSpec
from ..engine.arrays import CaseArrays
from ..exceptions import EstimationError, SimulationError
from ..obs import Instrumentation, get_instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation
from ..trial.storage import append_journal_entries, load_journal_entries
from .grid import ScenarioGrid
from .plan import (
    DEFAULT_FUSE_LIMIT,
    DEFAULT_SHARD_SIZE,
    PlannedCell,
    Shard,
    SweepPlan,
    compile_grid,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SHARD_STATE_SCHEMA",
    "CellResult",
    "ShardStreamState",
    "SweepResult",
    "run_sweep",
    "resume_sweep",
    "reproduce_cell",
]

#: Version stamped into (and required of) sweep journal headers.
JOURNAL_SCHEMA_VERSION = 1

#: Version of the per-shard streaming-state journal entries.
SHARD_STATE_SCHEMA = 1


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
        cancer_failures: False negatives over cancer cases.
        cancer_trials: Cancer cases seen.
        healthy_failures: False positives over healthy cases.
        healthy_trials: Healthy cases seen.
        class_names: Case-class names with at least one cancer trial.
        class_failures: False negatives per class (aligned with names).
        class_trials: Cancer trials per class (aligned with names).
    """

    index: int
    cell_id: str
    seed: int
    system_name: str
    workload_name: str
    cancer_failures: int
    cancer_trials: int
    healthy_failures: int
    healthy_trials: int
    class_names: tuple[str, ...]
    class_failures: tuple[int, ...]
    class_trials: tuple[int, ...]

    def evaluation(self, level: float = 0.95) -> SystemEvaluation:
        """The counts as a :class:`SystemEvaluation` (same floats as live)."""
        counts = FusedCounts(
            cancer_failures=self.cancer_failures,
            cancer_trials=self.cancer_trials,
            healthy_failures=self.healthy_failures,
            healthy_trials=self.healthy_trials,
            class_names=self.class_names,
            class_failures=self.class_failures,
            class_trials=self.class_trials,
        )
        return counts.evaluation(self.system_name, self.workload_name, level)

    def to_entry(self, shard: int) -> dict[str, Any]:
        """The journal line for this result."""
        return {
            "kind": "cell",
            "shard": shard,
            "index": self.index,
            "cell_id": self.cell_id,
            "seed": self.seed,
            "system": self.system_name,
            "workload": self.workload_name,
            "counts": {
                "cancer_failures": self.cancer_failures,
                "cancer_trials": self.cancer_trials,
                "healthy_failures": self.healthy_failures,
                "healthy_trials": self.healthy_trials,
                "class_names": list(self.class_names),
                "class_failures": list(self.class_failures),
                "class_trials": list(self.class_trials),
            },
        }

    @classmethod
    def from_entry(cls, entry: Mapping[str, Any]) -> "CellResult":
        """Rebuild a result from its journal line.

        Raises:
            SimulationError: on a malformed entry.
        """
        try:
            counts = entry["counts"]
            return cls(
                index=int(entry["index"]),
                cell_id=str(entry["cell_id"]),
                seed=int(entry["seed"]),
                system_name=str(entry["system"]),
                workload_name=str(entry["workload"]),
                cancer_failures=int(counts["cancer_failures"]),
                cancer_trials=int(counts["cancer_trials"]),
                healthy_failures=int(counts["healthy_failures"]),
                healthy_trials=int(counts["healthy_trials"]),
                class_names=tuple(str(n) for n in counts["class_names"]),
                class_failures=tuple(int(f) for f in counts["class_failures"]),
                class_trials=tuple(int(t) for t in counts["class_trials"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed journal cell entry: {exc}") from exc


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
    def from_results(
        cls, shard: int, results: Sequence[CellResult]
    ) -> "ShardStreamState":
        """Fold one shard's cell results into a fresh state."""
        state = cls(shard=shard)
        for result in results:
            state.cells += 1
            state.fn_failures += result.cancer_failures
            state.fn_trials += result.cancer_trials
            state.fp_failures += result.healthy_failures
            state.fp_trials += result.healthy_trials
            if result.cancer_trials:
                state.fn_rate.add(result.cancer_failures / result.cancer_trials)
            if result.healthy_trials:
                state.fp_rate.add(result.healthy_failures / result.healthy_trials)
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

    def to_entry(self) -> dict[str, Any]:
        """The journal line for this state (exact moments included)."""
        return {
            "kind": "shard_state",
            "schema": SHARD_STATE_SCHEMA,
            "shard": self.shard,
            "cells": self.cells,
            "fn_failures": self.fn_failures,
            "fn_trials": self.fn_trials,
            "fp_failures": self.fp_failures,
            "fp_trials": self.fp_trials,
            "fn_rate": {
                "count": self.fn_rate.count,
                "mean": self.fn_rate.mean,
                "m2": self.fn_rate.m2,
            },
            "fp_rate": {
                "count": self.fp_rate.count,
                "mean": self.fp_rate.mean,
                "m2": self.fp_rate.m2,
            },
        }

    @classmethod
    def from_entry(cls, entry: Mapping[str, Any]) -> "ShardStreamState":
        """Rebuild a state from its journal line.

        Raises:
            SimulationError: on a malformed or wrong-schema entry.
        """
        if entry.get("schema") != SHARD_STATE_SCHEMA:
            raise SimulationError(
                f"shard state entry has schema {entry.get('schema')!r}; "
                f"this build reads schema {SHARD_STATE_SCHEMA}"
            )
        try:
            fn = entry["fn_rate"]
            fp = entry["fp_rate"]
            return cls(
                shard=int(entry["shard"]),
                cells=int(entry["cells"]),
                fn_failures=int(entry["fn_failures"]),
                fn_trials=int(entry["fn_trials"]),
                fp_failures=int(entry["fp_failures"]),
                fp_trials=int(entry["fp_trials"]),
                fn_rate=WelfordAccumulator.from_moments(
                    int(fn["count"]), float(fn["mean"]), float(fn["m2"])
                ),
                fp_rate=WelfordAccumulator.from_moments(
                    int(fp["count"]), float(fp["mean"]), float(fp["m2"])
                ),
            )
        except (KeyError, TypeError, ValueError, EstimationError) as exc:
            raise SimulationError(f"malformed shard state entry: {exc}") from exc

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


@dataclass(frozen=True)
class SweepResult:
    """Everything a finished (or interrupted) sweep run produced.

    Attributes:
        plan: The executed plan.
        results: Cell results in plan order (partial under ``max_shards``).
        executed: Cells computed by this run.
        skipped: Cells restored from the journal instead of recomputed.
        level: Confidence level used by :meth:`evaluations`.
        shard_states: Per-shard mergeable streaming summaries, shard
            order (restored from the journal for skipped shards).
    """

    plan: SweepPlan
    results: tuple[CellResult, ...]
    executed: int
    skipped: int
    level: float = 0.95
    shard_states: tuple[ShardStreamState, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every planned cell has a result."""
        return len(self.results) == len(self.plan)

    def evaluations(self) -> dict[str, SystemEvaluation]:
        """Per-cell evaluations keyed by cell id."""
        return {
            result.cell_id: result.evaluation(self.level)
            for result in self.results
        }

    def rows(self) -> list[dict[str, Any]]:
        """Flat per-cell rows for the consolidated analysis report.

        Each row carries the cell's axis values plus its raw counts —
        the input shape :func:`repro.analysis.report.build_sweep_summary`
        consumes.
        """
        by_id = {planned.cell_id: planned for planned in self.plan.cells()}
        rows = []
        for result in self.results:
            planned = by_id[result.cell_id]
            cell = planned.cell
            rows.append(
                {
                    "cell_id": result.cell_id,
                    "seed": result.seed,
                    "population": cell.workload.population,
                    "profile": cell.workload.profile,
                    "system": cell.system.kind,
                    "bias": cell.system.bias,
                    "dynamics": cell.system.dynamics,
                    "operating_point": cell.system.operating_point,
                    "replicate": cell.replicate,
                    "fn_failures": result.cancer_failures,
                    "fn_trials": result.cancer_trials,
                    "fp_failures": result.healthy_failures,
                    "fp_trials": result.healthy_trials,
                }
            )
        return rows

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
        summary["shards"] = len(self.shard_states)
        return summary


# ---------------------------------------------------------------------------
# per-workload context


@dataclass
class _WorkloadContext:
    """One distinct workload's materialised run-state (built once)."""

    workload: Workload
    arrays: CaseArrays
    spec: _SegmentSpec | None
    positions: np.ndarray
    codes: np.ndarray
    class_names: tuple[str, ...]


# ---------------------------------------------------------------------------
# journal


def _journal_header(plan: SweepPlan) -> dict[str, Any]:
    return {
        "kind": "header",
        "schema": JOURNAL_SCHEMA_VERSION,
        "plan": plan.fingerprint,
        "grid": plan.grid.name,
        "seed": plan.seed,
        "chunk_size": plan.chunk_size,
        "cells": len(plan),
    }


def _load_journal(
    path: str | Path, plan: SweepPlan, class_names: Sequence[str]
) -> dict[str, CellResult]:
    """Completed cells recorded in a journal, each checked against the plan.

    Shard state lines are not read: a restored shard's state is rebuilt
    from its cells.

    Raises:
        SimulationError: when the journal belongs to a different plan
            (grid, seed, or chunking changed), is structurally invalid,
            or records a cell the plan or the classifier contradicts.
        EstimationError: on an unreadable or undecodable journal.
    """
    entries = load_journal_entries(path)
    if not entries:
        return {}
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
    planned = {cell.cell_id: cell for cell in plan.cells()}
    completed: dict[str, CellResult] = {}
    for entry in entries[1:]:
        if entry.get("kind") != "cell":
            continue
        result = CellResult.from_entry(entry)
        problem = _restored_cell_problem(result, planned.get(result.cell_id), class_names)
        if problem is None and completed.setdefault(result.cell_id, result) != result:
            problem = "is journaled twice with different counts"
        if problem is not None:
            raise SimulationError(f"journal {path}: cell {result.cell_id!r} {problem}")
    return completed


def _restored_cell_problem(
    result: CellResult, planned: PlannedCell | None, class_names: Sequence[str]
) -> str | None:
    """What the plan and the classifier contradict in a journaled cell, if anything.

    The identity must be the planned one; the trials must cover the
    workload spec's cases; the per-class counts must sum to the cancer
    counts, over classifier classes in classifier order, each with at
    least one trial (the only ones a cell records).  A healthy failure
    count within its trials cannot be checked.
    """
    if planned is None:
        return "is not in the plan"
    if (result.index, result.seed, result.system_name, result.workload_name) != (
        planned.index,
        planned.seed,
        planned.cell.system.label(),
        planned.workload_key,
    ):
        return "does not match its planned index, seed, system and workload"
    remaining = iter(class_names)
    if not (
        len(result.class_names) == len(result.class_failures) == len(result.class_trials)
        and all(name in remaining for name in result.class_names)
    ):
        return f"names classes {result.class_names!r} outside the classifier's {tuple(class_names)!r}"
    if not (
        result.cancer_trials + result.healthy_trials == planned.cell.workload.num_cases
        and sum(result.class_trials) == result.cancer_trials
        and sum(result.class_failures) == result.cancer_failures
        and 0 <= result.healthy_failures <= result.healthy_trials
        and all(
            0 <= failures <= trials and trials > 0
            for failures, trials in zip(result.class_failures, result.class_trials)
        )
    ):
        return "has counts that contradict its workload or its per-class counts"
    return None


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
        workers: Worker processes.  ``1`` runs everything in-process;
            more fan fused dispatches out over a persistent
            :class:`~repro.engine.runtime.EngineRuntime` reading the
            workload plane from shared memory.  Results are identical
            at every worker count.
        chunk_size: Chunk size all cells evaluate with (results depend
            only on ``(seed, chunk_size)``).
        shard_size: Checkpoint granularity (cells per journalled shard).
        fuse_limit: Maximum cells per fused dispatch.
        journal: JSONL checkpoint path; each completed shard appends its
            results.  ``None`` disables checkpointing.
        resume: Replay ``journal`` (verifying the plan fingerprint) and
            skip already-completed cells.
        max_shards: Execute at most this many (non-empty) shards this
            run, then return a partial result — interruption made
            deterministic, for tests and budgeted runs.
        runtime: An existing runtime to execute on (its worker count
            wins over ``workers``); the caller keeps ownership.  With
            ``None`` and ``workers > 1``, a runtime is created and
            closed internally.
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
    own_runtime = runtime is None and workers > 1
    active_runtime = runtime
    if own_runtime:
        active_runtime = EngineRuntime(
            workers=workers,
            max_cached_workloads=max(4, len(plan.workloads)),
            obs=instrumentation,
        )
    try:
        return _execute_plan(
            plan,
            classifier=classifier,
            level=level,
            runtime=active_runtime,
            journal=journal,
            resume=resume,
            max_shards=max_shards,
            obs=instrumentation,
        )
    finally:
        if own_runtime and active_runtime is not None:
            active_runtime.close()


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
    fingerprint is verified), completed cells are restored without
    recomputation, and only the remainder executes.
    """
    return run_sweep(grid, seed=seed, journal=journal, resume=True, **kwargs)


def _execute_plan(
    plan: SweepPlan,
    *,
    classifier: CaseClassifier | None,
    level: float,
    runtime: EngineRuntime | None,
    journal: str | Path | None,
    resume: bool,
    max_shards: int | None,
    obs: Instrumentation,
) -> SweepResult:
    """Walk the plan's shards; the shared body of run/resume."""
    classifier = classifier if classifier is not None else SingleClassClassifier()
    completed: dict[str, CellResult] = {}
    shard_states: dict[int, ShardStreamState] = {}
    journal_exists = False
    if journal is not None:
        journal_exists = Path(journal).exists()
        if journal_exists and not resume:
            raise SimulationError(
                f"journal {journal} already exists; pass resume=True to "
                "continue it or choose a fresh path"
            )
        if resume and journal_exists:
            completed = _load_journal(
                journal, plan, [case_class.name for case_class in classifier.classes]
            )

    contexts: dict[str, _WorkloadContext] = {}
    results: dict[int, CellResult] = {}
    executed = 0
    skipped = 0
    executed_shards = 0
    planned_by_index: dict[int, PlannedCell] = {
        planned.index: planned for planned in plan.cells()
    }

    with obs.span(
        "sweep.run",
        grid=plan.grid.name,
        cells=len(plan),
        shards=len(plan.shards),
        workloads=len(plan.workloads),
    ):
        if journal is not None and not journal_exists:
            append_journal_entries(journal, [_journal_header(plan)])
        for shard in plan.shards:
            pending = [
                planned
                for planned in shard.cells()
                if planned.cell_id not in completed
            ]
            for planned in shard.cells():
                if planned.cell_id in completed:
                    results[planned.index] = completed[planned.cell_id]
                    skipped += 1
                    obs.count("sweep.cells.skipped")
            if not pending:
                # Every cell was restored: rebuild the shard's state from
                # them rather than trust its journaled state line.
                shard_states[shard.index] = ShardStreamState.from_results(
                    shard.index,
                    [results[planned.index] for planned in shard.cells()],
                )
                continue
            if max_shards is not None and executed_shards >= max_shards:
                break
            with obs.span("sweep.shard", shard=shard.index, cells=len(pending)):
                shard_results = _execute_shard(
                    plan, shard, pending, contexts, classifier, runtime, obs
                )
            for result in shard_results:
                results[result.index] = result
                executed += 1
                obs.count("sweep.cells.completed")
            # The shard's state covers every cell of the shard — newly
            # executed and journal-restored alike — so folding the
            # per-shard states reproduces the whole sweep's totals.
            state = ShardStreamState.from_results(
                shard.index,
                [results[planned.index] for planned in shard.cells()],
            )
            shard_states[shard.index] = state
            if journal is not None:
                append_journal_entries(
                    journal,
                    [result.to_entry(shard.index) for result in shard_results]
                    + [state.to_entry()],
                )
            executed_shards += 1
            obs.count("sweep.shards.completed")
            obs.mark("sweep.shard.completed", shard.index)
            obs.gauge("sweep.progress", len(results) / len(plan))
        obs.gauge("sweep.cells.done", len(results))
    ordered = tuple(results[index] for index in sorted(results))
    return SweepResult(
        plan=plan,
        results=ordered,
        executed=executed,
        skipped=skipped,
        level=level,
        shard_states=tuple(
            shard_states[index] for index in sorted(shard_states)
        ),
    )


def _workload_context(
    plan: SweepPlan,
    key: str,
    contexts: dict[str, _WorkloadContext],
    classifier: CaseClassifier,
    runtime: EngineRuntime | None,
    obs: Instrumentation,
) -> _WorkloadContext:
    """The (cached) run-state for one distinct workload."""
    context = contexts.get(key)
    if context is not None:
        obs.count("sweep.workloads.reused")
        return context
    with obs.span("sweep.workload", key=key):
        workload = plan.workloads[key].build()
        if runtime is not None:
            arrays, spec = runtime.publish_workload(workload)
        else:
            arrays, spec = workload.to_arrays(), None
        positions = arrays.cancer_index
        codes = cancer_class_codes(workload, classifier, arrays, positions)
        context = _WorkloadContext(
            workload=workload,
            arrays=arrays,
            spec=spec,
            positions=positions,
            codes=codes,
            class_names=tuple(
                case_class.name for case_class in classifier.classes
            ),
        )
    contexts[key] = context
    obs.count("sweep.workloads.built")
    return context


def _build_cell_work(planned: PlannedCell) -> FusedItem:
    """Build one cell's fresh system and wrap it as a fused item."""
    system = planned.cell.system.build(planned.seed)
    try:
        return build_fused_item(planned.index, system, planned.seed)
    except SimulationError as exc:
        raise SimulationError(f"cell {planned.cell_id!r}: {exc}") from exc


def _execute_shard(
    plan: SweepPlan,
    shard: Shard,
    pending: list[PlannedCell],
    contexts: dict[str, _WorkloadContext],
    classifier: CaseClassifier,
    runtime: EngineRuntime | None,
    obs: Instrumentation,
) -> list[CellResult]:
    """Execute one shard's pending cells as fused dispatches."""
    pending_ids = {planned.cell_id for planned in pending}
    tasks: list[FusedTask] = []
    task_meta: list[list[PlannedCell]] = []
    for batch in shard.batches:
        cells = [
            planned for planned in batch.cells if planned.cell_id in pending_ids
        ]
        if not cells:
            continue
        context = _workload_context(
            plan, batch.workload_key, contexts, classifier, runtime, obs
        )
        items = tuple(_build_cell_work(planned) for planned in cells)
        plane: Any = context.spec if context.spec is not None else context.arrays
        tasks.append(
            (
                plane,
                plan.chunk_size,
                context.positions,
                context.codes,
                len(context.class_names),
                items,
            )
        )
        task_meta.append(cells)
        obs.count("sweep.dispatches")
    if runtime is not None:
        outputs = runtime.map(run_fused_batch, tasks)
    else:
        outputs = [run_fused_batch(task) for task in tasks]

    shard_results: list[CellResult] = []
    for cells, output in zip(task_meta, outputs):
        by_index = {planned.index: planned for planned in cells}
        context = contexts[cells[0].workload_key]
        for row in output:
            planned = by_index[row[0]]
            counts = FusedCounts.from_row(row, context.class_names)
            shard_results.append(
                CellResult(
                    index=planned.index,
                    cell_id=planned.cell_id,
                    seed=planned.seed,
                    system_name=planned.cell.system.label(),
                    workload_name=planned.workload_key,
                    cancer_failures=counts.cancer_failures,
                    cancer_trials=counts.cancer_trials,
                    healthy_failures=counts.healthy_failures,
                    healthy_trials=counts.healthy_trials,
                    class_names=counts.class_names,
                    class_failures=counts.class_failures,
                    class_trials=counts.class_trials,
                )
            )
    shard_results.sort(key=lambda result: result.index)
    return shard_results


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
    with the recorded ``(seed, chunk_size)`` — the independent path the
    determinism contract promises is bit-identical to the fused sweep.
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


def _picklable(value: object) -> bool:  # pragma: no cover - diagnostic helper
    """Whether a value survives pickling (diagnostics for custom systems)."""
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True
