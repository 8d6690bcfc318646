"""The engine's one kernel: fused ``(system, seed)`` items over one workload plane.

Every count the engine produces comes out of :func:`run_fused_batch`,
which decides each item's chunks and tallies them with the one tally,
:func:`~repro.system.simulate.count_failures`.  Its one caller,
:meth:`EngineRuntime.run_fused <repro.engine.runtime.EngineRuntime.run_fused>`,
builds the :data:`FusedTask` tuples and places them in-process or on its
pool, for the systems of one ``evaluate``/``compare`` call, the coalesced
requests of one service (:mod:`repro.service`) dispatch and the cells of
one sweep (:mod:`repro.sweep.runner`) shard alike.  It is also the
worker side of the shared-memory plane: a pooled task carries a
:class:`_SegmentSpec`, attached once per worker process.

**Determinism contract.**  Each fused item carries its own seed; its
chunk generators derive via :func:`~repro.engine.executor._chunk_rngs`,
and the class codes come from
:func:`~repro.engine.executor.cancer_class_codes`.  An item's counts
therefore depend only on its ``(seed, chunk_size)`` — fused next to one
neighbour or thirty-one, over the whole plan or summed over chunk
ranges, in-process or pooled, the result is bit-identical.
``tests/engine/test_fused_equivalence.py`` pins this against
:func:`~repro.engine.executor.evaluate_system_batch` for batch, stream
and double-reading systems.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import NamedTuple, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..obs import SpanPayload
from ..reader.state import ReaderStateVector
from ..system.simulate import FailureTally, SystemEvaluation, count_failures, count_trials
from ..system.single import ScreeningSystem
from .arrays import CaseArrays
from .executor import (
    _chunk_rngs,
    cancer_class_codes,
    plan_chunks,
    supports_batch,
    supports_stream,
)

__all__ = [
    "ROW_COLUMNS",
    "FusedItem",
    "FusedTask",
    "FusedOutput",
    "FusedCounts",
    "build_fused_item",
    "count_failures",
    "run_fused_batch",
    "cancer_class_codes",
]


@dataclass(frozen=True)
class _SegmentSpec:
    """Recipe for rebuilding a :class:`CaseArrays` from a shared segment.

    This — not the arrays — is what travels to workers: the segment
    name, the case count, and per column its dtype string and byte
    offset into the segment.  All offsets are 8-byte aligned.
    """

    name: str
    num_cases: int
    fields: tuple[tuple[str, str, int], ...]


def _arrays_from_segment(
    segment: shared_memory.SharedMemory, spec: _SegmentSpec
) -> CaseArrays:
    """Zero-copy :class:`CaseArrays` view over an attached segment."""
    columns: dict[str, np.ndarray] = {}
    for name, dtype_str, offset in spec.fields:
        column: np.ndarray = np.ndarray(
            (spec.num_cases,),
            dtype=np.dtype(dtype_str),
            buffer=segment.buf,
            offset=offset,
        )
        column.flags.writeable = False  # the plane is read-only by contract
        columns[name] = column
    return CaseArrays(**columns)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    On Python >= 3.13 ``track=False`` keeps the attach out of the
    resource tracker entirely.  Before that, attaching re-registers the
    name — harmless for pool workers, which inherit the parent's tracker
    (the registration set is idempotent and the parent's ``unlink`` is
    the single point of removal), so no unregister dance is needed.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - depends on Python version
        return shared_memory.SharedMemory(name=name)


#: Worker-side cache of attached segments, keyed by segment name.  Lives
#: for the worker process's lifetime (i.e. the pool's), so successive
#: tasks over one workload attach exactly once.
_WORKER_SEGMENTS: OrderedDict[str, tuple[shared_memory.SharedMemory, CaseArrays]]
_WORKER_SEGMENTS = OrderedDict()
_WORKER_CACHE_MAX = 8


def _attached_arrays(spec: _SegmentSpec) -> CaseArrays:
    """The (cached) zero-copy view for a segment spec, worker side."""
    cached = _WORKER_SEGMENTS.get(spec.name)
    if cached is not None:
        _WORKER_SEGMENTS.move_to_end(spec.name)
        return cached[1]
    segment = _attach_segment(spec.name)
    arrays = _arrays_from_segment(segment, spec)
    _WORKER_SEGMENTS[spec.name] = (segment, arrays)
    while len(_WORKER_SEGMENTS) > _WORKER_CACHE_MAX:
        _, (old_segment, old_arrays) = _WORKER_SEGMENTS.popitem(last=False)
        del old_arrays  # drop the views so the mapping can be released
        try:
            old_segment.close()
        except BufferError:  # pragma: no cover - a view escaped; skip close
            pass
    return arrays


#: One fused item's work: ``(index, system, seed, stream)``.  ``index``
#: is the caller's label for the item (cell index, request slot) — its
#: row comes back at the item's position; a ``None`` seed draws from the
#: components' private generators; ``stream`` selects the ordered
#: stream-carry path over ``decide_batch``.
FusedItem = tuple[int, ScreeningSystem, int | None, bool]

#: One fused dispatch: the workload plane (a :class:`_SegmentSpec` for
#: pooled shared-memory execution, or the :class:`CaseArrays` directly),
#: the chunk size, the cancer positions/class codes, the class count, the
#: items to run, the chunk range ``(first, stop)`` of the plan it covers
#: (``None``: every chunk, as a stream item needs) and the traced switch.
FusedTask = tuple[
    _SegmentSpec | CaseArrays, int, np.ndarray, np.ndarray, int, tuple[FusedItem, ...],
    tuple[int, int] | None, bool,
]

#: The leading columns of a count-matrix row; the per-class failures and
#: then the per-class trials follow, one column per class code, so a row
#: has ``4 + 2 * n_classes`` columns.
ROW_COLUMNS = ("cancer_failures", "cancer_trials", "healthy_failures", "healthy_trials")


class FusedOutput(NamedTuple):
    """What a :data:`FusedTask` returns: the count matrix over its chunk
    range, each stream item's final state (``None`` for batch items: a
    caller whose task ran on copies commits them), and a traced task's
    ``runtime.attach``/``runtime.chunk`` span payloads."""

    rows: np.ndarray
    states: tuple[ReaderStateVector | None, ...]
    spans: list[SpanPayload]


def build_fused_item(
    index: int, system: ScreeningSystem, seed: int | None
) -> FusedItem:
    """Classify a system's execution mode and wrap it as a fused item.

    Raises:
        SimulationError: when the system supports neither batch nor
            stream execution — fused dispatch has no scalar fallback, so
            such systems must be evaluated through
            :func:`~repro.engine.executor.evaluate_system_batch` instead.
    """
    stream = not supports_batch(system)
    if stream and not supports_stream(system):
        raise SimulationError(
            f"system {system.name!r} supports neither batch nor stream "
            "execution; fused dispatch requires a vectorizable system"
        )
    return (index, system, seed, stream)


def run_fused_batch(task: FusedTask) -> FusedOutput:
    """Execute one fused dispatch; the one kernel that decides and tallies.

    Runs in a pool worker (attaching the shared plane) or in-process
    (arrays travel directly) — the items' chunks and generators are
    identical either way, which is what makes serial, pooled, ranged,
    coalesced and resumed executions bit-identical.  Items run in order:
    unseeded items draw from their components' private generators in
    the caller's order, and each stream item's final state is committed
    into its system before the next item starts.

    Returns:
        A :class:`FusedOutput` whose int64 count matrix has one row per
        item, in item order (columns: :data:`ROW_COLUMNS`, then the
        per-class failures and trials), counting the range's cases only.
    """
    plane, chunk_size, positions, codes, n_classes, items, chunk_range, traced = task
    pid = os.getpid()
    spans: list[SpanPayload] = []
    if isinstance(plane, CaseArrays):
        arrays = plane
    else:
        fresh = traced and plane.name not in _WORKER_SEGMENTS
        began = time.perf_counter()
        arrays = _attached_arrays(plane)
        if fresh:
            segment_bytes = _WORKER_SEGMENTS[plane.name][0].size
            attrs: dict[str, object] = {"segment": plane.name, "bytes": segment_bytes}
            spans.append(("runtime.attach", attrs, time.perf_counter() - began, pid))
    chunks = plan_chunks(len(arrays), chunk_size)
    n_chunks = len(chunks)
    first, stop = (0, n_chunks) if chunk_range is None else chunk_range
    low, high = 0, len(arrays)
    if stop - first < n_chunks:
        chunks = chunks[first:stop]
        low, high = chunks[0][0], chunks[-1][1]
        cut = slice(*np.searchsorted(positions, (low, high)))
        positions, codes = positions[cut] - low, codes[cut]
    chunk_arrays = [arrays.chunk(start, end) for start, end in chunks]
    # Every item decides the same cases: the trials are the task's.
    out = np.empty((len(items), len(ROW_COLUMNS) + 2 * n_classes), dtype=np.int64)
    out[:, 1], out[:, 3], out[:, 4 + n_classes :] = count_trials(
        high - low, positions, codes, n_classes
    )
    states: list[ReaderStateVector | None] = []
    for row, (_, system, seed, stream) in zip(out, items):
        rngs = _chunk_rngs(seed, n_chunks, first, stop)
        state = system.stream_state() if stream else None
        failures = []
        for (start, end), chunk, rng in zip(chunks, chunk_arrays, rngs):
            began = time.perf_counter() if traced else 0.0
            if stream:
                decisions, state = system.advance_stream(chunk, state, rng=rng)
            else:
                decisions = system.decide_batch(chunk, rng=rng)
            failures.append(np.asarray(decisions.failures(chunk.has_cancer)))
            if traced:
                attrs = {"start": start, "stop": end}
                spans.append(("runtime.chunk", attrs, time.perf_counter() - began, pid))
        if stream:
            system.commit_stream(state)
        states.append(state)
        failed = failures[0] if len(failures) == 1 else np.concatenate(failures)
        row[0], row[2], row[4 : 4 + n_classes] = count_failures(
            failed, positions, codes, n_classes
        )
    return FusedOutput(out, tuple(states), spans)


@dataclass(frozen=True)
class FusedCounts:
    """One fused item's exact integer failure counts, demultiplexed.

    Classes with zero cancer trials are dropped (exactly as
    :meth:`FailureTally.from_counts` leaves them out), so
    :meth:`evaluation` rebuilds the same
    :class:`~repro.system.simulate.SystemEvaluation` — identical Wilson
    intervals — as a standalone run of the same ``(seed, chunk_size)``.
    """

    cancer_failures: int
    cancer_trials: int
    healthy_failures: int
    healthy_trials: int
    class_names: tuple[str, ...]
    class_failures: tuple[int, ...]
    class_trials: tuple[int, ...]

    @classmethod
    def from_row(cls, row: np.ndarray, class_names: Sequence[str]) -> "FusedCounts":
        """Demultiplex one count-matrix row against the classifier's classes."""
        values = row.tolist()
        n_classes = len(class_names)
        kept = [
            (name, failures, trials)
            for name, failures, trials in zip(
                class_names, values[4 : 4 + n_classes], values[4 + n_classes :]
            )
            if trials
        ]
        return cls(
            *values[:4],
            class_names=tuple(name for name, _, _ in kept),
            class_failures=tuple(failures for _, failures, _ in kept),
            class_trials=tuple(trials for _, _, trials in kept),
        )

    def tally(self) -> FailureTally:
        """The counts as a :class:`FailureTally` (classes reattached)."""
        return FailureTally(
            cancer_failures=self.cancer_failures,
            cancer_trials=self.cancer_trials,
            healthy_failures=self.healthy_failures,
            healthy_trials=self.healthy_trials,
            class_failures={
                CaseClass(name): failures
                for name, failures in zip(self.class_names, self.class_failures)
            },
            class_trials={
                CaseClass(name): trials
                for name, trials in zip(self.class_names, self.class_trials)
            },
        )

    def evaluation(
        self, system_name: str, workload_name: str, level: float = 0.95
    ) -> SystemEvaluation:
        """The counts as a :class:`SystemEvaluation` (same floats as live)."""
        return self.tally().to_evaluation(system_name, workload_name, level)
