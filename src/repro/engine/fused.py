"""Fused engine dispatches: many ``(system, seed)`` pairs, one workload plane.

This module is the shared execution kernel behind every caller that
amortises dispatch overhead by *fusing* independent evaluations of one
workload into a single task:

* the sweep runner (:mod:`repro.sweep.runner`) fuses the cells of a
  compiled :class:`~repro.sweep.plan.FusedBatch` and copies the rows
  into its plan-wide count matrix;
* the always-on service (:mod:`repro.service`) coalesces concurrent
  requests that share a workload fingerprint into micro-batches.

Both hand a :data:`FusedTask` — the workload plane (in-memory arrays or
a shared-memory :class:`~repro.engine.runtime._SegmentSpec`), the chunk
size, the cancer positions/class codes, and the fused items — to
:func:`run_fused_batch`, in a pool worker or in-process, and get back
one count matrix: a row per item, in item order (:data:`ROW_COLUMNS`).

**Determinism contract.**  Each fused item carries its own seed; its
chunk generators derive via the same ``SeedSequence`` scheme as
:func:`~repro.engine.executor.evaluate_system_batch`, the decision
kernels are the engine's own (:func:`~repro.engine.runtime._decide_jobs`
/ :func:`~repro.engine.runtime._advance_stream`), and the tally is the
engine's one tally, :func:`~repro.system.simulate.count_failures`, over
class codes from :func:`~repro.engine.executor.cancer_class_codes`.  An
item's counts therefore depend only on its ``(seed, chunk_size)`` —
fused next to one neighbour or thirty-one, dispatched serially or
pooled, the result is bit-identical to evaluating that item standalone.
``tests/engine/test_fused_equivalence.py`` pins this against the per-call
executor for batch, stream and double-reading systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..system.simulate import FailureTally, SystemEvaluation, count_failures
from ..system.single import ScreeningSystem
from .arrays import CaseArrays
from .executor import (
    _chunk_rngs,
    cancer_class_codes,
    plan_chunks,
    supports_batch,
    supports_stream,
)
from .runtime import _advance_stream, _attached_arrays, _decide_jobs, _Job, _SegmentSpec

__all__ = [
    "ROW_COLUMNS",
    "FusedItem",
    "FusedTask",
    "FusedCounts",
    "build_fused_item",
    "item_failures",
    "count_failures",
    "run_fused_batch",
    "cancer_class_codes",
]

#: One fused item's work: ``(index, system, seed, stream)``.  ``index``
#: is the caller's label for the item (cell index, request slot) — its
#: row comes back at the item's position; ``stream`` selects the ordered
#: stream-carry path over ``decide_batch``.
FusedItem = tuple[int, ScreeningSystem, int, bool]

#: One fused dispatch: the workload plane (a :class:`_SegmentSpec` for
#: pooled shared-memory execution, or the :class:`CaseArrays` directly),
#: the chunk size, the cancer positions/class codes, the class count,
#: and the items to run against the plane.
FusedTask = tuple[
    "_SegmentSpec | CaseArrays",
    int,
    np.ndarray,
    np.ndarray,
    int,
    tuple[FusedItem, ...],
]

#: The leading columns of a count-matrix row; the per-class failures and
#: then the per-class trials follow, one column per class code, so a row
#: has ``4 + 2 * n_classes`` columns.
ROW_COLUMNS = ("cancer_failures", "cancer_trials", "healthy_failures", "healthy_trials")


def build_fused_item(
    index: int, system: ScreeningSystem, seed: int
) -> FusedItem:
    """Classify a fresh system's execution mode and wrap it as a fused item.

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


def item_failures(
    system: ScreeningSystem,
    arrays: CaseArrays,
    jobs: Sequence[_Job],
    stream: bool,
) -> np.ndarray:
    """One item's per-case failure flags, via the engine's own kernels."""
    if stream:
        chunk_failures, _ = _advance_stream(system, arrays, jobs, system.stream_state())
    else:
        chunk_failures = _decide_jobs(system, arrays, jobs)
    if len(chunk_failures) == 1:
        return chunk_failures[0]
    return np.concatenate(chunk_failures)


def run_fused_batch(task: FusedTask) -> np.ndarray:
    """Execute one fused dispatch; the single kernel every path runs.

    Runs in a pool worker (attaching the shared plane) or in-process
    (arrays travel directly) — the items' chunk jobs and generators are
    identical either way, which is what makes serial, pooled, coalesced,
    and resumed executions bit-identical.  Returns an int64 count matrix
    with one row per item, in item order (columns: :data:`ROW_COLUMNS`,
    then the per-class failures and trials).
    """
    plane, chunk_size, positions, codes, n_classes, items = task
    if isinstance(plane, _SegmentSpec):
        arrays = _attached_arrays(plane)
    else:
        arrays = plane
    chunks = plan_chunks(len(arrays), chunk_size)
    out = np.empty((len(items), len(ROW_COLUMNS) + 2 * n_classes), dtype=np.int64)
    for row, (_, system, seed, stream) in zip(out, items):
        rngs = _chunk_rngs(seed, len(chunks))
        jobs: list[_Job] = [
            (start, stop, rng) for (start, stop), rng in zip(chunks, rngs)
        ]
        failed = item_failures(system, arrays, jobs, stream)
        *scalars, class_failures, class_trials = count_failures(
            failed, positions, codes, n_classes
        )
        row[:4] = scalars
        row[4 : 4 + n_classes] = class_failures
        row[4 + n_classes :] = class_trials
    return out


@dataclass(frozen=True)
class FusedCounts:
    """One fused item's exact integer failure counts, demultiplexed.

    Classes with zero cancer trials are dropped (exactly as
    :meth:`FailureTally.record_batch` never creates their entries), so
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
