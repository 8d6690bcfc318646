"""Persistent engine runtime: pooled workers over a shared-memory workload plane.

:class:`EngineRuntime` places every engine evaluation: it runs the
systems of an ``evaluate``/``compare`` call, a service dispatch or a
sweep shard as fused batches through the engine's one kernel,
:func:`~repro.engine.fused.run_fused_batch`, in-process or on its pool,
and amortises everything around the kernel for programs that evaluate
repeatedly (comparisons, extrapolation grids, setting sweeps):

* **Persistent pool.**  One :class:`~concurrent.futures.ProcessPoolExecutor`
  is created lazily, by the first call that needs it, and reused across
  every ``evaluate``/``compare``/``run_fused``/``map`` call until
  :meth:`EngineRuntime.close` (or the context manager exit).
* **Zero-copy workload plane.**  Each distinct workload's
  :class:`~repro.engine.arrays.CaseArrays` is published *once* into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment; tasks
  carry only a :class:`~repro.engine.fused._SegmentSpec` (segment name +
  column offsets), a chunk range and the items, and workers attach and
  slice views — no array travels through a pickle after publication.
* **Fingerprint-keyed caches.**  Workloads are cached by their content
  :meth:`~repro.screening.workload.Workload.fingerprint` (computed once
  per workload; two equal workloads share one entry), and per-classifier
  cancer-class codes are cached alongside, so repeated evaluations skip
  publication and classification entirely.
* **Adaptive chunk planning.**  :func:`plan_chunk_size` sizes chunks
  from the case count, worker count, and a bytes-per-chunk budget
  instead of the fixed :data:`~repro.engine.executor.DEFAULT_CHUNK_SIZE`.

Seeded results depend only on ``(seed, chunk_size)`` — never on worker
count, pool reuse, shared memory, or scheduling — because a chunk's
generator derives from the seed and the chunk's index alone, and chunk
ranges only change *where* a chunk runs.  Unseeded evaluations run
serially in-process and stay bit-identical to the scalar loop.  Without
shared memory the arrays are pickled into every task; an unpicklable
system or function, or a broken pool, falls back to in-process
execution.  Results are identical on every path.
"""

from __future__ import annotations

import pickle
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import groupby
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import RuntimeDegradationWarning, SimulationError
from ..obs import Instrumentation, SpanPayload, get_instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import FailureTally, SystemEvaluation, evaluate_system
from ..system.single import ScreeningSystem
from .arrays import ARRAY_FIELDS, ENTRIES_PER_KIND, CaseArrays
from .executor import (
    DEFAULT_CHUNK_SIZE,
    cancer_class_codes,
    plan_chunks,
    supports_batch,
    supports_stream,
)
from .fused import (
    ROW_COLUMNS,
    FusedItem,
    FusedOutput,
    FusedTask,
    _SegmentSpec,
    build_fused_item,
    run_fused_batch,
)

__all__ = [
    "EngineRuntime",
    "plan_chunk_size",
    "shared_memory_available",
    "TARGET_CHUNK_BYTES",
    "MIN_CHUNK_SIZE",
    "CHUNKS_PER_WORKER",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Soft per-chunk payload budget for adaptive planning (1 MiB): big
#: enough that per-chunk Python overhead is negligible, small enough
#: that chunk working sets stay cache-resident.
TARGET_CHUNK_BYTES = 1 << 20

#: Floor on adaptively planned chunk sizes; below this the per-chunk
#: overhead dominates the kernels.
MIN_CHUNK_SIZE = 1024

#: Chunks the planner aims to hand each worker, so stragglers can be
#: balanced without making chunks tiny.
CHUNKS_PER_WORKER = 4


def plan_chunk_size(
    num_cases: int,
    workers: int,
    *,
    bytes_per_case: int = 64,
    target_chunk_bytes: int = TARGET_CHUNK_BYTES,
    min_chunk_size: int = MIN_CHUNK_SIZE,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> int:
    """Plan a chunk size from the workload shape and worker count.

    The planned size is the byte-budget cap (``target_chunk_bytes /
    bytes_per_case``) or the fair share (enough chunks for every worker
    to receive ``chunks_per_worker``), whichever is smaller, floored at
    ``min_chunk_size`` and capped at the workload itself.  A pure
    function of its arguments — but note it *does* depend on
    ``workers``, so callers who need seeded results independent of
    worker count must pass an explicit ``chunk_size`` instead of
    ``None`` (the documented contract ties results to
    ``(seed, chunk_size)``).

    Raises:
        SimulationError: if ``workers`` is not positive.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers!r}")
    if num_cases <= 0:
        return max(1, min_chunk_size)
    budget = max(1, target_chunk_bytes // max(1, bytes_per_case))
    fair = -(-num_cases // max(1, workers * chunks_per_worker))
    size = max(min_chunk_size, min(budget, fair))
    return max(1, min(size, num_cases))


_SHM_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """Whether shared-memory segments can be created here (probed once).

    Restricted environments (no ``/dev/shm``, seccomp'd containers) make
    :class:`~multiprocessing.shared_memory.SharedMemory` creation fail;
    the runtime then falls back to pickling arrays into tasks.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=8)
        except (OSError, ValueError, ImportError):
            _SHM_AVAILABLE = False
        else:
            probe.close()
            probe.unlink()
            _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _aligned(nbytes: int) -> int:
    """Round a byte count up to 8-byte alignment."""
    return -(-nbytes // 8) * 8


def _publish_arrays(
    arrays: CaseArrays,
) -> tuple[shared_memory.SharedMemory, _SegmentSpec]:
    """Copy a batch into a fresh shared segment; returns (segment, spec).

    The caller owns the segment and must eventually ``close()`` and
    ``unlink()`` it.
    """
    offset = 0
    fields: list[tuple[str, str, int]] = []
    columns: list[np.ndarray] = []
    for name in ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(arrays, name))
        fields.append((name, column.dtype.str, offset))
        columns.append(column)
        offset += _aligned(column.nbytes)
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (name, _, start), column in zip(fields, columns):
        view: np.ndarray = np.ndarray(
            column.shape, dtype=column.dtype, buffer=segment.buf, offset=start
        )
        view[:] = column
        del view  # release the buffer export before the segment can close
    spec = _SegmentSpec(
        name=segment.name, num_cases=len(arrays), fields=tuple(fields)
    )
    return segment, spec


def _chunk_ranges(n_chunks: int, parts: int) -> list[tuple[int, int]]:
    """Split a plan's chunks into at most ``parts`` contiguous, near-equal
    ``(first, stop)`` ranges, none empty.

    A scheduling decision only: every chunk keeps its own generator, so
    an item's rows summed over the ranges are its whole-plan row.
    """
    split = np.array_split(np.arange(n_chunks), max(1, min(parts, n_chunks)))
    return [(int(part[0]), int(part[-1]) + 1) for part in split]


def _picklable(*objects: Any) -> bool:
    """Whether the objects pickle (an error path's check)."""
    try:
        pickle.dumps(objects)
    except Exception:
        return False
    return True


def _tally_from_row(row: np.ndarray, classes: Sequence[CaseClass]) -> FailureTally:
    """A count-matrix row as a tally over the classifier's own classes."""
    class_failures, class_trials = row[4:].reshape(2, len(classes))
    return FailureTally.from_counts((*row[:4].tolist(), class_failures, class_trials), classes)


class _Columns(NamedTuple):
    """A columnised workload and its cancer cases' classes under one
    classifier: made once per (workload, classifier), shared by every
    system evaluated on them."""

    arrays: CaseArrays
    positions: np.ndarray
    codes: np.ndarray
    classes: tuple[CaseClass, ...]


@dataclass
class _CachedWorkload:
    """One workload's runtime residency: arrays, segment, class-code caches."""

    arrays: CaseArrays
    segment: shared_memory.SharedMemory | None = None
    spec: _SegmentSpec | None = None
    #: Per-classifier cache: ``id(classifier)`` -> (classifier — a strong
    #: reference keeping the id stable — the workload's columns under it),
    #: at most ``ENTRIES_PER_KIND``, oldest out.
    columns: dict[int, tuple[CaseClassifier, _Columns]] = field(default_factory=dict)


class _Batch(NamedTuple):
    """One batch of a :meth:`EngineRuntime.run_fused` call, ready to place."""

    entry: _CachedWorkload
    columns: _Columns
    items: tuple[FusedItem, ...]
    chunk_size: int
    n_chunks: int


def _release_segment(entry: _CachedWorkload) -> None:
    """Close and unlink a cached workload's segment, if it has one."""
    segment, entry.segment, entry.spec = entry.segment, None, None
    if segment is None:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _release_runtime(
    pool_box: list[ProcessPoolExecutor | None],
    cache: OrderedDict[str, _CachedWorkload],
) -> None:
    """Tear down a runtime's pool and segments (close() and GC finalizer)."""
    pool, pool_box[0] = pool_box[0], None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    for entry in cache.values():
        _release_segment(entry)
    cache.clear()


class EngineRuntime:
    """A persistent execution context for the batch engine.

    Use as a context manager (or call :meth:`close` explicitly)::

        with EngineRuntime(workers=4) as runtime:
            for system in systems:
                evaluate_system_batch(system, workload, seed=7, runtime=runtime)

    Everything expensive is created once and reused: the process pool,
    the shared-memory publication of each workload, the columnisation,
    and the per-classifier cancer-class codes.  Results do not depend
    on the runtime — same chunking, same chunk generators, the same
    kernel — so it is a pure performance substrate.

    Args:
        workers: Worker processes for seeded parallel execution.  ``1``
            keeps everything in-process (no pool, no shared memory).
            Shared memory is used where :func:`shared_memory_available`
            finds it; elsewhere, and after a segment cannot be created,
            arrays are pickled into tasks.
        max_cached_workloads: Distinct workloads kept resident (LRU).
        shm_byte_budget: Soft cap on the total bytes of live shared
            segments.  When a fresh publication pushes the total over
            the budget, least-recently-used segments are unlinked (the
            arrays and class-code caches stay resident — only the shared
            plane is dropped, and it re-publishes on next parallel use).
            ``None`` (the default) keeps every cached workload's segment
            alive; set it for many-workload sweeps so the runtime cannot
            exhaust ``/dev/shm``.  Evictions are counted under
            ``runtime.shm.evicted``.
        obs: Instrumentation to record into.  ``None`` (the default)
            resolves the ambient instrumentation at construction — the
            null singleton unless :func:`repro.obs.use_instrumentation`
            is active — so plain runtimes pay only no-op calls.

    Thread-safety: a runtime is not thread-safe; share it across calls,
    not across threads.
    """

    def __init__(
        self,
        workers: int = 2,
        max_cached_workloads: int = 4,
        shm_byte_budget: int | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers!r}")
        if max_cached_workloads < 1:
            raise SimulationError(
                f"max_cached_workloads must be >= 1, got {max_cached_workloads!r}"
            )
        if shm_byte_budget is not None and shm_byte_budget < 1:
            raise SimulationError(
                f"shm_byte_budget must be >= 1 or None, got {shm_byte_budget!r}"
            )
        self._workers = int(workers)
        self._max_cached = int(max_cached_workloads)
        self._shm_byte_budget = (
            int(shm_byte_budget) if shm_byte_budget is not None else None
        )
        self._obs = obs if obs is not None else get_instrumentation()
        self._degraded: set[str] = set()
        self._use_shm = shared_memory_available()
        if not self._use_shm and self._workers > 1:
            self._note_degradation(
                "no_shm",
                "shared memory is unavailable; workloads will be pickled "
                "into every task group (results are unaffected)",
            )
        self._pool_box: list[ProcessPoolExecutor | None] = [None]
        self._pool_launches = 0
        self._cache: OrderedDict[str, _CachedWorkload] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._closed = False
        # Belt-and-braces: segments must never outlive the runtime, even
        # if close() is skipped — unlink on garbage collection too.
        self._finalizer = weakref.finalize(
            self, _release_runtime, self._pool_box, self._cache
        )

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "EngineRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment (idempotent)."""
        self._closed = True
        self._finalizer()

    # -- introspection (stable surface for tests and diagnostics) ------

    @property
    def workers(self) -> int:
        """Worker processes this runtime fans out over."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def pool_launches(self) -> int:
        """Process pools created so far (1 after first parallel call)."""
        return self._pool_launches

    @property
    def uses_shared_memory(self) -> bool:
        """Whether workloads are published to shared memory here."""
        return self._use_shm

    @property
    def obs(self) -> Instrumentation:
        """The instrumentation this runtime records into."""
        return self._obs

    @property
    def degradations(self) -> frozenset[str]:
        """Degradation reasons that have fired on this runtime."""
        return frozenset(self._degraded)

    @property
    def active_segments(self) -> tuple[str, ...]:
        """Names of the shared segments currently published."""
        return tuple(
            entry.segment.name
            for entry in self._cache.values()
            if entry.segment is not None
        )

    @property
    def shm_bytes_live(self) -> int:
        """Total bytes of currently published shared segments."""
        return sum(
            entry.segment.size
            for entry in self._cache.values()
            if entry.segment is not None
        )

    def cache_info(self) -> dict[str, int]:
        """Cache counters: resident workloads, hits, misses, segments."""
        return {
            "workloads": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
            "segments": len(self.active_segments),
        }

    # -- workload plane (shared with the sweep runner) -----------------

    def publish_workload(
        self, workload: Workload
    ) -> tuple[CaseArrays, _SegmentSpec | None]:
        """Cache and (if parallel) publish one workload's columns.

        Returns the cached :class:`CaseArrays` plus, on a parallel
        shared-memory runtime, the :class:`_SegmentSpec` pooled tasks
        attach with (``None`` on serial/no-shm runtimes).  Repeated calls
        for equal workloads hit the fingerprint-keyed cache, so each
        distinct workload is published once per runtime, however many
        callers share it; :meth:`run_fused` publishes through the same
        cache.
        """
        if self._closed:
            raise SimulationError("cannot publish on a closed EngineRuntime")
        entry = self._workload_entry(workload)
        spec = self._publish(entry) if self._workers > 1 else None
        self._trim()
        return entry.arrays, spec

    # -- evaluation ----------------------------------------------------

    def evaluate(
        self,
        system: ScreeningSystem,
        workload: Workload,
        classifier: CaseClassifier | None = None,
        level: float = 0.95,
        *,
        seed: int | None = None,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ) -> SystemEvaluation:
        """Evaluate one system; the runtime analogue of
        :func:`~repro.engine.executor.evaluate_system_batch`.

        Unseeded calls run serially in-process (bit-identical to the
        scalar loop); seeded calls fan out over the persistent pool when
        it helps.  ``chunk_size=None`` plans adaptively via
        :func:`plan_chunk_size` — pass an explicit size for results
        independent of this runtime's worker count.

        Stateful-but-vectorizable systems (temporal reader wrappers
        exposing the stream-carry protocol) advance chunk by chunk in
        order; seeded parallel calls move the whole ordered stream to
        one pooled worker reading from the shared plane, and the final
        reader state is committed back into the caller's system either
        way.  Systems supporting neither batch nor stream execution
        degrade to the scalar loop (``runtime.degraded.scalar_system``).
        """
        evaluations = self.compare(
            [system], workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
        return evaluations[system.name]

    def compare(
        self,
        systems: Sequence[ScreeningSystem],
        workload: Workload,
        classifier: CaseClassifier | None = None,
        level: float = 0.95,
        *,
        seed: int | None = None,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ) -> dict[str, SystemEvaluation]:
        """Evaluate several systems over one workload, sharing everything.

        The pool, the published workload, one columnisation and one
        classification are shared across all systems — this is the call
        :func:`~repro.engine.executor.compare_systems_batch` delegates
        to, and the common-random-numbers property holds exactly as
        there (every system's chunk generators derive from the same
        seed).  Consecutive batch- or stream-capable systems run as one
        fused batch (:func:`~repro.engine.fused.run_fused_batch`), each
        tallied once over all its chunks; a system supporting neither
        degrades to the scalar loop (``runtime.degraded.scalar_system``)
        where it stands, so every system runs in the caller's order.
        """
        if self._closed:
            raise SimulationError("cannot evaluate on a closed EngineRuntime")
        names = [system.name for system in systems]
        if len(set(names)) != len(names):
            raise SimulationError(f"system names must be unique, got {names!r}")
        classifier = (
            classifier if classifier is not None else SingleClassClassifier()
        )
        classes = tuple(classifier.classes)
        evaluations: dict[str, SystemEvaluation] = {}
        for fusable, group in groupby(
            systems, key=lambda system: supports_batch(system) or supports_stream(system)
        ):
            if not fusable:
                for system in group:
                    self._note_degradation(
                        "scalar_system",
                        f"system {system.name!r} supports neither batch nor stream "
                        "execution; evaluating through the per-case scalar loop",
                    )
                    evaluations[system.name] = evaluate_system(
                        system, workload, classifier, level, seed=seed
                    )
                continue
            fused = list(group)
            (rows,) = self.run_fused(
                [(workload, [(system, seed) for system in fused])],
                classifier=classifier, chunk_size=chunk_size,
            )
            with self._obs.span("runtime.tally", systems=len(fused)):
                for system, row in zip(fused, rows):
                    evaluations[system.name] = _tally_from_row(row, classes).to_evaluation(
                        system.name, workload.name, level
                    )
        return evaluations

    def run_fused(
        self,
        batches: Sequence[tuple[Workload, Sequence[tuple[ScreeningSystem, int | None]]]],
        *,
        classifier: CaseClassifier,
        chunk_size: int | None,
    ) -> list[np.ndarray]:
        """Run ``(workload, [(system, seed), ...])`` batches as fused tasks.

        The runtime's one placement rule, behind :meth:`compare` (one
        batch), a service dispatch (one batch of coalesced requests, each
        item with its own seed) and a sweep shard (a batch per fused
        dispatch of the plan).  The parts run on the pool, which the
        first such call launches, when the runtime has workers, every
        item is seeded (private component generators cannot cross
        processes) and there is more than one batch or a multi-chunk
        plan; otherwise every batch runs whole in-process.  On the pool a
        multi-chunk batch splits into at most ``workers`` chunk ranges of
        its batch items, whose rows are summed, plus one part holding its
        stream items whole; any other batch travels whole.  Every part
        reads its workload's published plane.  A system the pool cannot
        pickle sends the same parts back in-process
        (``unpicklable_system``).  Each stream item's final state is
        committed into the caller's system either way.  Every system must
        support batch or stream execution.

        Returns:
            One int64 count matrix per batch, in batch order, with one
            row per item in item order (columns:
            :data:`~repro.engine.fused.ROW_COLUMNS`, then the failures
            and trials of each of ``classifier.classes``).
        """
        if self._closed:
            raise SimulationError("cannot evaluate on a closed EngineRuntime")
        work: list[_Batch] = []
        for workload, pairs in batches:
            if len(workload) == 0:
                raise SimulationError("cannot evaluate a system on an empty workload")
            items = tuple(
                build_fused_item(index, system, seed)
                for index, (system, seed) in enumerate(pairs)
            )
            entry = self._workload_entry(workload)
            columns = self._columns(entry, workload, classifier)
            size = chunk_size
            if size is None:
                size = plan_chunk_size(
                    len(columns.arrays), self._workers,
                    bytes_per_case=columns.arrays.bytes_per_case,
                )
            n_chunks = len(plan_chunks(len(columns.arrays), size))
            work.append(_Batch(entry, columns, items, size, n_chunks))
        n_classes, traced = len(classifier.classes), self._obs.enabled
        with self._obs.span(
            "runtime.evaluate",
            batches=len(work),
            systems=sum(len(batch.items) for batch in work),
            cases=sum(len(batch.columns.arrays) for batch in work),
            chunks=sum(batch.n_chunks for batch in work),
            chunk_size=max((batch.chunk_size for batch in work), default=chunk_size),
        ):
            parallel = (
                self._workers > 1
                and all(seed is not None for batch in work for _, _, seed, _ in batch.items)
                and (len(work) > 1 or any(batch.n_chunks > 1 for batch in work))
            )
            pool = self._ensure_pool() if parallel else None
            # One (batch number, items, chunk range) per task.
            parts: list[tuple[int, tuple[FusedItem, ...], tuple[int, int] | None]] = []
            for number, batch in enumerate(work):
                if pool is None or batch.n_chunks == 1:
                    parts.append((number, batch.items, None))
                    continue
                plain = tuple(item for item in batch.items if not item[3])
                streams = tuple(item for item in batch.items if item[3])
                if plain:
                    ranges = _chunk_ranges(batch.n_chunks, self._workers)
                    parts += [(number, plain, chunk_range) for chunk_range in ranges]
                if streams:
                    parts.append((number, streams, None))

            def tasks(planes: Sequence[_SegmentSpec | CaseArrays]) -> list[FusedTask]:
                return [
                    (planes[number], work[number].chunk_size, work[number].columns.positions,
                     work[number].columns.codes, n_classes, items, chunk_range, traced)
                    for number, items, chunk_range in parts
                ]

            outputs: list[FusedOutput] | None = None
            if pool is not None:
                planes = [self._publish(batch.entry) or batch.columns.arrays for batch in work]
                outputs = self._on_pool(pool, run_fused_batch, tasks(planes), "unpicklable_system")
            pooled = outputs is not None
            if outputs is None:  # serial, or the pool could not run the parts
                outputs = [run_fused_batch(task) for task in tasks([b.columns.arrays for b in work])]
            results = [
                np.zeros((len(batch.items), len(ROW_COLUMNS) + 2 * n_classes), dtype=np.int64)
                for batch in work
            ]
            for (number, items, _), output in zip(parts, outputs):
                self._ingest_worker_payload(output.spans)
                results[number][[index for index, _, _, _ in items]] += output.rows
                if pooled:  # the pool advanced copies: commit their final states
                    for (_, system, _, _), state in zip(items, output.states):
                        if state is not None:
                            system.commit_stream(state)
        self._trim()
        return results

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply a picklable function over items on the persistent pool.

        The generic escape hatch for work that is not a fused engine
        batch.  Order is preserved.  Falls back to an in-process loop
        when the runtime is serial, and recomputes in-process when the
        pool breaks or fails to pickle ``fn`` or any item (told from
        ``fn``'s own errors by pickling them again, on that path only) —
        the result is the same either way.
        """
        if self._closed:
            raise SimulationError("cannot map on a closed EngineRuntime")
        work = list(items)
        if not work:
            return []
        with self._obs.span("runtime.map", items=len(work)):
            pool = self._ensure_pool()
            results = None if pool is None else self._on_pool(pool, fn, work, "unpicklable_map")
            return [fn(item) for item in work] if results is None else results

    # -- internals ------------------------------------------------------

    def _note_degradation(self, reason: str, message: str) -> None:
        """Count a degraded-path event; warn the first time per reason.

        The counter (``runtime.degraded.<reason>``) records *every*
        event so run reports show true frequencies; the
        :class:`RuntimeDegradationWarning` fires once per runtime per
        reason so a tight evaluation loop cannot flood the caller.
        """
        self._obs.count(f"runtime.degraded.{reason}")
        if reason not in self._degraded:
            self._degraded.add(reason)
            warnings.warn(
                f"EngineRuntime degraded ({reason}): {message}",
                RuntimeDegradationWarning,
                stacklevel=3,
            )

    def _ingest_worker_payload(self, payload: list[SpanPayload]) -> None:
        """Fold a traced worker's spans into this runtime's instrumentation."""
        self._obs.ingest_spans(payload)
        for name, attrs, duration, _ in payload:
            if name == "runtime.chunk":
                self._obs.observe("runtime.chunk.wall_s", duration)
            elif name == "runtime.attach":
                self._obs.count("runtime.shm.bytes_attached", float(attrs["bytes"]))  # type: ignore[arg-type]

    def _on_pool(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[Any], Any],
        work: Sequence[Any],
        unpicklable: str,
    ) -> list[Any] | None:
        """``fn`` over ``work`` on the pool, in order; ``None`` when the pool
        broke (it is dropped) or could not pickle ``fn`` or its work (the
        ``unpicklable`` degradation), and the caller recomputes
        in-process.  A pickling-type error is told from ``fn``'s own
        errors by pickling the work again, on that path only.  Any other
        error propagates.  Every task is cancelled or settled first: a
        task still being pickled at a ``cancel_futures`` shutdown would
        leave the pool waiting for it forever.
        """
        futures: list[Future] = []
        try:
            futures = [pool.submit(fn, item) for item in work]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard_pool()
            self._note_degradation(
                "broken_pool",
                "the worker pool broke; recomputing in-process (results are "
                "unaffected)",
            )
            return None
        except BaseException as error:
            for future in futures:
                future.cancel()
            wait(futures)
            if not isinstance(error, (pickle.PicklingError, TypeError, AttributeError)):
                raise
            if _picklable(fn, *work):
                raise  # fn's own error, or its result's
            self._note_degradation(
                unpicklable,
                f"{getattr(fn, '__name__', fn)!r} or its work cannot be pickled; "
                "running in-process instead of on the pool (results are unaffected)",
            )
            return None

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, created on first parallel need (or None)."""
        if self._workers <= 1:
            return None
        if self._pool_box[0] is None:
            with self._obs.span("runtime.pool_launch", workers=self._workers):
                self._pool_box[0] = ProcessPoolExecutor(max_workers=self._workers)
            self._pool_launches += 1
            self._obs.gauge("runtime.pool.workers", self._workers)
            self._obs.count("runtime.pool.launches")
        return self._pool_box[0]

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next parallel call starts fresh."""
        pool, self._pool_box[0] = self._pool_box[0], None
        if pool is not None:  # pragma: no cover - only after a broken pool
            pool.shutdown(wait=False, cancel_futures=True)

    def _workload_entry(self, workload: Workload) -> _CachedWorkload:
        """The cache entry for a workload, keyed by its content fingerprint."""
        digest = workload.fingerprint()
        entry = self._cache.get(digest)
        if entry is not None:
            self._hits += 1
            self._obs.count("runtime.workload_cache.hit")
            self._cache.move_to_end(digest)
            return entry
        self._misses += 1
        self._obs.count("runtime.workload_cache.miss")
        entry = _CachedWorkload(arrays=workload.to_arrays())
        self._cache[digest] = entry
        return entry

    def _columns(
        self,
        entry: _CachedWorkload,
        workload: Workload,
        classifier: CaseClassifier,
    ) -> _Columns:
        """Cached cancer positions/class codes for (workload, classifier).

        Keyed by classifier identity (classifiers are deterministic by
        protocol, but only *this object's* determinism is known — two
        distinct instances are never conflated).  The entry keeps a
        strong reference to the classifier so the id cannot be reused,
        and at most ``ENTRIES_PER_KIND`` of them, as :meth:`compare`
        brings a fresh one per call when given none.
        """
        cached = entry.columns.get(id(classifier))
        if cached is not None and cached[0] is classifier:
            self._obs.count("runtime.label_cache.hit")
            return cached[1]
        self._obs.count("runtime.label_cache.miss")
        positions = entry.arrays.cancer_index
        codes = cancer_class_codes(
            workload, classifier, entry.arrays, positions,
            on_scalar_fallback=lambda: self._note_degradation(
                "scalar_classify",
                f"classifier {type(classifier).__name__} has no usable "
                "classify_batch; cancer labels come from the per-case loop "
                "(labels are identical, classification is slower)",
            ),
        )
        columns = _Columns(entry.arrays, positions, codes, tuple(classifier.classes))
        entry.columns[id(classifier)] = (classifier, columns)
        if len(entry.columns) > ENTRIES_PER_KIND:
            del entry.columns[next(iter(entry.columns))]
        return columns

    def _publish(self, entry: _CachedWorkload) -> _SegmentSpec | None:
        """Publish an entry's arrays to shared memory (once; may fall back)."""
        if not self._use_shm:
            return None
        if entry.spec is None:
            try:
                entry.segment, entry.spec = _publish_arrays(entry.arrays)
            except OSError:  # pragma: no cover - e.g. /dev/shm filled up
                self._use_shm = False
                self._note_degradation(
                    "no_shm",
                    "publishing a workload to shared memory failed; falling "
                    "back to pickling arrays into tasks",
                )
                return None
            self._obs.count("runtime.shm.bytes_published", entry.segment.size)
            self._obs.gauge("runtime.shm.segments", len(self.active_segments))
        return entry.spec

    def _trim(self) -> None:
        """Evict least-recently-used workloads past ``max_cached_workloads``,
        then unlink least-recently-used segments until live shm bytes fit
        the budget.

        Runs once a call is done with its workloads, so every plane its
        tasks read stays published until they finish, and the most
        recently used workload always keeps its segment.  Under the
        budget only the shared plane is dropped — the entry's arrays and
        class-code caches stay, so an evicted workload re-publishes
        cheaply on its next parallel use.  Workers still holding an
        attached view keep the memory alive until their own LRU cache
        closes it (POSIX unlink semantics).
        """
        while len(self._cache) > self._max_cached:
            _, evicted = self._cache.popitem(last=False)
            _release_segment(evicted)
        if self._shm_byte_budget is None or self.shm_bytes_live <= self._shm_byte_budget:
            return
        *older, _ = self._cache.values()
        for entry in older:  # OrderedDict: LRU first
            if entry.segment is None:
                continue
            _release_segment(entry)
            self._obs.count("runtime.shm.evicted")
            if self.shm_bytes_live <= self._shm_byte_budget:
                break
        self._obs.gauge("runtime.shm.segments", len(self.active_segments))
