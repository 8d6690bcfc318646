"""Persistent engine runtime: pooled workers over a shared-memory workload plane.

:class:`EngineRuntime` places every engine evaluation: it runs the
systems of an ``evaluate``/``compare`` call, a service dispatch or a
sweep shard as fused batches through the engine's one kernel,
:func:`~repro.engine.fused.run_fused_batch`, in-process or on its pool.
It keeps two things across calls, both for programs that evaluate
repeatedly (comparisons, extrapolation grids, setting sweeps):

* **Persistent pool.**  One :class:`~concurrent.futures.ProcessPoolExecutor`
  is created lazily, by the first call that needs it, and reused across
  every ``evaluate``/``compare``/``run_fused``/``map`` call until
  :meth:`EngineRuntime.close` (or the context manager exit).
* **Zero-copy workload plane.**  On the pool path, each workload's
  :class:`~repro.engine.arrays.CaseArrays` is published *once* into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, kept
  until ``max_cached_workloads`` or ``shm_byte_budget`` trims it; tasks
  carry only a :class:`~repro.engine.fused._SegmentSpec` (segment name +
  column offsets), a chunk range and the items, and workers attach and
  slice views — no array travels through a pickle after publication.

Everything else a call needs is derived from the workload: a
classifier's cancer-class codes are a bounded memo on the workload's
arrays (:meth:`~repro.engine.arrays.CaseArrays.bounded`), shared by
every runtime that reads them.

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
from itertools import groupby
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .._numeric import read_only as _read_only
from ..core.case_class import CaseClass
from ..exceptions import RuntimeDegradationWarning, SimulationError
from ..obs import Instrumentation, SpanPayload, get_instrumentation
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier
from ..screening.workload import Workload
from ..system.simulate import FailureTally, SystemEvaluation, evaluate_system
from ..system.single import ScreeningSystem
from .arrays import ARRAY_FIELDS, CaseArrays
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

__all__ = ["EngineRuntime", "shared_memory_available"]

_T = TypeVar("_T")
_R = TypeVar("_R")


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


class _Plane(NamedTuple):
    """One published workload plane: the arrays it was copied from,
    pinned so that their identity (its key) is not reused while it
    lives, its segment and the spec tasks attach with."""

    arrays: CaseArrays
    segment: shared_memory.SharedMemory
    spec: _SegmentSpec


class _Batch(NamedTuple):
    """One batch of a :meth:`EngineRuntime.run_fused` call, ready to place."""

    arrays: CaseArrays
    codes: np.ndarray
    items: tuple[FusedItem, ...]
    n_chunks: int


def _check_chunk_size(chunk_size: object) -> None:
    """Refuse a chunk size that is not an integer >= 1."""
    if (
        isinstance(chunk_size, bool)
        or not isinstance(chunk_size, (int, np.integer))
        or chunk_size < 1
    ):
        raise SimulationError(f"chunk_size must be an integer >= 1, got {chunk_size!r}")


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a published segment."""
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _release_runtime(
    pool_box: list[ProcessPoolExecutor | None],
    planes: OrderedDict[int, _Plane],
) -> None:
    """Tear down a runtime's pool and segments (close() and GC finalizer)."""
    pool, pool_box[0] = pool_box[0], None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    for plane in planes.values():
        _release_segment(plane.segment)
    planes.clear()


class EngineRuntime:
    """A persistent execution context for the batch engine.

    Use as a context manager (or call :meth:`close` explicitly)::

        with EngineRuntime(workers=4) as runtime:
            for system in systems:
                evaluate_system_batch(system, workload, seed=7, runtime=runtime)

    What is expensive to set up is made once and reused: the process
    pool, and on the pool path the shared-memory publication of each
    workload.  A serial runtime holds nothing across calls.  Results do
    not depend on the runtime — same chunking, same chunk generators,
    the same kernel — so it is a pure performance substrate.

    Args:
        workers: Worker processes for seeded parallel execution.  ``1``
            keeps everything in-process (no pool, no shared memory).
            Shared memory is used where :func:`shared_memory_available`
            finds it; elsewhere, and after a segment cannot be created,
            arrays are pickled into tasks.
        max_cached_workloads: Workload planes kept published (LRU),
            each keyed by the identity of the arrays it pins.
        shm_byte_budget: Soft cap on the total bytes of live shared
            segments.  When a fresh publication pushes the total over
            the budget, least-recently-used segments are unlinked (a
            plane re-publishes on its workload's next parallel use).
            ``None`` (the default) keeps up to ``max_cached_workloads``
            segments alive; set it for many-workload sweeps so the
            runtime cannot exhaust ``/dev/shm``.  Evictions are counted
            under ``runtime.shm.evicted``.
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
        self._planes: OrderedDict[int, _Plane] = OrderedDict()
        self._closed = False
        # Belt-and-braces: segments must never outlive the runtime, even
        # if close() is skipped — unlink on garbage collection too.
        self._finalizer = weakref.finalize(
            self, _release_runtime, self._pool_box, self._planes
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
        return tuple(plane.segment.name for plane in self._planes.values())

    @property
    def shm_bytes_live(self) -> int:
        """Total bytes of currently published shared segments."""
        return sum(plane.segment.size for plane in self._planes.values())

    # -- workload plane --------------------------------------------------

    def publish_workload(
        self, workload: Workload
    ) -> tuple[CaseArrays, _SegmentSpec | None]:
        """Publish (if parallel) one workload's columns.

        Returns the workload's :class:`CaseArrays` plus, on a parallel
        shared-memory runtime, the :class:`_SegmentSpec` pooled tasks
        attach with (``None`` on serial/no-shm runtimes).  The plane is
        keyed by the arrays' identity, so repeated calls with one
        workload publish it once while it stays resident; pooled
        :meth:`run_fused` calls publish through the same map.
        """
        if self._closed:
            raise SimulationError("cannot publish on a closed EngineRuntime")
        arrays = workload.to_arrays()
        spec = self._publish(arrays) if self._workers > 1 else None
        self._trim()
        return arrays, spec

    # -- evaluation ----------------------------------------------------

    def evaluate(
        self,
        system: ScreeningSystem,
        workload: Workload,
        classifier: CaseClassifier | None = None,
        level: float = 0.95,
        *,
        seed: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> SystemEvaluation:
        """Evaluate one system; the runtime analogue of
        :func:`~repro.engine.executor.evaluate_system_batch`.

        Unseeded calls run serially in-process (bit-identical to the
        scalar loop); seeded calls fan out over the persistent pool when
        it helps.  ``chunk_size`` is an integer >= 1 (results depend
        only on ``(seed, chunk_size)``).

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
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> dict[str, SystemEvaluation]:
        """Evaluate several systems over one workload, sharing everything.

        The pool, the published workload and one classification are
        shared across all systems — this is the call
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
        _check_chunk_size(chunk_size)
        names = [system.name for system in systems]
        if len(set(names)) != len(names):
            raise SimulationError(f"system names must be unique, got {names!r}")
        classifier = (
            classifier if classifier is not None else DEFAULT_CLASSIFIER
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
        chunk_size: int,
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

        Raises:
            SimulationError: before any work, on a closed runtime or a
                ``chunk_size`` that is not an integer >= 1; before any
                decision, on an empty workload.

        Returns:
            One int64 count matrix per batch, in batch order, with one
            row per item in item order (columns:
            :data:`~repro.engine.fused.ROW_COLUMNS`, then the failures
            and trials of each of ``classifier.classes``).
        """
        if self._closed:
            raise SimulationError("cannot evaluate on a closed EngineRuntime")
        _check_chunk_size(chunk_size)
        work: list[_Batch] = []
        for workload, pairs in batches:
            if len(workload) == 0:
                raise SimulationError("cannot evaluate a system on an empty workload")
            items = tuple(
                build_fused_item(index, system, seed)
                for index, (system, seed) in enumerate(pairs)
            )
            arrays = workload.to_arrays()
            codes = self._class_codes(workload, arrays, classifier)
            n_chunks = len(plan_chunks(len(arrays), chunk_size))
            work.append(_Batch(arrays, codes, items, n_chunks))
        n_classes, traced = len(classifier.classes), self._obs.enabled
        with self._obs.span(
            "runtime.evaluate",
            batches=len(work),
            systems=sum(len(batch.items) for batch in work),
            cases=sum(len(batch.arrays) for batch in work),
            chunks=sum(batch.n_chunks for batch in work),
            chunk_size=chunk_size,
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
                    (planes[number], chunk_size, work[number].arrays.cancer_index,
                     work[number].codes, n_classes, items, chunk_range, traced)
                    for number, items, chunk_range in parts
                ]

            outputs: list[FusedOutput] | None = None
            if pool is not None:
                planes = [self._publish(batch.arrays) or batch.arrays for batch in work]
                outputs = self._on_pool(pool, run_fused_batch, tasks(planes), "unpicklable_system")
            pooled = outputs is not None
            if outputs is None:  # serial, or the pool could not run the parts
                outputs = [run_fused_batch(task) for task in tasks([b.arrays for b in work])]
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

    def _class_codes(
        self, workload: Workload, arrays: CaseArrays, classifier: CaseClassifier
    ) -> np.ndarray:
        """The class codes of ``workload``'s cancer cases under ``classifier``.

        A bounded memo on the workload's arrays, keyed by classifier
        identity (classifiers are deterministic by protocol, but only
        *this object's* determinism is known — two distinct instances
        are never conflated).  Each entry pins its classifier, so the
        id cannot be reused while the entry lives, and the memo keeps
        at most ``ENTRIES_PER_KIND`` of them.  Calls given no classifier
        share :data:`~repro.screening.classifier.DEFAULT_CLASSIFIER`, so
        they hold one entry.  Every runtime reading the same arrays
        shares the entries.
        """

        def classify() -> tuple[CaseClassifier, np.ndarray]:
            codes = cancer_class_codes(
                workload, classifier, arrays, arrays.cancer_index,
                on_scalar_fallback=lambda: self._note_degradation(
                    "scalar_classify",
                    f"classifier {type(classifier).__name__} has no usable "
                    "classify_batch; cancer labels come from the per-case loop "
                    "(labels are identical, classification is slower)",
                ),
            )
            return classifier, _read_only(codes)

        return arrays.bounded("class_codes", id(classifier), classify)[1]

    def _publish(self, arrays: CaseArrays) -> _SegmentSpec | None:
        """The spec of ``arrays``' shared plane, published on first use
        (``None`` without shared memory, or when publishing fails)."""
        if not self._use_shm:
            return None
        plane = self._planes.get(id(arrays))
        if plane is not None:
            self._planes.move_to_end(id(arrays))
            return plane.spec
        try:
            segment, spec = _publish_arrays(arrays)
        except OSError:  # pragma: no cover - e.g. /dev/shm filled up
            self._use_shm = False
            self._note_degradation(
                "no_shm",
                "publishing a workload to shared memory failed; falling "
                "back to pickling arrays into tasks",
            )
            return None
        self._planes[id(arrays)] = _Plane(arrays, segment, spec)
        self._obs.count("runtime.shm.bytes_published", segment.size)
        self._obs.gauge("runtime.shm.segments", len(self._planes))
        return spec

    def _trim(self) -> None:
        """Unlink least-recently-used planes past ``max_cached_workloads``,
        then until live shm bytes fit the budget.

        Runs once a call is done with its workloads, so every plane its
        tasks read stays published until they finish, and the most
        recently used plane always stays.  Workers still holding an
        attached view keep the memory alive until their own LRU cache
        closes it (POSIX unlink semantics).
        """
        published = len(self._planes)
        while len(self._planes) > self._max_cached:
            _release_segment(self._planes.popitem(last=False)[1].segment)
        budget = self._shm_byte_budget
        while budget is not None and len(self._planes) > 1 and self.shm_bytes_live > budget:
            _release_segment(self._planes.popitem(last=False)[1].segment)
            self._obs.count("runtime.shm.evicted")
        if len(self._planes) < published:
            self._obs.gauge("runtime.shm.segments", len(self._planes))
