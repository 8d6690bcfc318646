"""Persistent engine runtime: pooled workers over a shared-memory workload plane.

:mod:`repro.engine.executor` is correct but *per-call*: every parallel
evaluation builds a process pool, pickles the chunk arrays into every
task, recolumnises the workload, and reclassifies its cancer cases.
For programs that evaluate repeatedly — multi-system comparisons,
extrapolation grids, setting sweeps — that overhead dwarfs the actual
decision kernels.  :class:`EngineRuntime` amortises all four costs:

* **Persistent pool.**  One :class:`~concurrent.futures.ProcessPoolExecutor`
  is created lazily and reused across every ``evaluate``/``compare``/``map``
  call until :meth:`EngineRuntime.close` (or the context manager exit).
* **Zero-copy workload plane.**  Each distinct workload's
  :class:`~repro.engine.arrays.CaseArrays` is published *once* into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment; tasks
  carry only a :class:`_SegmentSpec` (segment name + column offsets) and
  ``(start, stop, rng)`` jobs, and workers attach and slice views —
  no array ever travels through a pickle after publication.
* **Fingerprint-keyed caches.**  Columnised workloads are cached by a
  content digest (cross-instance: two equal workloads share one entry),
  and per-classifier cancer-class codes are cached alongside, so
  repeated evaluations skip columnisation and classification entirely.
* **Adaptive chunk planning.**  :func:`plan_chunk_size` sizes chunks
  from the case count, worker count, and a bytes-per-chunk budget
  instead of the fixed :data:`~repro.engine.executor.DEFAULT_CHUNK_SIZE`.

The determinism contract is unchanged: seeded results depend only on
``(seed, chunk_size)`` — never on worker count, pool reuse, shared
memory, or scheduling — because chunk generators are derived exactly as
the per-call executor derives them and job grouping only changes *where*
a chunk runs, not its generator.  Unseeded evaluations run serially
in-process and stay bit-identical to the scalar loop.

When shared memory is unavailable (e.g. a restricted ``/dev/shm``) the
runtime falls back transparently to pickling the arrays once per task
group; when the system or mapped function cannot be pickled at all, it
falls back to in-process execution.  Results are identical on every
path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..exceptions import RuntimeDegradationWarning, SimulationError
from ..obs import Instrumentation, SpanPayload, get_instrumentation
from ..reader.state import ReaderStateVector
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation, evaluate_system
from ..system.single import ScreeningSystem
from .arrays import ARRAY_FIELDS, CaseArrays
from .executor import (
    DEFAULT_CHUNK_SIZE,
    _chunk_rngs,
    _columnise,
    _Columns,
    _tally,
    plan_chunks,
    supports_batch,
    supports_stream,
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
#: task groups over one workload attach exactly once.
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


#: One unit of work: decide cases ``[start, stop)`` with this generator.
_Job = tuple[int, int, "np.random.Generator | None"]


def _decide_job(
    system: ScreeningSystem, arrays: CaseArrays, job: _Job
) -> np.ndarray:
    """Decide one chunk job.  The single decision kernel every execution
    path — serial, pooled, traced or not — runs, which is what makes the
    bit-identity guarantee structural rather than incidental."""
    start, stop, rng = job
    chunk = arrays.chunk(start, stop)
    decisions = system.decide_batch(chunk, rng=rng)
    return np.asarray(decisions.failures(chunk.has_cancer))


def _decide_jobs(
    system: ScreeningSystem, arrays: CaseArrays, jobs: Sequence[_Job]
) -> list[np.ndarray]:
    """Run a group of chunk jobs over in-memory arrays, in order."""
    return [_decide_job(system, arrays, job) for job in jobs]


def _decide_jobs_shared(
    system: ScreeningSystem, spec: _SegmentSpec, jobs: Sequence[_Job]
) -> list[np.ndarray]:
    """Worker entry point: attach the shared plane, then run the jobs."""
    return _decide_jobs(system, _attached_arrays(spec), jobs)


def _decide_jobs_traced(
    system: ScreeningSystem, arrays: CaseArrays, jobs: Sequence[_Job]
) -> tuple[list[np.ndarray], list[SpanPayload]]:
    """Traced twin of :func:`_decide_jobs`: same kernel, plus one
    ``runtime.chunk`` span payload per job for the parent to ingest.

    Timing wraps the kernel call — it never reaches inside it and never
    touches the job's generator, so results are those of
    :func:`_decide_jobs` by construction.
    """
    pid = os.getpid()
    results: list[np.ndarray] = []
    payload: list[SpanPayload] = []
    for job in jobs:
        began = time.perf_counter()
        results.append(_decide_job(system, arrays, job))
        payload.append(
            (
                "runtime.chunk",
                {"start": job[0], "stop": job[1]},
                time.perf_counter() - began,
                pid,
            )
        )
    return results, payload


def _decide_jobs_shared_traced(
    system: ScreeningSystem, spec: _SegmentSpec, jobs: Sequence[_Job]
) -> tuple[list[np.ndarray], list[SpanPayload]]:
    """Traced twin of :func:`_decide_jobs_shared`.

    Also reports a ``runtime.attach`` span (with the segment's byte
    size) the first time this worker process attaches the segment, so
    the parent can count shm bytes attached across the pool.
    """
    fresh = spec.name not in _WORKER_SEGMENTS
    began = time.perf_counter()
    arrays = _attached_arrays(spec)
    payload: list[SpanPayload] = []
    if fresh:
        segment_bytes = _WORKER_SEGMENTS[spec.name][0].size
        payload.append(
            (
                "runtime.attach",
                {"segment": spec.name, "bytes": segment_bytes},
                time.perf_counter() - began,
                os.getpid(),
            )
        )
    results, chunk_payload = _decide_jobs_traced(system, arrays, jobs)
    payload.extend(chunk_payload)
    return results, payload


def _advance_stream(
    system: ScreeningSystem,
    arrays: CaseArrays,
    jobs: Sequence[_Job],
    state: ReaderStateVector,
) -> tuple[list[np.ndarray], ReaderStateVector]:
    """Advance a reader stream over chunk jobs, in order.

    The stream analogue of :func:`_decide_jobs`: each chunk's carried
    state feeds the next, so the jobs of one stream can never be split
    across workers — a whole stream travels as a single task.  Returns
    the per-chunk failure flags and the final carried state.
    """
    failures: list[np.ndarray] = []
    for start, stop, rng in jobs:
        chunk = arrays.chunk(start, stop)
        decisions, state = system.advance_stream(chunk, state, rng=rng)
        failures.append(np.asarray(decisions.failures(chunk.has_cancer)))
    return failures, state


def _advance_stream_shared(
    system: ScreeningSystem, spec: _SegmentSpec, jobs: Sequence[_Job], state: ReaderStateVector
) -> tuple[list[np.ndarray], ReaderStateVector]:
    """Worker entry point: attach the shared plane, then advance the stream."""
    return _advance_stream(system, _attached_arrays(spec), jobs, state)


def _advance_stream_traced(
    system: ScreeningSystem,
    arrays: CaseArrays,
    jobs: Sequence[_Job],
    state: ReaderStateVector,
) -> tuple[list[np.ndarray], ReaderStateVector, list[SpanPayload]]:
    """Traced twin of :func:`_advance_stream`: same kernel, plus one
    ``runtime.chunk`` span payload per job.  Timing wraps the kernel and
    never touches the generators, so results match by construction."""
    pid = os.getpid()
    failures: list[np.ndarray] = []
    payload: list[SpanPayload] = []
    for start, stop, rng in jobs:
        began = time.perf_counter()
        chunk = arrays.chunk(start, stop)
        decisions, state = system.advance_stream(chunk, state, rng=rng)
        failures.append(np.asarray(decisions.failures(chunk.has_cancer)))
        payload.append(
            (
                "runtime.chunk",
                {"start": start, "stop": stop},
                time.perf_counter() - began,
                pid,
            )
        )
    return failures, state, payload


def _advance_stream_shared_traced(
    system: ScreeningSystem, spec: _SegmentSpec, jobs: Sequence[_Job], state: ReaderStateVector
) -> tuple[list[np.ndarray], ReaderStateVector, list[SpanPayload]]:
    """Traced twin of :func:`_advance_stream_shared` (see
    :func:`_decide_jobs_shared_traced` for the attach span)."""
    fresh = spec.name not in _WORKER_SEGMENTS
    began = time.perf_counter()
    arrays = _attached_arrays(spec)
    payload: list[SpanPayload] = []
    if fresh:
        segment_bytes = _WORKER_SEGMENTS[spec.name][0].size
        payload.append(
            (
                "runtime.attach",
                {"segment": spec.name, "bytes": segment_bytes},
                time.perf_counter() - began,
                os.getpid(),
            )
        )
    failures, state, chunk_payload = _advance_stream_traced(system, arrays, jobs, state)
    payload.extend(chunk_payload)
    return failures, state, payload


def _group_jobs(jobs: Sequence[_Job], n_groups: int) -> list[list[_Job]]:
    """Split jobs into at most ``n_groups`` contiguous, near-equal groups.

    Grouping is a scheduling decision only: every job keeps its own
    generator, so the per-chunk results are identical however the jobs
    are grouped.
    """
    n_groups = max(1, min(n_groups, len(jobs)))
    base, extra = divmod(len(jobs), n_groups)
    groups: list[list[_Job]] = []
    index = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(list(jobs[index : index + size]))
        index += size
    return groups


def _arrays_digest(arrays: CaseArrays) -> str:
    """Content digest of a batch (the runtime's cross-instance cache key)."""
    digest = hashlib.sha1()
    digest.update(str(len(arrays)).encode())
    for name in ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(arrays, name))
        digest.update(name.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


@dataclass
class _CachedWorkload:
    """One workload's runtime residency: arrays, segment, class-code caches."""

    arrays: CaseArrays
    segment: shared_memory.SharedMemory | None = None
    spec: _SegmentSpec | None = None
    #: Per-classifier cache: ``id(classifier)`` -> (classifier — a strong
    #: reference keeping the id stable — the workload's columns under it).
    columns: dict[int, tuple[CaseClassifier, _Columns]] = field(default_factory=dict)


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
    and the per-classifier cancer-class codes.  All results are
    identical to the per-call executor's — same chunking, same chunk
    generators, same tallies — so the runtime is a pure performance
    substrate.

    Args:
        workers: Worker processes for seeded parallel execution.  ``1``
            keeps everything in-process (no pool, no shared memory).
        use_shared_memory: ``None`` probes availability (the default);
            ``False`` always pickles arrays into tasks; ``True``
            requests shared memory but still falls back if a segment
            cannot be created.
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
        use_shared_memory: bool | None = None,
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
        if use_shared_memory is None or use_shared_memory:
            self._use_shm = shared_memory_available()
            if not self._use_shm and self._workers > 1:
                self._note_degradation(
                    "no_shm",
                    "shared memory is unavailable; workloads will be pickled "
                    "into every task group (results are unaffected)",
                )
        else:
            self._use_shm = False
        self._pool_box: list[ProcessPoolExecutor | None] = [None]
        self._pool_launches = 0
        self._cache: OrderedDict[str, _CachedWorkload] = OrderedDict()
        self._digest_memo: dict[int, tuple[CaseArrays, str]] = {}
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
        self._digest_memo.clear()
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
        """Columnise, cache, and (if parallel) publish one workload.

        The sweep runner's entry into the runtime's workload plane:
        returns the cached :class:`CaseArrays` plus, on a parallel
        shared-memory runtime, the :class:`_SegmentSpec` pooled tasks
        attach with (``None`` on serial/no-shm runtimes — callers then
        ship the arrays themselves).  Repeated calls for equal workloads
        hit the fingerprint-keyed cache, so each distinct workload pays
        columnisation and publication once per runtime, however many
        callers share it.
        """
        if self._closed:
            raise SimulationError("cannot publish on a closed EngineRuntime")
        entry = self._workload_entry(workload)
        spec = self._publish(entry) if self._workers > 1 else None
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
        seed).  Each system is then tallied once, over all its chunks.
        """
        if self._closed:
            raise SimulationError("cannot evaluate on a closed EngineRuntime")
        names = [system.name for system in systems]
        if len(set(names)) != len(names):
            raise SimulationError(f"system names must be unique, got {names!r}")
        classifier = (
            classifier if classifier is not None else SingleClassClassifier()
        )
        entry: _CachedWorkload | None = None
        columns: _Columns | None = None
        evaluations = {}
        for system in systems:
            stream = not supports_batch(system)
            if stream and not supports_stream(system):
                self._note_degradation(
                    "scalar_system",
                    f"system {system.name!r} supports neither batch nor stream "
                    "execution; evaluating through the per-case scalar loop",
                )
                evaluations[system.name] = evaluate_system(
                    system, workload, classifier, level, seed=seed
                )
                continue
            if entry is None or columns is None:
                if len(workload) == 0:
                    raise SimulationError("cannot evaluate a system on an empty workload")
                entry = self._workload_entry(workload)
                columns = self._columns(entry, workload, classifier)
            with self._obs.span(
                "runtime.evaluate", system=system.name, cases=len(workload)
            ) as span:
                arrays = columns.arrays
                if chunk_size is None:
                    chunk_size = plan_chunk_size(
                        len(arrays), self._workers, bytes_per_case=arrays.bytes_per_case
                    )
                chunks = plan_chunks(len(arrays), chunk_size)
                span.set(chunks=len(chunks), chunk_size=chunk_size)
                rngs = _chunk_rngs(seed, len(chunks))
                jobs: list[_Job] = [
                    (start, stop, rng) for (start, stop), rng in zip(chunks, rngs)
                ]
                if stream:
                    span.set(stream=True)
                    chunk_failures = self._run_stream_jobs(system, entry, jobs, seed)
                else:
                    chunk_failures = self._run_jobs(system, entry, jobs, seed)
                with self._obs.span("runtime.tally", chunks=len(chunks)):
                    evaluations[system.name] = _tally(chunk_failures, columns).to_evaluation(
                        system.name, workload.name, level
                    )
        return evaluations

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply a picklable function over items on the persistent pool.

        The generic escape hatch for grid work (extrapolation cells,
        sweep row blocks).  Order is preserved.  Falls back to an
        in-process loop when the runtime is serial or ``fn``/``items``
        cannot be pickled, and recomputes in-process if the pool breaks
        — the result is the same either way.
        """
        if self._closed:
            raise SimulationError("cannot map on a closed EngineRuntime")
        work = list(items)
        if not work:
            return []
        with self._obs.span("runtime.map", items=len(work)):
            pool = self._ensure_pool()
            if pool is not None:
                try:
                    pickle.dumps((fn, work[0]))
                except Exception:
                    pool = None
                    self._note_degradation(
                        "unpicklable_map",
                        f"{getattr(fn, '__name__', fn)!r} (or its items) cannot "
                        "be pickled; mapping in-process instead of on the pool",
                    )
            if pool is None:
                return [fn(item) for item in work]
            try:
                futures = [pool.submit(fn, item) for item in work]
                return [future.result() for future in futures]
            except BrokenProcessPool:  # pragma: no cover - defensive recovery
                self._discard_pool()
                self._note_degradation(
                    "broken_pool",
                    "the worker pool broke mid-map; recomputing in-process "
                    "(results are unaffected)",
                )
                return [fn(item) for item in work]

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
        """The cache entry for a workload, columnising/digesting at most once."""
        arrays = workload.to_arrays()
        memo = self._digest_memo.get(id(arrays))
        if memo is not None and memo[0] is arrays:
            digest = memo[1]
        else:
            digest = _arrays_digest(arrays)
            self._digest_memo[id(arrays)] = (arrays, digest)
        entry = self._cache.get(digest)
        if entry is not None:
            self._hits += 1
            self._obs.count("runtime.workload_cache.hit")
            self._cache.move_to_end(digest)
            return entry
        self._misses += 1
        self._obs.count("runtime.workload_cache.miss")
        entry = _CachedWorkload(arrays=arrays)
        self._cache[digest] = entry
        while len(self._cache) > self._max_cached:
            _, evicted = self._cache.popitem(last=False)
            _release_segment(evicted)
            self._digest_memo = {
                key: value
                for key, value in self._digest_memo.items()
                if value[0] is not evicted.arrays
            }
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
        strong reference to the classifier so the id cannot be reused.
        """
        cached = entry.columns.get(id(classifier))
        if cached is not None and cached[0] is classifier:
            self._obs.count("runtime.label_cache.hit")
            return cached[1]
        self._obs.count("runtime.label_cache.miss")
        columns = _columnise(
            workload,
            entry.arrays,
            classifier,
            on_scalar_fallback=lambda: self._note_degradation(
                "scalar_classify",
                f"classifier {type(classifier).__name__} has no usable "
                "classify_batch; cancer labels come from the per-case loop "
                "(labels are identical, classification is slower)",
            ),
        )
        entry.columns[id(classifier)] = (classifier, columns)
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
            self._enforce_shm_budget(entry)
            self._obs.gauge("runtime.shm.segments", len(self.active_segments))
        return entry.spec

    def _enforce_shm_budget(self, keep: _CachedWorkload) -> None:
        """Unlink LRU segments until live shm bytes fit the budget.

        The just-published entry is never evicted (it is about to be
        used); everything else unlinks oldest-first.  Only the shared
        plane is dropped — the entry's arrays and class-code caches stay, so
        an evicted workload re-publishes cheaply on its next parallel
        use.  Workers still holding an attached view keep the memory
        alive until their own LRU cache closes it (POSIX unlink
        semantics), so in-flight reads are unaffected.
        """
        if self._shm_byte_budget is None:
            return
        if self.shm_bytes_live <= self._shm_byte_budget:
            return
        for entry in list(self._cache.values()):  # OrderedDict: LRU first
            if entry is keep or entry.segment is None:
                continue
            _release_segment(entry)
            self._obs.count("runtime.shm.evicted")
            if self.shm_bytes_live <= self._shm_byte_budget:
                break

    def _run_jobs(
        self,
        system: ScreeningSystem,
        entry: _CachedWorkload,
        jobs: list[_Job],
        seed: int | None,
    ) -> list[np.ndarray]:
        """Run chunk jobs in order, parallel when it can help.

        Serial conditions: one worker, no seed (private component
        generators cannot cross processes — matches the executor's
        contract), a single job, or an unpicklable system.  The serial
        path is the same code the executor runs in-process, so results
        never depend on which path was taken.
        """
        parallel = self._workers > 1 and seed is not None and len(jobs) > 1
        if parallel:
            try:
                pickle.dumps(system)
            except Exception:
                parallel = False
                self._note_degradation(
                    "unpicklable_system",
                    f"system {system.name!r} cannot be pickled; evaluating "
                    "in-process instead of on the worker pool",
                )
        pool = self._ensure_pool() if parallel else None
        if pool is None:
            return self._run_jobs_serial(system, entry.arrays, jobs)
        groups = _group_jobs(jobs, self._workers)
        spec = self._publish(entry)
        traced = self._obs.enabled
        try:
            if spec is not None:
                shared_fn = (
                    _decide_jobs_shared_traced if traced else _decide_jobs_shared
                )
                futures = [
                    pool.submit(shared_fn, system, spec, group)
                    for group in groups
                ]
            else:
                plain_fn = _decide_jobs_traced if traced else _decide_jobs
                futures = [
                    pool.submit(plain_fn, system, entry.arrays, group)
                    for group in groups
                ]
            outputs = [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard_pool()
            self._note_degradation(
                "broken_pool",
                "the worker pool broke mid-evaluation; recomputing the "
                "chunks in-process (results are unaffected)",
            )
            return self._run_jobs_serial(system, entry.arrays, jobs)
        if traced:
            grouped = []
            for results, payload in outputs:
                self._ingest_worker_payload(payload)
                grouped.append(results)
        else:
            grouped = outputs
        return [failed for group in grouped for failed in group]

    def _run_jobs_serial(
        self,
        system: ScreeningSystem,
        arrays: CaseArrays,
        jobs: list[_Job],
    ) -> list[np.ndarray]:
        """The in-process job loop, traced only when somebody is watching."""
        if not self._obs.enabled:
            return _decide_jobs(system, arrays, jobs)
        results, payload = _decide_jobs_traced(system, arrays, jobs)
        self._ingest_worker_payload(payload)
        return results

    def _run_stream_jobs(
        self,
        system: ScreeningSystem,
        entry: _CachedWorkload,
        jobs: list[_Job],
        seed: int | None,
    ) -> list[np.ndarray]:
        """Run an ordered reader stream over chunk jobs.

        The stream is inherently sequential — every chunk's carried
        state feeds the next — so "parallel" here means moving the
        *whole* stream as one task to a pooled worker (which reads the
        chunks from the shared plane), keeping the parent process free.
        Serial conditions mirror :meth:`_run_jobs`; whichever path runs,
        the chunks advance from the same initial state in the same
        order, and the final carried state is committed back into the
        caller's system.  (Other worker-copy state — e.g. a tool's
        processed-case counters — stays in the worker, exactly as on
        the pooled batch path.)
        """
        initial = system.stream_state()
        parallel = self._workers > 1 and seed is not None and len(jobs) > 1
        if parallel:
            try:
                pickle.dumps((system, initial))
            except Exception:
                parallel = False
                self._note_degradation(
                    "unpicklable_system",
                    f"system {system.name!r} (or its stream state) cannot be "
                    "pickled; advancing the stream in-process instead of on "
                    "the worker pool",
                )
        pool = self._ensure_pool() if parallel else None
        if pool is None:
            return self._run_stream_serial(system, entry.arrays, jobs, initial)
        spec = self._publish(entry)
        traced = self._obs.enabled
        try:
            if spec is not None:
                shared_fn = (
                    _advance_stream_shared_traced if traced else _advance_stream_shared
                )
                future = pool.submit(shared_fn, system, spec, jobs, initial)
            else:
                plain_fn = _advance_stream_traced if traced else _advance_stream
                future = pool.submit(plain_fn, system, entry.arrays, jobs, initial)
            output = future.result()
        except BrokenProcessPool:
            self._discard_pool()
            self._note_degradation(
                "broken_pool",
                "the worker pool broke mid-stream; recomputing the chunks "
                "in-process from the same initial state (results are "
                "unaffected)",
            )
            return self._run_stream_serial(system, entry.arrays, jobs, initial)
        if traced:
            failures, final_state, payload = output
            self._ingest_worker_payload(payload)
        else:
            failures, final_state = output
        system.commit_stream(final_state)
        return failures

    def _run_stream_serial(
        self,
        system: ScreeningSystem,
        arrays: CaseArrays,
        jobs: list[_Job],
        state: ReaderStateVector,
    ) -> list[np.ndarray]:
        """The in-process stream loop; commits the final state back."""
        if not self._obs.enabled:
            failures, final_state = _advance_stream(system, arrays, jobs, state)
        else:
            failures, final_state, payload = _advance_stream_traced(
                system, arrays, jobs, state
            )
            self._ingest_worker_payload(payload)
        system.commit_stream(final_state)
        return failures


def _noop(value: _T) -> _T:  # pragma: no cover - trivial
    """Identity; handy for warming a runtime's pool in benchmarks."""
    return value


def warm(runtime: EngineRuntime) -> None:
    """Force pool creation now so first-call latency is off the clock."""
    runtime.map(_noop, [0])
