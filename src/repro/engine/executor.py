"""Chunked execution of batch-capable systems over workloads.

The executor is the engine's outer loop: it columnises and classifies a
workload once per call, splits it into chunks, drives each chunk through
each system's ``decide_batch``, and tallies each system's failure flags
once (:func:`~repro.system.simulate.count_failures`) into the same
:class:`~repro.system.simulate.SystemEvaluation` the scalar loop
produces.  Three properties are load-bearing:

* **Scalar equivalence.**  Unseeded serial runs draw from the components'
  private generators in the scalar loop's exact layout, so a fresh system
  evaluated here produces *bit-identical* failure counts to the same
  fresh system driven through :func:`~repro.system.simulate.evaluate_system`.
  A seeded single-chunk run likewise reproduces the seeded scalar loop.
* **Determinism under parallelism.**  With a seed, each chunk gets its own
  generator from ``SeedSequence(seed).spawn``, so results depend only on
  ``(seed, chunk_size)`` — never on worker count or scheduling.
* **Transparent fallback.**  Stateful-but-vectorizable systems (fatigued
  or adapting readers over a vectorizable base) advance in order through
  the stream-carry protocol, bit-identical to their scalar loops; the
  remaining order-dependent systems (drifting tools, custom readers) are
  routed to the scalar loop unchanged, so callers can use one entry
  point for every system.

The module-level functions here are the *per-call* entry points: each
parallel call builds (and tears down) its own process pool.  Programs
that evaluate repeatedly — multi-system comparisons, extrapolation
sweeps — should hold a :class:`~repro.engine.runtime.EngineRuntime`
instead, which keeps the pool and the columnised workload plane alive
across calls; both entry points accept one via ``runtime=``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..obs import get_instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import (
    FailureTally,
    SystemEvaluation,
    count_failures,
    evaluate_system,
)
from ..system.single import ScreeningSystem
from .arrays import CaseArrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .runtime import EngineRuntime

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "plan_chunks",
    "supports_batch",
    "supports_stream",
    "cancer_class_codes",
    "cancer_class_labels",
    "evaluate_system_batch",
    "compare_systems_batch",
]

#: Default cases per chunk.  Large enough that per-chunk Python overhead
#: is negligible, small enough that chunk buffers stay cache-friendly.
#: Pass ``chunk_size=None`` for adaptive planning
#: (:func:`repro.engine.runtime.plan_chunk_size`).
DEFAULT_CHUNK_SIZE = 16384


def plan_chunks(num_cases: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``[0, num_cases)`` into consecutive ``[start, stop)`` chunks."""
    if chunk_size <= 0:
        raise SimulationError(f"chunk_size must be positive, got {chunk_size!r}")
    return [
        (start, min(start + chunk_size, num_cases))
        for start in range(0, num_cases, chunk_size)
    ]


def supports_batch(system: ScreeningSystem) -> bool:
    """Whether a system can run on the vectorized path.

    True when the system exposes ``decide_batch`` and declares itself
    stateless via its ``supports_batch`` property; everything else takes
    the scalar fallback.
    """
    return bool(getattr(system, "supports_batch", False)) and hasattr(
        system, "decide_batch"
    )


def supports_stream(system: ScreeningSystem) -> bool:
    """Whether a system can run on the stateful stream path.

    True when the system exposes the chunk-carry protocol
    (``stream_state`` / ``advance_stream`` / ``commit_stream``) and
    declares it usable via its ``supports_stream`` property — temporal
    reader wrappers (fatigue, trust adaptation) around vectorizable base
    readers.  Chunks then advance *in order*, each handing its
    :class:`~repro.reader.state.ReaderStateVector` to the next, instead
    of degrading to the scalar loop.
    """
    return bool(getattr(system, "supports_stream", False)) and hasattr(
        system, "advance_stream"
    )


def _decide_chunk(
    system: ScreeningSystem,
    chunk: CaseArrays,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Run one chunk; returns the per-case failure flags (bool[n]).

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; the system travels with the task.
    """
    decisions = system.decide_batch(chunk, rng=rng)
    return np.asarray(decisions.failures(chunk.has_cancer))


def _advance_stream_chunks(
    system: ScreeningSystem,
    arrays: CaseArrays,
    chunks: Sequence[tuple[int, int]],
    rngs: Sequence[np.random.Generator | None],
) -> list[np.ndarray]:
    """Advance a reader stream chunk by chunk, in order.

    The carried state threads from each chunk into the next and the
    final state is committed back into the system's wrapper objects, so
    the caller's reader ends the evaluation exactly where the scalar
    loop would leave it.
    """
    state = system.stream_state()
    chunk_failures = []
    for (start, stop), rng in zip(chunks, rngs):
        chunk = arrays.chunk(start, stop)
        decisions, state = system.advance_stream(chunk, state, rng=rng)
        chunk_failures.append(np.asarray(decisions.failures(chunk.has_cancer)))
    system.commit_stream(state)
    return chunk_failures


def _chunk_rngs(
    seed: int | None, n_chunks: int
) -> list[np.random.Generator | None]:
    """One generator per chunk.

    ``None`` entries mean "use the components' private generators" — the
    unseeded serial mode that replicates the scalar loop's stream.  A
    seeded single chunk reuses ``default_rng(seed)`` directly so it
    matches the seeded scalar loop bit for bit; multiple chunks get
    independent spawned streams, deterministic in ``(seed, n_chunks)``.
    """
    if seed is None:
        return [None] * n_chunks
    if n_chunks == 1:
        return [np.random.default_rng(seed)]
    return [
        np.random.default_rng(ss)
        for ss in np.random.SeedSequence(seed).spawn(n_chunks)
    ]


def cancer_class_codes(
    workload: Workload,
    classifier: CaseClassifier,
    arrays: CaseArrays,
    positions: np.ndarray,
    *,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> np.ndarray:
    """Class codes of the workload's cancer cases, in order.

    A code indexes ``classifier.classes``.  Uses the classifier's
    vectorized ``classify_batch`` when it offers one; classifiers that
    only implement the per-case ``classify`` — including third-party
    ones — fall back to the case loop and produce identical codes.
    ``on_scalar_fallback`` (if given) is invoked exactly when that loop
    is taken, so callers like the runtime can surface the degradation.

    Args:
        workload: The cases, in order.
        classifier: The classification criterion.
        arrays: ``workload`` columnised.
        positions: The sorted indices of the cancer cases.

    Raises:
        SimulationError: if ``classify_batch`` returns the wrong shape, or
            ``classify`` returns a class the classifier does not declare.
    """
    batch = getattr(classifier, "classify_batch", None)
    if batch is not None:
        try:
            codes = np.asarray(batch(arrays))
        except NotImplementedError:
            codes = None
        if codes is not None:
            if codes.shape != (len(arrays),):
                raise SimulationError(
                    f"classify_batch returned shape {codes.shape}, expected "
                    f"({len(arrays)},)"
                )
            return codes[positions].astype(np.int64)
    if on_scalar_fallback is not None:
        on_scalar_fallback()
    index = {case_class: code for code, case_class in enumerate(classifier.classes)}
    labels = [classifier.classify(case) for case in workload.cases if case.has_cancer]
    undeclared = set(labels) - set(index)
    if undeclared:
        raise SimulationError(
            f"classifier {type(classifier).__name__} returned undeclared "
            f"classes {sorted(c.name for c in undeclared)!r}"
        )
    return np.array([index[label] for label in labels], dtype=np.int64)


class _Columns(NamedTuple):
    """A columnised workload and its cancer cases' classes under one
    classifier: made once per call, shared by every system it runs."""

    arrays: CaseArrays
    positions: np.ndarray
    codes: np.ndarray
    classes: tuple[CaseClass, ...]


def _columnise(
    workload: Workload,
    arrays: CaseArrays,
    classifier: CaseClassifier,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> _Columns:
    """Classify a columnised workload's cancer cases (see :class:`_Columns`)."""
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(
        workload, classifier, arrays, positions, on_scalar_fallback=on_scalar_fallback
    )
    return _Columns(arrays, positions, codes, tuple(classifier.classes))


def cancer_class_labels(
    workload: Workload,
    classifier: CaseClassifier,
    arrays: CaseArrays | None = None,
    *,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> tuple[np.ndarray, list[CaseClass]]:
    """Positions and classes of the workload's cancer cases, in order.

    :func:`cancer_class_codes` mapped onto the classifier's own
    :class:`CaseClass` objects; ``on_scalar_fallback`` is passed through.

    Returns:
        ``(positions, labels)`` where ``positions`` is the sorted
        ``int64`` array of cancer-case indices into the workload and
        ``labels[i]`` is the class of the cancer case at
        ``positions[i]``.
    """
    if arrays is None:
        arrays = workload.to_arrays()
    columns = _columnise(workload, arrays, classifier, on_scalar_fallback)
    return columns.positions, [columns.classes[code] for code in columns.codes.tolist()]


def _tally(chunk_failures: Sequence[np.ndarray], columns: _Columns) -> FailureTally:
    """One system's counts: a single :func:`count_failures` over all chunks."""
    failed = np.concatenate(chunk_failures)
    counts = count_failures(failed, columns.positions, columns.codes, len(columns.classes))
    return FailureTally.from_counts(counts, columns.classes)


def evaluate_system_batch(
    system: ScreeningSystem,
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> SystemEvaluation:
    """Vectorized counterpart of :func:`~repro.system.simulate.evaluate_system`.

    Stateless systems run through ``decide_batch`` chunk by chunk
    (optionally fanned out over processes).  Stateful-but-vectorizable
    systems — temporal reader wrappers exposing the stream-carry
    protocol — advance chunk by chunk *in order*, handing their
    :class:`~repro.reader.state.ReaderStateVector` across chunk
    boundaries (on this per-call path the ordered stream always runs
    in-process; ``workers`` only fans out stateless chunks).  Remaining
    stateful systems fall back to the scalar loop transparently,
    preserving their order-dependent semantics.

    Args:
        system: The system to drive.
        workload: The cases, in order.
        classifier: Criterion for the per-class breakdown; a single class
            when omitted.
        level: Confidence level for all intervals.
        seed: When given, chunk generators derive from this seed (see
            module docstring); when omitted, components draw from their
            private generators — serial only.
        workers: Processes to fan chunks out over (1 = in-process).
            Requires a seed: private component generators cannot be
            advanced coherently across processes.  Note that component
            state (e.g. a tool's processed-case counter) then advances in
            the worker copies, not the caller's objects.
        chunk_size: Cases per chunk.  Seeded results depend only on
            ``(seed, chunk_size)``; unseeded serial results are
            chunk-size-invariant.  ``None`` plans the size adaptively
            from the workload, worker count, and a bytes-per-chunk
            budget (:func:`repro.engine.runtime.plan_chunk_size`) — note
            the planned size, and therefore seeded multi-chunk results,
            then varies with ``workers``.
        runtime: A :class:`~repro.engine.runtime.EngineRuntime` to
            execute on.  Supersedes ``workers`` (the runtime owns the
            pool) and adds pooled-process reuse, a shared-memory
            workload plane, and cached columnisation/classification.

    Raises:
        SimulationError: on an empty workload, or ``workers > 1`` without
            a seed.
    """
    if runtime is not None:
        return runtime.evaluate(
            system, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    evaluations = _evaluate_systems(
        [system], workload, classifier, level, seed, workers, chunk_size
    )
    return evaluations[system.name]


def _evaluate_systems(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None,
    level: float,
    seed: int | None,
    workers: int,
    chunk_size: int | None,
) -> dict[str, SystemEvaluation]:
    """The per-call engine loop behind both public entry points.

    Systems supporting neither batch nor stream execution take the
    scalar loop.  The rest share one columnisation and classification of
    the workload, made when the first of them needs it.
    """
    classifier = classifier if classifier is not None else SingleClassClassifier()
    obs = get_instrumentation()
    columns: _Columns | None = None
    evaluations = {}
    for system in systems:
        if not supports_batch(system) and not supports_stream(system):
            evaluations[system.name] = evaluate_system(
                system, workload, classifier, level, seed=seed
            )
            continue
        if columns is None:
            if len(workload) == 0:
                raise SimulationError("cannot evaluate a system on an empty workload")
            if workers < 1:
                raise SimulationError(f"workers must be >= 1, got {workers!r}")
            if workers > 1 and seed is None:
                raise SimulationError(
                    "parallel evaluation requires a seed: without one, components "
                    "draw from private generators that cannot be shared coherently "
                    "across processes"
                )
            columns = _columnise(
                workload,
                workload.to_arrays(),
                classifier,
                on_scalar_fallback=lambda: obs.count("executor.scalar_classify"),
            )
        with obs.span(
            "executor.evaluate", system=system.name, cases=len(workload)
        ) as span:
            arrays = columns.arrays
            if chunk_size is None:
                from .runtime import plan_chunk_size

                chunk_size = plan_chunk_size(
                    len(arrays), workers, bytes_per_case=arrays.bytes_per_case
                )
            chunks = plan_chunks(len(arrays), chunk_size)
            span.set(chunks=len(chunks), workers=workers)
            rngs = _chunk_rngs(seed, len(chunks))

            if not supports_batch(system):
                # Ordered reader stream: chunks carry state sequentially,
                # so the per-call path runs them in-process whatever
                # `workers`.
                span.set(stream=True)
                chunk_failures = _advance_stream_chunks(system, arrays, chunks, rngs)
            elif workers == 1:
                chunk_failures = [
                    _decide_chunk(system, arrays.chunk(start, stop), rng)
                    for (start, stop), rng in zip(chunks, rngs)
                ]
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _decide_chunk, system, arrays.chunk(start, stop), rng
                        )
                        for (start, stop), rng in zip(chunks, rngs)
                    ]
                    chunk_failures = [future.result() for future in futures]
            evaluations[system.name] = _tally(chunk_failures, columns).to_evaluation(
                system.name, workload.name, level
            )
    return evaluations


def compare_systems_batch(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> dict[str, SystemEvaluation]:
    """Vectorized counterpart of :func:`~repro.system.simulate.compare_systems`.

    Every system sees the identical case sequence; with ``seed`` given,
    each system's chunk generators derive from the same seed, so shared
    components behave identically across systems (common random numbers).
    Batch-incapable systems take the scalar fallback within the same
    comparison.

    One process pool serves the whole comparison: with ``workers > 1``
    and no ``runtime``, an ephemeral
    :class:`~repro.engine.runtime.EngineRuntime` is created for the
    call, so every system reuses the same workers and the same published
    workload instead of paying pool startup per system.

    Raises:
        SimulationError: if two systems share a name.
    """
    names = [s.name for s in systems]
    if len(set(names)) != len(names):
        raise SimulationError(f"system names must be unique, got {names!r}")
    if runtime is not None:
        return runtime.compare(
            systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    if workers > 1:
        from .runtime import EngineRuntime

        with EngineRuntime(workers=workers) as shared:
            return shared.compare(
                systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
            )
    with get_instrumentation().span(
        "executor.compare", systems=len(systems), cases=len(workload)
    ):
        return _evaluate_systems(
            systems, workload, classifier, level, seed, workers, chunk_size
        )
