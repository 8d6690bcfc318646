"""The engine's public entry points, and the pieces its kernel is built on.

:func:`evaluate_system_batch` and :func:`compare_systems_batch` are thin
shims over an :class:`~repro.engine.runtime.EngineRuntime` (the one
passed as ``runtime=``, or one of ``workers`` processes made for the
call), which runs the systems as one fused batch through the engine's
one kernel, :func:`~repro.engine.fused.run_fused_batch`.  Chunk
planning, per-chunk generators, execution modes and cancer-case
classification live here.  Three properties are load-bearing:

* **Scalar equivalence.**  Unseeded serial runs draw from the components'
  private generators in the scalar loop's exact layout, so a fresh system
  evaluated here produces *bit-identical* failure counts to the same
  fresh system driven through :func:`~repro.system.simulate.evaluate_system`.
  A seeded single-chunk run likewise reproduces the seeded scalar loop.
* **Determinism under parallelism.**  With a seed, chunk ``i`` gets the
  ``i``-th child of ``SeedSequence(seed)``, so results depend only on
  ``(seed, chunk_size)`` — never on worker count or scheduling.
* **Transparent fallback.**  Stateful-but-vectorizable systems (fatigued
  or adapting readers over a vectorizable base) advance in order through
  the stream-carry protocol, bit-identical to their scalar loops; the
  remaining order-dependent systems (drifting tools, custom readers) are
  routed to the scalar loop unchanged, so callers can use one entry
  point for every system.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..obs import get_instrumentation
from ..screening.classifier import CaseClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation
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


def _chunk_rngs(
    seed: int | None, n_chunks: int, first: int = 0, stop: int | None = None
) -> list[np.random.Generator | None]:
    """One generator per chunk of ``[first, stop)`` (default: every chunk).

    ``None`` entries mean "use the components' private generators" — the
    unseeded serial mode that replicates the scalar loop's stream.  A
    seeded single chunk reuses ``default_rng(seed)`` directly so it
    matches the seeded scalar loop bit for bit; multiple chunks get
    independent streams, chunk ``i`` the ``i``-th child of
    ``SeedSequence(seed)`` (what ``spawn`` would hand out), deterministic
    in ``(seed, n_chunks)`` and the same for a chunk whatever range it is
    derived in.
    """
    stop = n_chunks if stop is None else stop
    if seed is None:
        return [None] * (stop - first)
    if n_chunks == 1:
        return [np.random.default_rng(seed)]
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        for index in range(first, stop)
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
        SimulationError: if ``classify_batch`` returns the wrong shape or
            a cancer code that is not an integer in
            ``[0, len(classifier.classes))``, or ``classify`` returns a
            class the classifier does not declare.
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
            codes, n_classes = codes[positions], len(classifier.classes)
            if not np.issubdtype(codes.dtype, np.integer) or np.any((codes < 0) | (codes >= n_classes)):
                raise SimulationError(
                    f"classifier {type(classifier).__name__}'s classify_batch returned "
                    f"{codes.dtype} cancer codes that are not all integers in [0, {n_classes})"
                )
            return codes.astype(np.int64)
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
    positions = arrays.cancer_index
    codes = cancer_class_codes(
        workload, classifier, arrays, positions, on_scalar_fallback=on_scalar_fallback
    )
    classes = tuple(classifier.classes)
    return positions, [classes[code] for code in codes.tolist()]


def evaluate_system_batch(
    system: ScreeningSystem,
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> SystemEvaluation:
    """Vectorized counterpart of :func:`~repro.system.simulate.evaluate_system`.

    A one-item fused batch.  Stateless systems run through
    ``decide_batch`` chunk by chunk (seeded chunk ranges spread over the
    pool).  Stateful-but-vectorizable systems — temporal reader wrappers
    exposing the stream-carry protocol — advance chunk by chunk *in
    order*, handing their :class:`~repro.reader.state.ReaderStateVector`
    across chunk boundaries (a seeded pooled stream runs whole in one
    worker), and the final state is committed into the caller's system.
    Remaining stateful systems fall back to the scalar loop
    transparently, preserving their order-dependent semantics.

    Args:
        system: The system to drive.
        workload: The cases, in order.
        classifier: Criterion for the per-class breakdown; a single class
            when omitted.
        level: Confidence level for all intervals.
        seed: When given, chunk generators derive from this seed (see
            module docstring); when omitted, components draw from their
            private generators — serial only.
        workers: Processes of the runtime made for this call (1 =
            in-process).  Requires a seed: private component generators
            cannot be advanced coherently across processes.  Note that
            component state (e.g. a tool's processed-case counter) then
            advances in the worker copies, not the caller's objects.
        chunk_size: Cases per chunk, an integer >= 1.  Seeded results
            depend only on ``(seed, chunk_size)``; unseeded serial
            results are chunk-size-invariant.
        runtime: A :class:`~repro.engine.runtime.EngineRuntime` to
            execute on.  Supersedes ``workers`` (the runtime owns the
            pool) and keeps the pool and the shared-memory workload
            plane across calls.

    Raises:
        SimulationError: on an empty workload, a ``chunk_size`` that is
            not an integer >= 1, or ``workers > 1`` without a seed.
    """
    if runtime is not None:
        return runtime.evaluate(
            system, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    if workers > 1 and seed is None and (supports_batch(system) or supports_stream(system)):
        raise SimulationError(
            "parallel evaluation requires a seed: without one, components "
            "draw from private generators that cannot be shared coherently "
            "across processes"
        )
    from .runtime import EngineRuntime

    obs = get_instrumentation()
    with obs.span("executor.evaluate", system=system.name, cases=len(workload)):
        with EngineRuntime(workers=workers) as call_runtime:
            return call_runtime.evaluate(
                system, workload, classifier, level, seed=seed, chunk_size=chunk_size
            )


def compare_systems_batch(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> dict[str, SystemEvaluation]:
    """Vectorized counterpart of :func:`~repro.system.simulate.compare_systems`.

    Every system sees the identical case sequence; with ``seed`` given,
    each system's chunk generators derive from the same seed, so shared
    components behave identically across systems (common random numbers).
    Consecutive vectorizable systems run as one fused batch; the others
    take the scalar fallback where they stand, so every system runs in
    the caller's order, as in the scalar loop.

    One process pool serves the whole comparison: with no ``runtime``,
    an ephemeral :class:`~repro.engine.runtime.EngineRuntime` of
    ``workers`` processes is created for the call.

    Raises:
        SimulationError: if two systems share a name.
    """
    if runtime is not None:
        return runtime.compare(
            systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    from .runtime import EngineRuntime

    obs = get_instrumentation()
    with obs.span("executor.compare", systems=len(systems), cases=len(workload)):
        with EngineRuntime(workers=workers) as call_runtime:
            return call_runtime.compare(
                systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
            )
