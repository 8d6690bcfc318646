"""The service's multi-tenant workload cache.

Requests name workloads declaratively (a
:class:`~repro.sweep.grid.WorkloadSpec`), and two tenants asking for the
same spec mean the same case sequence — ``WorkloadSpec.key()`` is a
content fingerprint, so one cache serves every tenant without
cross-tenant leakage (a key fully determines its workload).

The cache holds what is expensive to rebuild and stable per workload:
the generated :class:`~repro.screening.workload.Workload` (whose
read-only columns the engine reads), the cancer positions, and the
per-class codes the fused tally needs.  Publication into the engine's
shared-memory plane is deliberately *not* cached here — the dispatch
path re-calls :meth:`EngineRuntime.publish_workload` each batch (a
fingerprint-keyed cache hit when resident), so the runtime's
``shm_byte_budget`` LRU can evict segments freely without the service
holding stale specs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..exceptions import SimulationError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..sweep.grid import WorkloadSpec
from ..engine.fused import cancer_class_codes

__all__ = ["CachedWorkload", "WorkloadCache"]


@dataclass(frozen=True)
class CachedWorkload:
    """One workload's dispatch-ready state, keyed by its spec fingerprint."""

    key: str
    workload: Workload
    positions: np.ndarray
    codes: np.ndarray
    class_names: tuple[str, ...]


class WorkloadCache:
    """LRU cache of built workloads, keyed by ``WorkloadSpec.key()``.

    Not thread-safe: the service serializes every access on its single
    engine-dispatch thread, which is also what keeps build work from
    being duplicated by concurrent misses on the same key.
    """

    def __init__(
        self,
        capacity: int = 8,
        classifier: CaseClassifier | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"cache capacity must be >= 1, got {capacity!r}")
        self._capacity = capacity
        self._classifier = classifier if classifier is not None else SingleClassClassifier()
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._entries: OrderedDict[str, CachedWorkload] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def classifier(self) -> CaseClassifier:
        """The classifier whose classes every cached entry is coded against."""
        return self._classifier

    def get(self, spec: WorkloadSpec) -> CachedWorkload:
        """The dispatch-ready state for ``spec`` (built on miss)."""
        key = spec.key()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._obs.count("service.workload_cache.hit")
            return entry
        self._obs.count("service.workload_cache.miss")
        with self._obs.span("service.workload_build", key=key):
            workload = spec.build()
            arrays = workload.to_arrays()
            positions = arrays.cancer_index
            codes = cancer_class_codes(workload, self._classifier, arrays, positions)
            entry = CachedWorkload(
                key=key,
                workload=workload,
                positions=positions,
                codes=codes,
                class_names=tuple(
                    case_class.name for case_class in self._classifier.classes
                ),
            )
        self._entries[key] = entry
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._obs.count("service.workload_cache.evicted")
        return entry
