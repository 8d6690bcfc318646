"""The service's multi-tenant workload cache.

Requests name workloads declaratively (a
:class:`~repro.sweep.grid.WorkloadSpec`), and two tenants asking for the
same spec mean the same case sequence — ``WorkloadSpec.key()`` is a
content fingerprint, so one cache serves every tenant without
cross-tenant leakage (a key fully determines its workload).

The cache maps a spec to its generated
:class:`~repro.screening.workload.Workload`, the expensive part to
rebuild.  Everything derived from the workload — its cancer positions
and per-class codes — is memoised on the workload's own arrays, and the
engine runtime keeps the shared-memory publication, so the runtime's
``shm_byte_budget`` LRU can evict segments freely without the service
holding stale state.
"""

from __future__ import annotations

from collections import OrderedDict

from ..exceptions import SimulationError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..screening.workload import Workload
from ..sweep.grid import WorkloadSpec

__all__ = ["WorkloadCache"]


class WorkloadCache:
    """LRU cache of built workloads, keyed by ``WorkloadSpec.key()``.

    Not thread-safe: the service serializes every access on its single
    engine-dispatch thread, which is also what keeps build work from
    being duplicated by concurrent misses on the same key.
    """

    def __init__(
        self, capacity: int = 8, obs: Instrumentation | None = None
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"cache capacity must be >= 1, got {capacity!r}")
        self._capacity = capacity
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._entries: OrderedDict[str, Workload] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: WorkloadSpec) -> Workload:
        """The workload ``spec`` names (built on miss)."""
        key = spec.key()
        workload = self._entries.get(key)
        if workload is not None:
            self._entries.move_to_end(key)
            self._obs.count("service.workload_cache.hit")
            return workload
        self._obs.count("service.workload_cache.miss")
        with self._obs.span("service.workload_build", key=key):
            workload = spec.build()
        self._entries[key] = workload
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._obs.count("service.workload_cache.evicted")
        return workload
