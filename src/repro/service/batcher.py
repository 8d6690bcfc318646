"""The micro-batcher: where concurrent requests become one dispatch.

Requests sharing a *batch key* (workload fingerprint + chunk size) are
collected into a group, and groups fire by a work-conserving rule:

* when no dispatch is in flight, every group formed during an
  event-loop tick fires at the end of that tick, so a burst submitted
  together fuses and a lone request never waits;
* while a dispatch is in flight, submissions coalesce per key, and every
  waiting group fires as soon as any in-flight dispatch completes;
* a group that reaches ``max_batch`` items fires at once.

Nothing waits on a timer: a batch only ever waits for the engine, which
is busy with the dispatches ahead of it.

Coalescing is invisible in the results by construction: the dispatch
callback receives the items exactly as submitted (each carrying its own
seed), runs them through :func:`repro.engine.fused.run_fused_batch` —
whose per-item chunk generators depend only on ``(seed, chunk_size)`` —
and each submitter's future resolves with its own result plus the batch
size it rode in (the ``service.batch_size`` observable).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable, Sequence

from ..exceptions import SimulationError

__all__ = ["MicroBatcher"]

#: A dispatch callback: ``(key, items) -> results`` with ``results[i]``
#: belonging to ``items[i]``.
DispatchFn = Callable[[Hashable, Sequence[Any]], Awaitable[Sequence[Any]]]


class _Group:
    """One batch key's pending items and their waiting futures."""

    __slots__ = ("items", "futures")

    def __init__(self) -> None:
        self.items: list[Any] = []
        self.futures: list[asyncio.Future] = []


class MicroBatcher:
    """Coalesce submissions per key into work-conserving batches.

    Single-event-loop only (the service's); submissions from the loop
    thread need no locks.
    """

    def __init__(self, dispatch: DispatchFn, *, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise SimulationError(f"max_batch must be >= 1, got {max_batch!r}")
        self._dispatch = dispatch
        self._max_batch = max_batch
        self._groups: dict[Hashable, _Group] = {}
        self._inflight: set[asyncio.Task] = set()
        self._tick_end: asyncio.Handle | None = None

    @property
    def queued(self) -> int:
        """Items waiting to be dispatched."""
        return sum(len(group.items) for group in self._groups.values())

    @property
    def inflight(self) -> int:
        """Dispatches currently executing."""
        return len(self._inflight)

    def submit(self, key: Hashable, item: Any) -> "asyncio.Future[tuple[Any, int]]":
        """Enqueue ``item`` under ``key``; resolves to ``(result, batch_size)``.

        The future completes once the item's batch has dispatched; a
        dispatch failure fails every future in the batch with the same
        exception.
        """
        loop = asyncio.get_running_loop()
        group = self._groups.setdefault(key, _Group())
        future: asyncio.Future = loop.create_future()
        group.items.append(item)
        group.futures.append(future)
        if len(group.items) >= self._max_batch:
            self._fire(key)
        elif not self._inflight and self._tick_end is None:
            # The engine is idle: fire at the end of this tick, so a
            # burst submitted in one tick still fuses.
            self._tick_end = loop.call_soon(self._fire_waiting)
        return future

    def _fire_waiting(self) -> None:
        """Fire every waiting group, one dispatch per key."""
        if self._tick_end is not None:
            self._tick_end.cancel()
            self._tick_end = None
        for key in list(self._groups):
            self._fire(key)

    def _fire(self, key: Hashable) -> None:
        group = self._groups.pop(key)
        task = asyncio.ensure_future(self._run(key, group))
        self._inflight.add(task)
        task.add_done_callback(self._finished)

    def _finished(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        # On every completion: a key that keeps filling full batches keeps
        # a dispatch in flight, and would starve other keys' partial groups.
        self._fire_waiting()

    async def _run(self, key: Hashable, group: _Group) -> None:
        try:
            results = await self._dispatch(key, group.items)
            if len(results) != len(group.items):
                raise SimulationError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(group.items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - fail the whole batch
            for future in group.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        batch_size = len(group.items)
        for future, result in zip(group.futures, results):
            if not future.done():
                future.set_result((result, batch_size))

    async def flush(self) -> None:
        """Fire every waiting group and wait for all dispatches."""
        while self._groups or self._inflight:
            self._fire_waiting()
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
