"""Micro-batcher semantics: grouping, work-conserving firing, max-batch,
failure, flush."""

import asyncio

import pytest

from repro.exceptions import SimulationError
from repro.service import MicroBatcher


class Recorder:
    """A dispatch double recording every batch it receives."""

    def __init__(self, fail_on=None, delay_s=0.0):
        self.batches = []
        self.fail_on = fail_on
        self.delay_s = delay_s

    async def __call__(self, key, items):
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        self.batches.append((key, list(items)))
        if self.fail_on is not None and key == self.fail_on:
            raise SimulationError(f"dispatch for {key!r} failed")
        return [item * 10 for item in items]


class Gated(Recorder):
    """A dispatch double that holds every batch until ``gate`` opens."""

    def __init__(self):
        super().__init__()
        self.gate = asyncio.Event()

    async def __call__(self, key, items):
        self.batches.append((key, list(items)))
        await self.gate.wait()
        return [item * 10 for item in items]


class KeyGated(Recorder):
    """A dispatch double that holds each key's batches until its gate opens."""

    def __init__(self):
        super().__init__()
        self.gates = {}

    def gate(self, key):
        return self.gates.setdefault(key, asyncio.Event())

    async def __call__(self, key, items):
        self.batches.append((key, list(items)))
        await self.gate(key).wait()
        return [item * 10 for item in items]


async def spin(ticks=3):
    """Let the event loop run a few iterations; no timer can expire."""
    for _ in range(ticks):
        await asyncio.sleep(0)


def test_same_key_coalesces_into_one_dispatch():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=8)
        results = await asyncio.gather(
            batcher.submit("w", 1), batcher.submit("w", 2), batcher.submit("w", 3)
        )
        return recorder.batches, results

    batches, results = asyncio.run(main())
    assert batches == [("w", [1, 2, 3])]
    assert results == [(10, 3), (20, 3), (30, 3)]


def test_distinct_keys_dispatch_separately():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=8)
        await asyncio.gather(batcher.submit("a", 1), batcher.submit("b", 2))
        return recorder.batches

    batches = asyncio.run(main())
    assert sorted(batches) == [("a", [1]), ("b", [2])]


def test_full_batch_fires_before_linger_expires():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=2)
        results = await asyncio.wait_for(
            asyncio.gather(batcher.submit("w", 1), batcher.submit("w", 2)),
            timeout=5.0,
        )
        return recorder.batches, results

    batches, results = asyncio.run(main())
    assert batches == [("w", [1, 2])]
    assert results == [(10, 2), (20, 2)]


def test_max_batch_splits_oversized_bursts():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=2)
        results = await asyncio.gather(*(batcher.submit("w", n) for n in range(5)))
        return recorder.batches, results

    batches, results = asyncio.run(main())
    assert [len(items) for _, items in batches] == [2, 2, 1]
    assert [size for _, size in results] == [2, 2, 2, 2, 1]


def test_dispatch_failure_fails_every_future_in_the_batch():
    async def main():
        recorder = Recorder(fail_on="w")
        batcher = MicroBatcher(recorder, max_batch=8)
        futures = [batcher.submit("w", n) for n in (1, 2)]
        return await asyncio.gather(*futures, return_exceptions=True)

    outcomes = asyncio.run(main())
    assert all(isinstance(outcome, SimulationError) for outcome in outcomes)


def test_result_count_mismatch_is_an_error():
    async def main():
        async def bad_dispatch(key, items):
            return [1]  # one result for two items

        batcher = MicroBatcher(bad_dispatch, max_batch=8)
        futures = [batcher.submit("w", n) for n in (1, 2)]
        return await asyncio.gather(*futures, return_exceptions=True)

    outcomes = asyncio.run(main())
    assert all(isinstance(outcome, SimulationError) for outcome in outcomes)


def test_flush_fires_lingering_groups_immediately():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=8)
        future = batcher.submit("w", 1)
        assert batcher.queued == 1
        await batcher.flush()
        assert batcher.queued == 0
        assert batcher.inflight == 0
        return await future

    assert asyncio.run(main()) == (10, 1)


def test_zero_linger_still_coalesces_one_tick():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=8)
        results = await asyncio.gather(
            batcher.submit("w", 1), batcher.submit("w", 2)
        )
        return recorder.batches, results

    batches, results = asyncio.run(main())
    assert batches == [("w", [1, 2])]
    assert [size for _, size in results] == [2, 2]


def test_rejects_invalid_configuration():
    async def dispatch(key, items):
        return list(items)

    with pytest.raises(SimulationError, match="max_batch"):
        MicroBatcher(dispatch, max_batch=0)


def test_idle_batcher_dispatches_without_waiting():
    async def main():
        recorder = Recorder()
        batcher = MicroBatcher(recorder, max_batch=8)
        future = batcher.submit("w", 1)
        await spin()
        assert recorder.batches == [("w", [1])]
        return await future

    assert asyncio.run(main()) == (10, 1)


def test_submissions_during_a_dispatch_ride_the_next_one_together():
    async def main():
        dispatch = Gated()
        batcher = MicroBatcher(dispatch, max_batch=8)
        first = batcher.submit("w", 1)
        await spin()
        later = [batcher.submit("w", 2)]
        await spin()
        later += [batcher.submit("w", 3), batcher.submit("v", 4)]
        await spin()
        # Nothing fires while the engine is busy with the first batch.
        assert dispatch.batches == [("w", [1])]
        assert (batcher.inflight, batcher.queued) == (1, 3)
        dispatch.gate.set()
        results = await asyncio.gather(first, *later)
        return dispatch.batches, results

    batches, results = asyncio.run(main())
    assert batches == [("w", [1]), ("w", [2, 3]), ("v", [4])]
    assert results == [(10, 1), (20, 2), (30, 2), (40, 1)]


def test_full_batch_fires_while_a_dispatch_is_in_flight():
    async def main():
        dispatch = Gated()
        batcher = MicroBatcher(dispatch, max_batch=2)
        first = batcher.submit("w", 1)
        await spin()
        pair = [batcher.submit("v", 2), batcher.submit("v", 3)]
        await spin()
        assert dispatch.batches == [("w", [1]), ("v", [2, 3])]
        assert batcher.inflight == 2
        dispatch.gate.set()
        return await asyncio.gather(first, *pair)

    assert asyncio.run(main()) == [(10, 1), (20, 2), (30, 2)]


def test_a_busy_key_cannot_starve_a_waiting_group():
    async def main():
        dispatch = KeyGated()
        batcher = MicroBatcher(dispatch, max_batch=2)
        first = batcher.submit("w", 1)
        await spin()
        waiting = batcher.submit("v", 2)
        pair = [batcher.submit("a", 3), batcher.submit("a", 4)]
        await spin()
        assert dispatch.batches == [("w", [1]), ("a", [3, 4])]
        assert (batcher.inflight, batcher.queued) == (2, 1)
        dispatch.gate("w").set()
        await spin(6)
        # "a" is still in flight, yet "v" waited only for the dispatch
        # that was running when it formed.
        assert dispatch.batches == [("w", [1]), ("a", [3, 4]), ("v", [2])]
        assert (batcher.inflight, batcher.queued) == (2, 0)
        dispatch.gate("v").set()
        assert await waiting == (20, 1)
        dispatch.gate("a").set()
        return await asyncio.gather(first, *pair)

    assert asyncio.run(main()) == [(10, 1), (30, 2), (40, 2)]
