"""The machine-speed reference every timed metric is normalised by.

The benchmark runs on small shared VMs whose speed drifts: a fixed
workload's op time swung 238-479 ms within one minute, in episodes of
5-20 s, with no steal time reported (the host itself slows down).  No
statistic taken inside one run removes a drift that lasts the whole run.

So every run also times a fixed reference kernel -- NumPy draws, a
bincount, a sort, then dict and tuple work in plain Python, the same mix
of native and interpreted work the package does -- right next to the
work it measures: between ops, between blocks of requests (with the
server and its pool stopped, so none of the program's own work lands in
it), before and after each set-up, always on the same pinned CPU.  A
timing is divided by ``reference / NOMINAL_S``, the factor by which the
machine was slower than nominal at that moment, and a rate is multiplied
by it.  The kernel is the benchmark's own code, so a change to the
program moves the workload's time and not the reference.  Across one minute of op times
the normalised values spread 5% where the raw ones spread 29%.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's wall time on the machine the benchmark was sized on (one
#: 2.1 GHz Xeon vCPU).  Normalised values read "as if the kernel took
#: this long"; the constant only sets the scale.
NOMINAL_S = 0.005


#: Kernel runs per reference; the fastest counts.  A run can only be
#: slowed by an interrupt or a cold first call, never sped up, so the
#: minimum tracks the machine's speed and ignores those.
REPEATS = 3


def reference_seconds() -> float:
    """The machine's current speed: the fastest of :data:`REPEATS` kernel runs."""
    return min(_kernel_seconds() for _ in range(REPEATS))


def _kernel_seconds() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(20030622)
    total = 0
    for _ in range(6):
        draws = rng.random(1 << 14)
        total += int(np.bincount((draws * 16).astype(np.int64), minlength=16)[3])
        total += int(np.searchsorted(np.sort(draws), 0.5))
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    total += len([(i, str(i)) for i in range(5_000)]) + len(counts)
    elapsed = time.perf_counter() - start
    if total <= 0:  # consumes the result; never true
        raise RuntimeError("reference kernel produced nothing")
    return elapsed


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two references."""
    return (before + after) / (2.0 * NOMINAL_S)


def normalise_seconds(seconds: float, before: float, after: float) -> float:
    """A duration measured between two references, at nominal speed."""
    return seconds / slowdown(before, after)
