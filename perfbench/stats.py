"""Summary statistics shared by every workload.

Two rules from the benchmark's design live here so they are tested once:

* a latency percentile is reported only when at least ten samples lie
  beyond it (otherwise the tail estimate is one or two outliers);
* failed or refused operations count as infinitely slow, so they push
  every percentile they reach to infinity instead of vanishing from
  the latency sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: The tail percentile reported when the sample supports it.
TAIL = 0.99

FAILED = math.inf


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile of ``n``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q!r}")
    return n - math.ceil(q * n)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q`` percentile."""
    return n > 0 and samples_beyond(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last.

    Raises:
        ValueError: when fewer than :data:`MIN_BEYOND` samples lie beyond
            the requested percentile.
    """
    n = len(values)
    if not supported(n, q):
        raise ValueError(
            f"p{q * 100:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(samples_beyond(n, q), 0) if n else 0}"
        )
    ordered = sorted(values)
    return ordered[math.ceil(q * n) - 1]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """The :data:`TAIL` percentile, or the median when it is unsupported.

    Returns ``(q, value)``.  There is no rung in between: a run whose op
    count hovers near a rung's threshold would report a different
    percentile from run to run.
    """
    if supported(len(values), TAIL):
        return TAIL, percentile(values, TAIL)
    return 0.5, statistics.median(values)


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError(f"no operations attempted (attempted={attempted})")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def latencies_with_failures(
    ok_latencies: Iterable[float], failed: int
) -> list[float]:
    """Completed latencies plus one infinitely slow sample per failure."""
    return list(ok_latencies) + [FAILED] * failed


def finite_or_none(value: float) -> float | None:
    """JSON has no infinity: an infinite (failed) statistic becomes null."""
    return value if math.isfinite(value) else None
