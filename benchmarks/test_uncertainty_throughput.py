"""Benchmark: vectorized posterior kernel versus the per-draw scalar loop.

The acceptance bar for the posterior-propagation kernel: a 10,000-draw
credible interval for the system failure probability must be at least
10x faster on the array kernel than on the per-draw scalar reference,
while returning the *bit-identical* interval.  Measured rates are
written to ``BENCH_uncertainty.json`` at the repo root (uploaded as a
CI artifact).  Run with::

    pytest benchmarks/test_uncertainty_throughput.py -s
"""

from __future__ import annotations

import math
import time

import pytest

from benchmarks._report import write_benchmark_report
from repro.core import (
    PAPER_FIELD_PROFILE,
    BetaPosterior,
    UncertainClassParameters,
    UncertainModel,
)

NUM_DRAWS = 10_000
REQUIRED_SPEEDUP = 10.0
SEED = 2026
REPEATS = 3


@pytest.fixture(scope="module")
def uncertain_paper_model():
    """Posteriors as if Table 1 came from a 400-reading-per-class trial."""

    def from_rate(rate, n=400):
        return BetaPosterior.from_counts(round(rate * n), n)

    return UncertainModel(
        {
            "easy": UncertainClassParameters(
                from_rate(0.07), from_rate(0.18), from_rate(0.14)
            ),
            "difficult": UncertainClassParameters(
                from_rate(0.41), from_rate(0.90), from_rate(0.40)
            ),
        }
    )


def timed_interval(model, method):
    """The interval by ``method`` and the best time of ``REPEATS`` calls.

    Each path is called once untimed first: numpy loads ``numpy.random``
    and ``numpy.ma`` (inside the first ``np.quantile``) on first use,
    about 9 ms that would otherwise be charged to whichever path ran
    first, so both paths are timed warm.
    """

    def call():
        return model.failure_probability_interval(
            PAPER_FIELD_PROFILE, num_samples=NUM_DRAWS, seed=SEED, method=method
        )

    interval = call()
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return interval, best


def test_kernel_is_10x_faster_than_scalar(uncertain_paper_model):
    vectorized, vectorized_elapsed = timed_interval(uncertain_paper_model, "vectorized")
    scalar, scalar_elapsed = timed_interval(uncertain_paper_model, "scalar")

    # The speedup claim is only meaningful if the outputs agree exactly:
    # both paths consume the same param-major table for this seed.
    assert vectorized.lower == scalar.lower
    assert vectorized.upper == scalar.upper
    assert vectorized.mean == scalar.mean

    vectorized_rate = NUM_DRAWS / vectorized_elapsed
    scalar_rate = NUM_DRAWS / scalar_elapsed
    speedup = scalar_elapsed / vectorized_elapsed
    print(
        f"\nvectorized: {vectorized_rate:,.0f} draws/s  "
        f"scalar: {scalar_rate:,.0f} draws/s  speedup: {speedup:.1f}x "
        f"({NUM_DRAWS} draws)"
    )
    write_benchmark_report(
        "uncertainty",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "num_draws": NUM_DRAWS,
            "seed": SEED,
            "vectorized_draws_per_s": round(vectorized_rate),
            "scalar_draws_per_s": round(scalar_rate),
            "interval": {
                "lower": vectorized.lower,
                "upper": vectorized.upper,
                "mean": vectorized.mean,
                "level": vectorized.level,
            },
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"posterior kernel only {speedup:.1f}x faster than scalar "
        f"(required {REQUIRED_SPEEDUP}x)"
    )
