"""Benchmark: disabled instrumentation must be (nearly) free.

The observability subsystem's second hard guarantee (after bit-identity,
see ``docs/observability.md``): with no instrumentation active — the
default — the runtime's hot path pays only no-op calls on the null
singletons.  The bar: a warm serial 4-system comparison through
:class:`EngineRuntime` must sustain at least 98% of the throughput of
the same work run through the bare fused kernel with every
instrumentation call site bypassed (i.e. <= ~2% overhead), while
producing bit-identical failure counts — with instrumentation off *and*
on.

The comparison is serial (``workers=1``) and cache-warm on both sides so
the timed region is exactly the decision kernels plus (on the runtime
side) the null-instrumentation call sites under test — no pool
scheduling noise, no columnisation, no classification.  The two sides
are timed interleaved, one repeat of each in turn, and each keeps its
best repeat, so a burst of contention on a shared machine slows both
sides' repeats around it rather than deciding the ratio; the side timed
first in a repeat alternates, since on identical work the first-timed
side reads about a point faster.  The workload
is large enough (about 14 ms of kernel work per comparison on a 2-vCPU
VM) that the runtime's fixed per-call bookkeeping stays well under a
point of it, and the repeats many enough that each side's best repeat
finds a quiet moment: with 6,000 cases and 7 repeats the gate failed
in 3 to 7 of 20 fresh runs of code whose overhead is about one point.  Results are
written to ``BENCH_obs.json`` at the repo root (uploaded as a CI
artifact).  Run with::

    pytest benchmarks/test_obs_overhead.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks._report import write_benchmark_report
from repro.cadt import Cadt
from repro.engine import EngineRuntime
from repro.engine.executor import cancer_class_codes
from repro.engine.fused import build_fused_item, run_fused_batch
from repro.obs import Instrumentation
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import (
    SubtletyClassifier,
    routine_screening_population,
    trial_workload,
)
from repro.system import AssistedReading, FailureTally

NUM_CASES = 48_000
CHUNK_SIZE = 512
NUM_SYSTEMS = 4
REPEATS = 31
SEED = 2026
LEVEL = 0.95
#: Throughput ratio (bare / runtime elapsed) the disabled path must keep.
REQUIRED_RATIO = 0.98


def make_systems():
    return [
        AssistedReading(
            ReaderModel(
                skill=ReaderSkill(), bias=MILD_BIAS, name=f"r{i}", seed=100 + i
            ),
            Cadt(seed=200 + i),
            name=f"system_{i}",
        )
        for i in range(NUM_SYSTEMS)
    ]


@pytest.fixture(scope="module")
def workload():
    return trial_workload(
        routine_screening_population(seed=SEED),
        NUM_CASES,
        cancer_fraction=0.3,
        name="bench",
    )


def bare_compare(systems, workload, positions, codes, classes):
    """The runtime's warm serial loop with every instrumentation call site
    bypassed, reconstructed.

    Per comparison this is what a warm serial ``EngineRuntime.compare``
    does: the workload's read-only columns (``workload.to_arrays()``)
    once, one :func:`run_fused_batch` over the systems as fused items
    (each deciding the chunk plan with its own generators and tallied
    once by ``count_failures`` over the precomputed class codes), and
    one tally per row.  The only thing the runtime adds on top is the
    instrumentation call sites and its bookkeeping — the cost under test.
    """
    arrays = workload.to_arrays()  # the held columns: no copy, no re-check
    items = tuple(
        build_fused_item(index, system, SEED) for index, system in enumerate(systems)
    )
    task = (arrays, CHUNK_SIZE, positions, codes, len(classes), items, None, False)
    rows = run_fused_batch(task).rows
    n_classes = len(classes)
    results = {}
    for system, row in zip(systems, rows):
        tally = FailureTally.from_counts(
            (*row[:4].tolist(), row[4 : 4 + n_classes], row[4 + n_classes :]), classes
        )
        results[system.name] = tally.to_evaluation(system.name, workload.name, LEVEL)
    return results


def counts(evaluation):
    fn, fp = evaluation.false_negative, evaluation.false_positive
    return (
        (fn.failures, fn.trials) if fn else None,
        (fp.failures, fp.trials) if fp else None,
        sorted(
            (cls.name, est.failures, est.trials)
            for cls, est in evaluation.per_class_false_negative.items()
        ),
    )


def test_disabled_instrumentation_keeps_98_percent_throughput(workload):
    classifier = SubtletyClassifier()
    systems = make_systems()

    arrays = workload.to_arrays()
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(workload, classifier, arrays, positions)
    classes = tuple(classifier.classes)

    with EngineRuntime(workers=1) as runtime:
        assert not runtime.obs.enabled  # the default really is the null path
        # One untimed comparison warms the workload's class-code memo so
        # the timed loop is kernels + null call sites, nothing else.
        runtime.compare(
            systems, workload, classifier, seed=SEED, chunk_size=CHUNK_SIZE
        )
        bare_times, runtime_times = [], []

        def time_bare():
            start = time.perf_counter()
            result = bare_compare(systems, workload, positions, codes, classes)
            bare_times.append(time.perf_counter() - start)
            return result

        def time_runtime():
            start = time.perf_counter()
            result = runtime.compare(
                systems, workload, classifier, seed=SEED, chunk_size=CHUNK_SIZE
            )
            runtime_times.append(time.perf_counter() - start)
            return result

        for repeat in range(REPEATS):
            # The side timed first reads faster on identical work, so
            # each side goes first on every other repeat.
            if repeat % 2 == 0:
                bare, plain = time_bare(), time_runtime()
            else:
                plain, bare = time_runtime(), time_bare()
    bare_elapsed = min(bare_times)
    runtime_elapsed = min(runtime_times)

    # Instrumented run, untimed: the on/off bit-identity half of the
    # observability contract, at benchmark scale.
    with EngineRuntime(workers=1, obs=Instrumentation(name="bench")) as traced:
        instrumented = traced.compare(
            systems, workload, classifier, seed=SEED, chunk_size=CHUNK_SIZE
        )

    reference = {name: counts(e) for name, e in bare.items()}
    assert {name: counts(e) for name, e in plain.items()} == reference
    assert {name: counts(e) for name, e in instrumented.items()} == reference

    ratio = bare_elapsed / runtime_elapsed
    overhead_pct = (runtime_elapsed / bare_elapsed - 1.0) * 100.0
    print(
        f"\nbare kernels: {bare_elapsed * 1e3:.1f} ms  "
        f"runtime (obs off): {runtime_elapsed * 1e3:.1f} ms  "
        f"throughput ratio: {ratio:.3f} (overhead {overhead_pct:+.1f}%) "
        f"({NUM_SYSTEMS}-system serial comparison, best of {REPEATS})"
    )
    write_benchmark_report(
        "obs",
        speedup=ratio,
        gate=REQUIRED_RATIO,
        metrics={
            "num_cases": NUM_CASES,
            "chunk_size": CHUNK_SIZE,
            "num_systems": NUM_SYSTEMS,
            "workers": 1,
            "repeats": REPEATS,
            "seed": SEED,
            "bare_comparison_s": round(bare_elapsed, 4),
            "runtime_comparison_s": round(runtime_elapsed, 4),
            "overhead_pct": round(overhead_pct, 2),
        },
    )
    assert ratio >= REQUIRED_RATIO, (
        f"disabled instrumentation keeps only {ratio:.3f} of bare throughput "
        f"({overhead_pct:+.1f}% overhead; required ratio {REQUIRED_RATIO})"
    )
