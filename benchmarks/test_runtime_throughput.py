"""Benchmark: persistent EngineRuntime versus the per-call-pool executor.

The acceptance bar for the runtime (see ``docs/engine.md``): a seeded
4-system multi-chunk comparison on a shared :class:`EngineRuntime` must
be at least 3x faster end-to-end than the per-call path it replaces —
a fresh process pool per system, chunk arrays pickled into every task,
the workload recolumnised per call, and cancer cases classified one by
one — while producing *bit-identical* failure counts.  The runtime is
opened (and its pool warmed) once before timing, because steady-state
reuse across calls is precisely what it exists to amortise; the baseline
pays pool startup per system, exactly as the old executor did.

Measured times are written to ``BENCH_runtime.json`` at the repo root
(uploaded as a CI artifact).  Run with::

    pytest benchmarks/test_runtime_throughput.py -s
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from benchmarks._report import write_benchmark_report
from repro.cadt import Cadt
from repro.engine import EngineRuntime, compare_systems_batch, evaluate_system_batch
from repro.engine.arrays import CaseArrays
from repro.engine.executor import _chunk_rngs, plan_chunks
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import (
    SubtletyClassifier,
    routine_screening_population,
    trial_workload,
)
from repro.system import AssistedReading
from repro.system.simulate import FailureTally

NUM_CASES = 6_000
CHUNK_SIZE = 512  # twelve chunks: a genuinely multi-chunk comparison
NUM_SYSTEMS = 4
WORKERS = 4
REPEATS = 3
SEED = 2026
REQUIRED_SPEEDUP = 3.0


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


def decide_chunk(system, chunk, rng):
    """One chunk's failure flags: the per-chunk task the per-call pool ran.

    Module-level so the pool can pickle it; the system travels with
    every task.
    """
    decisions = system.decide_batch(chunk, rng=rng)
    return np.asarray(decisions.failures(chunk.has_cancer))


def per_call_pool_compare(systems, workload, classifier):
    """The pre-runtime executor path, reconstructed faithfully.

    One fresh :class:`ProcessPoolExecutor` per system, one task per
    chunk with the chunk arrays pickled into it, the workload
    recolumnised from its cases on every evaluation, and the cancer
    cases classified through the per-case ``classify`` loop — the exact
    costs the persistent runtime amortises.
    """
    results = {}
    for system in systems:
        arrays = CaseArrays.from_cases(workload.cases)  # uncached columnise
        chunks = plan_chunks(len(arrays), CHUNK_SIZE)
        rngs = _chunk_rngs(SEED, len(chunks))
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            futures = [
                pool.submit(decide_chunk, system, arrays.chunk(start, stop), rng)
                for (start, stop), rng in zip(chunks, rngs)
            ]
            chunk_failures = [future.result() for future in futures]
        positions = np.flatnonzero(arrays.has_cancer)
        labels = [  # per-case classification, as before classify_batch
            classifier.classify(case) for case in workload.cases if case.has_cancer
        ]
        tally = FailureTally(classifier.classes)
        for (start, stop), failed in zip(chunks, chunk_failures):
            low, high = np.searchsorted(positions, (start, stop))
            tally.record_batch(
                arrays.has_cancer[start:stop], failed, labels[low:high]
            )
        results[system.name] = tally.to_evaluation(system.name, workload.name, 0.95)
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


def test_runtime_is_3x_faster_than_per_call_pools(workload):
    classifier = SubtletyClassifier()
    systems = make_systems()

    # Time each comparison individually and score the minimum: the
    # container this runs in is noisy, and min-of-repeats is the
    # standard estimator for the undisturbed cost of each path.
    baseline_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        baseline = per_call_pool_compare(systems, workload, classifier)
        baseline_times.append(time.perf_counter() - start)
    baseline_elapsed = min(baseline_times)

    with EngineRuntime(workers=WORKERS) as runtime:
        # One untimed comparison warms the persistent state the runtime
        # exists to reuse — the pool and the published workload — and
        # the workload's class-code memo; steady-state reuse is what is
        # being measured.
        compare_systems_batch(
            systems, workload, classifier,
            seed=SEED, chunk_size=CHUNK_SIZE, runtime=runtime,
        )
        runtime_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            pooled = compare_systems_batch(
                systems,
                workload,
                classifier,
                seed=SEED,
                chunk_size=CHUNK_SIZE,
                runtime=runtime,
            )
            runtime_times.append(time.perf_counter() - start)
        runtime_elapsed = min(runtime_times)

    # The speedup claim is only meaningful if the outputs agree exactly:
    # same chunking and same chunk generators on both paths.
    assert {name: counts(e) for name, e in pooled.items()} == {
        name: counts(e) for name, e in baseline.items()
    }

    # Single-chunk seeded runs reproduce the existing batch path bit for
    # bit, and multi-chunk seeded runs are a function of (seed,
    # chunk_size) only — worker count and pooling drop out.
    with EngineRuntime(workers=WORKERS) as runtime:
        single_pooled = evaluate_system_batch(
            systems[0], workload, classifier, seed=SEED,
            chunk_size=NUM_CASES, runtime=runtime,
        )
        multi_pooled = evaluate_system_batch(
            systems[0], workload, classifier, seed=SEED,
            chunk_size=CHUNK_SIZE, runtime=runtime,
        )
    single_serial = evaluate_system_batch(
        systems[0], workload, classifier, seed=SEED, chunk_size=NUM_CASES
    )
    multi_serial = evaluate_system_batch(
        systems[0], workload, classifier, seed=SEED, chunk_size=CHUNK_SIZE
    )
    assert counts(single_pooled) == counts(single_serial)
    assert counts(multi_pooled) == counts(multi_serial)

    speedup = baseline_elapsed / runtime_elapsed
    print(
        f"\nper-call pools: {baseline_elapsed / NUM_SYSTEMS * 1e3:.1f} ms/evaluation  "
        f"runtime: {runtime_elapsed / NUM_SYSTEMS * 1e3:.1f} ms/evaluation  "
        f"speedup: {speedup:.1f}x "
        f"({NUM_SYSTEMS}-system comparison, best of {REPEATS}, "
        f"{NUM_CASES} cases, {-(-NUM_CASES // CHUNK_SIZE)} chunks)"
    )
    write_benchmark_report(
        "runtime",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "num_cases": NUM_CASES,
            "chunk_size": CHUNK_SIZE,
            "num_systems": NUM_SYSTEMS,
            "workers": WORKERS,
            "repeats": REPEATS,
            "seed": SEED,
            "per_call_pool_comparison_s": round(baseline_elapsed, 3),
            "runtime_comparison_s": round(runtime_elapsed, 3),
            "per_call_pool_ms_per_evaluation": round(
                baseline_elapsed / NUM_SYSTEMS * 1e3, 1
            ),
            "runtime_ms_per_evaluation": round(
                runtime_elapsed / NUM_SYSTEMS * 1e3, 1
            ),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"persistent runtime only {speedup:.1f}x faster than per-call pools "
        f"(required {REQUIRED_SPEEDUP}x)"
    )
