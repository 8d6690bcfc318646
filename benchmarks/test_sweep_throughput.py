"""Benchmark: the compiled sweep engine versus the naive per-cell loop.

The acceptance bar for :mod:`repro.sweep` (see ``docs/sweeps.md``): a
~1k-cell scenario grid executed through :func:`~repro.sweep.run_sweep`
must be at least **5x** faster than the naive per-cell loop — each cell
materialised independently (``cell.workload.build()`` +
``cell.system.build(seed)``) and evaluated through
:func:`~repro.engine.evaluate_system_batch` with the cell's recorded
seed, which is exactly the standalone-reproduction path
(:func:`~repro.sweep.reproduce_cell`) the determinism contract names.
The naive loop is what a grid executor without the compiler does: cells
are declarative, so without fingerprint-keyed deduplication every cell
pays its own workload materialisation, columnisation, classification,
and per-cancer-case tally loop.  The sweep pays each of those once per
*distinct workload* and replaces the tally loop with two ``bincount``
passes.

The speedup claim is only meaningful because the outputs agree exactly:
every one of the ~1k cells' evaluations is asserted bit-identical
between the two paths before any timing is reported.

A second, partially-amortised baseline — the same loop over *pre-built,
shared* workload objects, so each workload is generated once — is
measured and recorded in the metrics (not gated): it isolates what
fusion and the vectorized tally buy on top of workload deduplication.

Measured times land in ``BENCH_sweep.json`` at the repo root (uploaded
as a CI artifact).  Run with::

    pytest benchmarks/test_sweep_throughput.py -s
"""

from __future__ import annotations

import time

from benchmarks._report import write_benchmark_report
from repro.engine import evaluate_system_batch
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, run_sweep

NUM_CASES = 400
CHUNK_SIZE = 16_384  # single chunk per cell: seeded rng identical by construction
SEED = 2026
REQUIRED_SPEEDUP = 5.0
FUSED_REPEATS = 3

#: 2 populations x (1 unaided + 3 ops x assisted) x 3 biases x 42 replicates
#: = 1008 cells over 2 distinct workloads.
GRID = ScenarioGrid(
    name="bench_sweep",
    populations=("routine", "symptomatic"),
    num_cases=NUM_CASES,
    cancer_fraction=0.5,
    systems=("unaided", "assisted"),
    biases=("none", "mild", "strong"),
    dynamics=("none",),
    operating_points=(-0.2, 0.0, 0.2),
    replicates=42,
)


def test_fused_sweep_is_5x_faster_than_naive_cell_loop():
    classifier = SubtletyClassifier()

    # Fused path: min of repeats (workload build + columnisation +
    # classification once per distinct workload, fused dispatches,
    # bincount tallies).  Results are identical on every repeat.
    fused_times = []
    result = None
    for _ in range(FUSED_REPEATS):
        start = time.perf_counter()
        result = run_sweep(
            GRID, seed=SEED, classifier=classifier, chunk_size=CHUNK_SIZE
        )
        fused_times.append(time.perf_counter() - start)
    fused_elapsed = min(fused_times)
    fused_evaluations = result.evaluations()
    plan = result.plan
    cells = list(plan.cells())
    assert len(cells) == 1008 and result.complete

    # Naive loop: every cell materialised independently with its
    # recorded seed — the standalone-reproduction path, once per cell.
    start = time.perf_counter()
    naive_evaluations = {}
    for planned in cells:
        workload = planned.cell.workload.build()
        system = planned.cell.system.build(planned.seed)
        naive_evaluations[planned.cell_id] = evaluate_system_batch(
            system,
            workload,
            classifier,
            seed=planned.seed,
            chunk_size=CHUNK_SIZE,
        )
    naive_elapsed = time.perf_counter() - start

    # Bit-identity across all cells; without it the timing is noise.
    assert naive_evaluations == fused_evaluations

    # Secondary baseline (recorded, not gated): share built workload
    # objects so each is generated once; isolates the fusion/tally win.
    prebuilt = {key: spec.build() for key, spec in plan.workloads.items()}
    start = time.perf_counter()
    for planned in cells:
        system = planned.cell.system.build(planned.seed)
        evaluate_system_batch(
            system,
            prebuilt[planned.workload_key],
            classifier,
            seed=planned.seed,
            chunk_size=CHUNK_SIZE,
        )
    shared_elapsed = time.perf_counter() - start

    speedup = naive_elapsed / fused_elapsed
    per_cell_naive = naive_elapsed / len(cells) * 1e3
    per_cell_fused = fused_elapsed / len(cells) * 1e3
    print(
        f"\nnaive loop: {per_cell_naive:.2f} ms/cell  "
        f"fused sweep: {per_cell_fused:.2f} ms/cell  "
        f"speedup: {speedup:.1f}x "
        f"(shared-workload baseline: {shared_elapsed / fused_elapsed:.1f}x; "
        f"{len(cells)} cells, {len(plan.workloads)} workloads, "
        f"{plan.fused_dispatches} dispatches, best of {FUSED_REPEATS})"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"fused sweep speedup {speedup:.2f}x below the {REQUIRED_SPEEDUP}x gate "
        f"(naive {naive_elapsed:.3f}s, fused {fused_elapsed:.3f}s)"
    )
    write_benchmark_report(
        "sweep",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "cells": len(cells),
            "num_cases": NUM_CASES,
            "chunk_size": CHUNK_SIZE,
            "distinct_workloads": len(plan.workloads),
            "fused_dispatches": plan.fused_dispatches,
            "seed": SEED,
            "fused_repeats": FUSED_REPEATS,
            "naive_total_s": round(naive_elapsed, 3),
            "fused_total_s": round(fused_elapsed, 3),
            "shared_workload_total_s": round(shared_elapsed, 3),
            "shared_workload_speedup": round(shared_elapsed / fused_elapsed, 2),
            "naive_ms_per_cell": round(per_cell_naive, 2),
            "fused_ms_per_cell": round(per_cell_fused, 2),
        },
    )
