"""Benchmark: coalesced service dispatch versus serial per-request execution.

The acceptance bar for :mod:`repro.service` (see ``docs/service.md``): a
wave of concurrent clients evaluated through the always-on service —
workload planes cached, requests sharing a workload fingerprint
coalesced by the micro-batcher into fused engine dispatches — must be at
least **3x** faster than the serial per-request path, where every
request independently materialises its workload (``spec.build()``) and
runs :func:`~repro.engine.evaluate_system_batch` with its own seed.
That baseline is exactly what each client would do standalone, and
exactly what the service's determinism contract reproduces: per-request
``(seed, chunk_size)`` results are bit-identical between the two paths,
asserted over every request before any timing is reported.

Beyond the speedup, the run records the request-latency distribution —
p50/p99 from the service's ``service.latency_s`` histogram — plus
requests-per-second and coalescing shape (dispatches, max batch size).
Measured numbers land in ``BENCH_service.json`` at the repo root
(uploaded as a CI artifact).  Run with::

    pytest benchmarks/test_service_throughput.py -s
"""

from __future__ import annotations

import asyncio
import time

from benchmarks._report import write_benchmark_report
from repro.engine import evaluate_system_batch
from repro.obs import Instrumentation
from repro.service import ScreeningService, ServiceConfig
from repro.sweep.grid import SystemSpec, WorkloadSpec

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 6
NUM_CASES = 400
CHUNK_SIZE = 16_384  # single chunk per request: one fused job per item
REQUIRED_SPEEDUP = 3.0
REPEATS = 3

WORKLOADS = (
    WorkloadSpec(population="routine", num_cases=NUM_CASES, cancer_fraction=0.5),
    WorkloadSpec(population="symptomatic", num_cases=NUM_CASES, cancer_fraction=0.5),
)
SYSTEMS = (
    SystemSpec(kind="assisted", bias="mild"),
    SystemSpec(kind="unaided", bias="none"),
    SystemSpec(kind="assisted", bias="strong", operating_point=0.2),
)


def client_requests():
    """Every client's request list: mixed workloads/systems, unique seeds."""
    waves = []
    for client in range(NUM_CLIENTS):
        waves.append(
            [
                (
                    WORKLOADS[(client + burst) % len(WORKLOADS)],
                    SYSTEMS[(client * 7 + burst) % len(SYSTEMS)],
                    10_000 + client * REQUESTS_PER_CLIENT + burst,
                )
                for burst in range(REQUESTS_PER_CLIENT)
            ]
        )
    return waves


def test_coalesced_service_is_3x_faster_than_serial_requests():
    waves = client_requests()
    flat = [request for wave in waves for request in wave]

    # Serial baseline: each request pays its own workload
    # materialisation, columnisation, and dispatch — the standalone
    # path the determinism contract names.
    start = time.perf_counter()
    references = [
        evaluate_system_batch(
            system.build(seed),
            workload.build(),
            seed=seed,
            chunk_size=CHUNK_SIZE,
        )
        for workload, system, seed in flat
    ]
    serial_elapsed = time.perf_counter() - start

    # Coalesced path: all clients fire concurrently into one always-on
    # service; same-workload requests merge into fused dispatches.
    obs = Instrumentation(name="bench-service")
    config = ServiceConfig(
        workers=1,
        max_batch=32,
        chunk_size=CHUNK_SIZE,
        max_cached_workloads=8,
        max_queue_depth=1024,
    )

    async def one_wave(service):
        async def client(wave):
            return [
                await service.evaluate(workload, system, seed=seed)
                for workload, system, seed in wave
            ]

        nested = await asyncio.gather(*(client(wave) for wave in waves))
        return [evaluation for wave in nested for evaluation in wave]

    async def main():
        times, results = [], None
        async with ScreeningService(config, obs=obs) as service:
            for _ in range(REPEATS):
                start = time.perf_counter()
                results = await one_wave(service)
                times.append(time.perf_counter() - start)
        return min(times), results

    coalesced_elapsed, results = asyncio.run(main())

    # Bit-identity across every request; without it the timing is noise.
    for got, reference in zip(results, references):
        assert got.false_negative == reference.false_negative
        assert got.false_positive == reference.false_positive
        assert got.per_class_false_negative == reference.per_class_false_negative

    snapshot = obs.metrics.snapshot()
    latency = snapshot["histograms"]["service.latency_s"]
    counters = snapshot["counters"]
    total = len(flat)
    speedup = serial_elapsed / coalesced_elapsed
    rps = total / coalesced_elapsed
    print(
        f"\nserial: {serial_elapsed / total * 1e3:.2f} ms/request  "
        f"coalesced: {coalesced_elapsed / total * 1e3:.2f} ms/request  "
        f"speedup: {speedup:.1f}x "
        f"({total} requests/wave, {int(counters['service.dispatches'])} dispatches "
        f"over {REPEATS} waves, p50 {latency['p50'] * 1e3:.2f} ms, "
        f"p99 {latency['p99'] * 1e3:.2f} ms, best of {REPEATS})"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"coalesced service speedup {speedup:.2f}x below the "
        f"{REQUIRED_SPEEDUP}x gate "
        f"(serial {serial_elapsed:.3f}s, coalesced {coalesced_elapsed:.3f}s)"
    )
    write_benchmark_report(
        "service",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "requests_per_wave": total,
            "num_cases": NUM_CASES,
            "chunk_size": CHUNK_SIZE,
            "max_batch": config.max_batch,
            "repeats": REPEATS,
            "serial_total_s": round(serial_elapsed, 3),
            "coalesced_total_s": round(coalesced_elapsed, 3),
            "requests_per_s": round(rps, 1),
            "dispatches": int(counters["service.dispatches"]),
            "coalesced_requests": int(counters["service.coalesced"]),
            "max_batch_size": snapshot["histograms"]["service.batch_size"]["max"],
            "p50_ms": round(latency["p50"] * 1e3, 3),
            "p99_ms": round(latency["p99"] * 1e3, 3),
        },
    )
