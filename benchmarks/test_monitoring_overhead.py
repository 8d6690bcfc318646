"""Benchmark: streaming monitoring beats batch re-scan; null obs is free.

Two gates for the streaming monitoring plane (``docs/monitoring.md``):

1. **Replay speedup (>= 10x).**  A live monitor answering "what does the
   report look like *now*?" after every poll must not re-scan history.
   On a 100k-record replay polled ``NUM_POLLS`` times, one
   :class:`StreamMonitor` ingesting each batch incrementally must beat
   re-running the batch :func:`monitor_records` sweep over the growing
   prefix by at least 10x — while ending on the *exact* same report
   (identical statistics and p-values), because the streaming estimator
   keeps the very integer counts the batch scan would recount.

2. **Disabled-path overhead (<= ~2%), like BENCH_obs.**  With the
   default null instrumentation, the plane's ``repro.obs`` call sites
   must be nearly free: a :class:`StreamMonitor` replay must sustain at
   least 98% of the throughput of the same estimator + alarm loop
   reconstructed with every instrumentation call site removed.  An
   enabled (live :class:`Instrumentation`) run is asserted
   state-identical, untimed — the on/off bit-identity half of the
   observability contract.

Results land in ``BENCH_monitor.json`` at the repo root (uploaded as a
CI artifact; the headline speedup is gate 1).  Run with::

    pytest benchmarks/test_monitoring_overhead.py -s
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import compress
from operator import and_

import numpy as np
import pytest

from benchmarks._report import write_benchmark_report
from repro.analysis import monitor_records, rate_drift_test
from repro.analysis.streaming import (
    ClassCell,
    CusumAlarm,
    SprtAlarm,
    StreamMonitor,
    StreamingEstimator,
    WelfordAccumulator,
)
from repro.core import PAPER_FIELD_PROFILE, CaseClass
from repro.core.parameters import paper_example_parameters
from repro.obs import Instrumentation
from repro.trial import CaseRecord, RecordBatch

NUM_RECORDS = 100_000
NUM_POLLS = 100
CHECK_EVERY = 256
REPEATS = 3
SEED = 2026
ALPHA = 0.01
#: Streaming-vs-rescan replay speedup the plane must clear (gate 1).
REQUIRED_SPEEDUP = 10.0
#: Throughput ratio (bare / monitored elapsed) null obs must keep (gate 2).
REQUIRED_RATIO = 0.98


@pytest.fixture(scope="module")
def replay():
    """100k in-control aided cancer records under the paper's model."""
    parameters = paper_example_parameters()
    rng = np.random.default_rng(SEED)
    classes = np.where(rng.random(NUM_RECORDS) < 0.9, "easy", "difficult")
    p_mf = np.where(classes == "easy", 0.07, 0.41)
    machine_failed = rng.random(NUM_RECORDS) < p_mf
    p_hf = np.where(
        machine_failed,
        np.where(classes == "easy", 0.18, 0.90),
        np.where(classes == "easy", 0.14, 0.40),
    )
    human_failed = rng.random(NUM_RECORDS) < p_hf
    easy, difficult = CaseClass("easy"), CaseClass("difficult")
    records = [
        CaseRecord(
            i,
            "r",
            easy if cls == "easy" else difficult,
            True,
            True,
            bool(mf),
            0,
            not bool(hf),
        )
        for i, (cls, mf, hf) in enumerate(zip(classes, machine_failed, human_failed))
    ]
    return parameters, records


def poll_batches(records):
    size = len(records) // NUM_POLLS
    return [records[i * size : (i + 1) * size] for i in range(NUM_POLLS)]


def report_keys(report):
    return [(t.name, t.statistic, t.p_value) for t in report.tests]


def test_streaming_replay_beats_batch_rescan(replay):
    parameters, records = replay
    batches = poll_batches(records)

    # Batch re-scan: every poll recounts the whole prefix from scratch.
    start = time.perf_counter()
    prefix: list[CaseRecord] = []
    for batch in batches:
        prefix.extend(batch)
        batch_report = monitor_records(
            prefix, parameters, PAPER_FIELD_PROFILE, alpha=ALPHA
        )
    batch_elapsed = time.perf_counter() - start

    # Streaming: one monitor ingests each batch; the report reads the
    # already-maintained counts.
    monitor = StreamMonitor(
        parameters, PAPER_FIELD_PROFILE, alpha=ALPHA, check_every=CHECK_EVERY
    )
    start = time.perf_counter()
    for batch in batches:
        monitor.ingest(batch)
        stream_report = monitor.report()
    stream_elapsed = time.perf_counter() - start

    # Value identity, not approximation: same statistics, same p-values.
    assert report_keys(stream_report) == report_keys(batch_report)

    speedup = batch_elapsed / stream_elapsed
    print(
        f"\nbatch re-scan: {batch_elapsed * 1e3:.0f} ms  "
        f"streaming: {stream_elapsed * 1e3:.0f} ms  "
        f"speedup: {speedup:.1f}x "
        f"({NUM_RECORDS} records, {NUM_POLLS} polls, "
        f"checkpoint every {CHECK_EVERY})"
    )

    ratio, overhead_pct = _disabled_path_ratio(parameters, records)
    write_benchmark_report(
        "monitor",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "num_records": NUM_RECORDS,
            "num_polls": NUM_POLLS,
            "check_every": CHECK_EVERY,
            "alpha": ALPHA,
            "seed": SEED,
            "batch_rescan_s": round(batch_elapsed, 4),
            "streaming_s": round(stream_elapsed, 4),
            "null_obs_throughput_ratio": round(ratio, 3),
            "null_obs_overhead_pct": round(overhead_pct, 2),
            "null_obs_required_ratio": REQUIRED_RATIO,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"streaming replay is only {speedup:.1f}x the batch re-scan "
        f"(required {REQUIRED_SPEEDUP}x)"
    )
    assert ratio >= REQUIRED_RATIO, (
        f"null instrumentation keeps only {ratio:.3f} of the bare plane's "
        f"throughput ({overhead_pct:+.1f}% overhead; required {REQUIRED_RATIO})"
    )


def bare_plane_ingest(parameters, records):
    """The monitoring plane's ingest fold with every obs call removed.

    Reconstructs exactly what :meth:`StreamMonitor.ingest` does — the
    record batch, false-prompt moments in record order, the estimator's
    per-class counts folded one checkpoint segment at a time, windowed
    CUSUM/SPRT alarms at every ``CHECK_EVERY`` used records — minus the
    gauge/counter/mark call sites.  The difference to a
    null-instrumentation :class:`StreamMonitor` is therefore exactly the
    cost under test.
    """
    estimator = StreamingEstimator()
    false_prompts = WelfordAccumulator()
    cusum: dict[str, CusumAlarm] = {}
    sprt: dict[str, SprtAlarm] = {}
    last_cells: dict[str, ClassCell] = {}
    checkpoints = 0

    def checkpoint():
        nonlocal last_cells, checkpoints
        checkpoints += 1
        for name in estimator.class_names:
            window = estimator.cell(name).minus(last_cells.get(name, ClassCell()))
            if name not in parameters:
                continue
            reference = parameters[name]
            windows = (
                ("PMf", window.machine_failures, window.records,
                 reference.p_machine_failure),
                ("PHf|Mf", window.human_failures_given_mf,
                 window.machine_failures,
                 reference.p_human_failure_given_machine_failure),
                ("PHf|Ms", window.human_failures_given_ms,
                 window.machine_successes,
                 reference.p_human_failure_given_machine_success),
            )
            for suffix, failures, trials, rate in windows:
                if trials <= 0:
                    continue
                key = f"{name}/{suffix}"
                statistic = rate_drift_test(key, failures, trials, rate).statistic
                alarm = cusum.get(key)
                if alarm is None:
                    alarm = cusum[key] = CusumAlarm(key)
                alarm.update(statistic)
            rate = reference.p_machine_failure
            drifted = min(2.0 * rate, 1.0 - 1e-12)
            if 0.0 < rate < 1.0 and drifted != rate:
                key = f"{name}/PMf"
                walk = sprt.get(key)
                if walk is None:
                    walk = sprt[key] = SprtAlarm(key, rate, drifted)
                if window.records > 0:
                    walk.update(window.machine_failures, window.records)
        last_cells = {
            name: estimator.cell(name).copy() for name in estimator.class_names
        }

    batch = RecordBatch.from_records(records)
    aided = batch.aided
    false_prompts.add_many(
        prompts for prompts in compress(batch.machine_false_prompts, aided)
        if prompts is not None
    )
    used_mask = list(map(and_, aided, batch.has_cancer))
    names = list(compress(batch.case_class, used_mask))
    failed = list(compress(batch.machine_failed, used_mask))
    recalled = list(compress(batch.recalled, used_mask))
    positions = list(compress(range(len(batch)), used_mask))
    cut = CHECK_EVERY
    start = seen_from = 0
    while cut <= len(names):
        seen_to = positions[cut - 1] + 1
        estimator.ingest_counts(
            seen_to - seen_from,
            Counter(zip(names[start:cut], failed[start:cut], recalled[start:cut])),
        )
        checkpoint()
        start, seen_from = cut, seen_to
        cut += CHECK_EVERY
    estimator.ingest_counts(
        len(batch) - seen_from,
        Counter(zip(names[start:], failed[start:], recalled[start:])),
    )
    return estimator, cusum, sprt, checkpoints


def _disabled_path_ratio(parameters, records):
    """Gate 2: bare reconstructed loop vs null-instrumentation monitor."""
    # Interleave the repeats so slow machine drift hits both sides alike;
    # min-of-N then discards the noise floor.
    bare_times = []
    monitored_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        bare_estimator, bare_cusum, bare_sprt, bare_checkpoints = bare_plane_ingest(
            parameters, records
        )
        bare_times.append(time.perf_counter() - start)

        monitor = StreamMonitor(
            parameters, PAPER_FIELD_PROFILE, alpha=ALPHA, check_every=CHECK_EVERY
        )
        start = time.perf_counter()
        monitor.ingest(records)
        monitored_times.append(time.perf_counter() - start)
    bare_elapsed = min(bare_times)
    monitored_elapsed = min(monitored_times)

    # The bare twin really did the same work: same counts, same
    # checkpoints, same alarm walks (on/off bit-identity, null side)...
    assert monitor.estimator.state() == bare_estimator.state()
    assert monitor.checkpoints == bare_checkpoints
    snapshot = monitor.snapshot()
    assert snapshot["alarms"]["cusum"] == {
        key: alarm.state() for key, alarm in sorted(bare_cusum.items())
    }
    assert snapshot["alarms"]["sprt"] == {
        key: alarm.state() for key, alarm in sorted(bare_sprt.items())
    }

    # ...and enabling live instrumentation changes no monitored state.
    enabled = StreamMonitor(
        parameters,
        PAPER_FIELD_PROFILE,
        alpha=ALPHA,
        check_every=CHECK_EVERY,
        obs=Instrumentation(name="bench"),
    )
    enabled.ingest(records)
    assert enabled.estimator.state() == bare_estimator.state()
    assert enabled.snapshot()["alarms"] == snapshot["alarms"]

    ratio = bare_elapsed / monitored_elapsed
    overhead_pct = (monitored_elapsed / bare_elapsed - 1.0) * 100.0
    print(
        f"bare plane: {bare_elapsed * 1e3:.0f} ms  "
        f"monitor (obs off): {monitored_elapsed * 1e3:.0f} ms  "
        f"throughput ratio: {ratio:.3f} (overhead {overhead_pct:+.1f}%, "
        f"best of {REPEATS})"
    )
    return ratio, overhead_pct
