"""One run of an in-process workload (``study`` or ``sweep``).

Started by ``run.py`` in a fresh interpreter.  It imports the package,
builds the workload's inputs, prints ``ready`` (the end of set-up), runs
ops in a closed loop for the given seconds, checks every op's outputs
against the oracles outside the timed phase, and prints one JSON line.

The machine-speed reference (:mod:`speed`) runs before the first op and
after every op; each op's latency is normalised by the references on
either side of it.

With ``--trace 1`` the set-up and every other op run with the layer
wrappers of :mod:`layers` installed; the ops in between run the plain
program, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=["study", "sweep"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import is a set-up layer)

    import_s = time.perf_counter() - start

    import layers
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer, layers.ENGINE)
    journals = OUT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    if args.workload == "study":
        setup = workloads.study_setup(args.seed)
    else:
        setup = workloads.sweep_setup(args.seed)
        journals.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        shutil.rmtree(journals, ignore_errors=True)
        return 0

    ops: list[dict] = []
    journal_bytes: list[int] = []
    refs = [speed.reference_seconds()]
    began = time.perf_counter()
    index = 0
    try:
        while time.perf_counter() - began < args.seconds:
            traced = tracer is not None and index % 2 == 1
            seed = workloads.op_seed(args.seed, index)
            journal = journals / f"op{index}.jsonl"
            if traced:
                layers.install(tracer, layers.ENGINE)
            op = {"index": index, "seed": seed, "traced": traced, "output": None}
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op", request=index):
                        op["units"], op["output"] = run_op(
                            workloads, args.workload, setup, seed, journal, tracer.span
                        )
                else:
                    op["units"], op["output"] = run_op(workloads, args.workload, setup, seed, journal)
                op["latency"] = time.perf_counter() - t0
            except Exception:  # an op that raises is a failed op, not a crashed run
                traceback.print_exc()
                op["latency"] = None
            if traced:
                tracer.uninstall()
            if journal.exists():
                journal_bytes.append(journal.stat().st_size)
                journal.unlink()
            refs.append(speed.reference_seconds())
            if op["latency"] is not None:
                op["raw_latency"] = op["latency"]
                op["latency"] = speed.normalise_seconds(op["latency"], refs[-2], refs[-1])
            ops.append(op)
            index += 1
        peak_mb = peak_rss_mb()
        problems: list[str] = []
        for op in ops:
            if op["output"] is None:
                continue
            if args.workload == "study":
                found = workloads.study_check(setup, op["seed"], op["output"])
            else:
                found = workloads.sweep_check(setup, op["seed"], op["output"])
            if found:
                op["latency"] = None
                problems.extend(found)
        if args.workload == "study":
            found = workloads.study_scalar_oracle(setup, workloads.op_seed(args.seed, 0))
            if found:
                ops[0]["latency"] = None
                problems.extend(found)
    finally:
        shutil.rmtree(journals, ignore_errors=True)

    result = {
        "attempted": len(ops),
        "failed": sum(op["latency"] is None for op in ops),
        "problems": problems[:20],
        "refs": refs,
        "latencies_s": [op["latency"] for op in ops if not op["traced"]],
        "rates": [op["units"] / op["latency"] for op in ops
                  if op["latency"] and not op["traced"]],
        "raw_rates": [op["units"] / op["raw_latency"] for op in ops
                      if op["latency"] and not op["traced"]],
        "traced_rates": [op["units"] / op["latency"] for op in ops
                         if op["latency"] and op["traced"]],
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer, ops, refs, import_s, journal_bytes, result)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed)
    print(json.dumps(result), flush=True)
    return 0


def run_op(workloads, workload: str, setup, seed: int, journal: Path, part=None):
    """One op; ``part`` (a traced run's span factory) marks the study's parts."""
    if workload == "study":
        return workloads.study_op(setup, seed, part or contextlib.nullcontext)
    return workloads.sweep_op(setup, seed, journal)


def traced_layers(tracer, ops, refs, import_s, journal_bytes, result) -> dict[str, float]:
    """Per-layer metrics of a traced run, and the span table on stderr."""
    import statistics

    import layers
    import speed
    import tracing
    import workloads

    spans = tracer.spans
    traced_ops = sum(1 for op in ops if op["traced"] and op["latency"])
    in_ops = [span for span in spans if span.request is not None and span.name != "op"]
    totals = tracing.layer_totals(spans)
    slowdown = statistics.median([speed.slowdown(a, b) for a, b in zip(refs, refs[1:])])
    values = layers.timed_metrics(totals, tracing.layer_totals(in_ops), traced_ops, slowdown)
    plain, traced = result["rates"], result["traced_rates"]
    overhead = (
        100.0 * (statistics.median(plain) - statistics.median(traced)) / statistics.median(plain)
        if plain and traced else 0.0
    )
    values.update({
        "import.repro_s": import_s / slowdown,
        "trial.journal_bytes": (sum(journal_bytes) / len(journal_bytes)
                                if journal_bytes else 0.0),
        "service.batch_wait_ms": 0.0,
        "service.batch_size": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.engine_busy_share": 0.0,
        "loadgen.cpu_share": 0.0,
        "trace.overhead_pct": overhead,
        "trace.coverage_share": tracing.coverage_share(spans, "op", workloads.STUDY_PARTS),
    })
    op_wall = sum(span.duration for span in spans if span.name == "op")
    in_op_table = tracing.layer_totals([span for span in spans if span.request is not None])
    print(tracing.render_table(in_op_table, op_wall), file=sys.stderr)
    parts = [(name, in_op_table[name]) for name in workloads.STUDY_PARTS if name in in_op_table]
    if parts:
        print("study parts, share of traced op wall time: " + ", ".join(
            f"{name} {100.0 * row.seconds / op_wall:.1f}%" for name, row in parts
        ), file=sys.stderr)
    return values


if __name__ == "__main__":
    sys.exit(main())
