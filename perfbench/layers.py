"""Which public functions each layer is timed around, and its metrics.

``WRAPS`` is the one list of wrapped public functions: the span each is
recorded under, how its work units are counted, and which processes
install it.  ``TIMED``, ``DERIVED`` and ``COUNTED`` are the per-layer
half of ``BENCHMARK.json``: every metric a traced run reports, its unit,
and the end-to-end metric and workload it should move.
:func:`metric_specs` renders them as ``BENCHMARK.json`` entries, and the
tests keep the two in step.  A layer a workload never calls reports 0
with 0 calls per op.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, NamedTuple

from tracing import LayerTotals, Tracer, Units

#: Which processes install a wrapper: the study/sweep worker, the service
#: process, or both.
ENGINE, SERVER, BOTH = "engine", "server", "both"


def _arg(name: str) -> Callable[[Callable], Units]:
    """Units: the value of argument ``name``, defaults applied."""

    def for_function(fn: Callable) -> Units:
        signature = inspect.signature(fn)

        def units(args: tuple, kwargs: dict, result: Any) -> int:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return int(bound.arguments[name])

        return units

    return for_function


def _len_arg(index: int) -> Callable[[Callable], Units]:
    """Units: the length of positional argument ``index``."""
    return lambda fn: lambda args, kwargs, result: len(args[index])


def _num_cases(fn: Callable) -> Units:
    return lambda args, kwargs, result: args[0].num_cases


def _fused_items(fn: Callable) -> Units:
    return lambda args, kwargs, result: len(args[0][5])


class Wrap(NamedTuple):
    """One wrapped public function (``owner`` ``None``: module level)."""

    module: str
    owner: str | None
    attr: str
    span: str
    units: Callable[[Callable], Units] | None = None
    where: str = BOTH
    #: The call is the first a service request makes into the program.
    mint: bool = False


#: Kernels that run in the service's pool workers are engine-only: the
#: pool pickles them by name, so the server leaves them unwrapped.
WRAPS = [
    Wrap("repro.sweep.grid", "WorkloadSpec", "build", "screening.build", _num_cases),
    Wrap("repro.screening.workload", "Workload", "to_arrays", "screening.to_arrays"),
    Wrap("repro.engine.executor", None, "cancer_class_labels", "screening.classify",
         where=ENGINE),
    Wrap("repro.engine.fused", None, "cancer_class_codes", "screening.classify"),
    Wrap("repro.system", "UnaidedReading", "decide_batch", "system.batch", _len_arg(1), ENGINE),
    Wrap("repro.system", "AssistedReading", "decide_batch", "system.batch", _len_arg(1), ENGINE),
    Wrap("repro.system", "UnaidedReading", "advance_stream", "system.stream", _len_arg(1),
         ENGINE),
    Wrap("repro.system", "AssistedReading", "advance_stream", "system.stream", _len_arg(1),
         ENGINE),
    Wrap("repro.system.simulate", None, "evaluate_system", "system.scalar", _len_arg(1),
         ENGINE),
    Wrap("repro.system", "FailureTally", "record_batch", "engine.tally", where=ENGINE),
    Wrap("repro.core", "ExtrapolationStudy", "credible_intervals", "engine.posterior",
         _arg("num_draws"), ENGINE),
    Wrap("repro.core", "UncertainModel", "failure_probability_interval", "engine.posterior",
         _arg("num_samples")),
    Wrap("repro.engine.fused", None, "run_fused_batch", "engine.fused", _fused_items, ENGINE),
    Wrap("repro.engine.fused", None, "count_failures", "engine.count_failures", where=ENGINE),
    Wrap("repro.sweep.plan", None, "compile_grid", "sweep.compile", where=ENGINE),
    Wrap("repro.sweep.grid", "SystemSpec", "build", "sweep.system_build"),
    Wrap("repro.trial.storage", None, "append_journal_entries", "trial.journal_write",
         where=ENGINE),
    *(Wrap("repro.service.protocol", None, f"parse_{kind}_request", "service.parse",
           where=SERVER, mint=True)
      for kind in ("evaluate", "compare", "uncertainty", "ingest")),
    Wrap("repro.trial.storage", None, "record_from_entry", "trial.record_decode", where=SERVER),
    *(Wrap("repro.service.protocol", None, payload, "service.serialise", where=SERVER)
      for payload in ("evaluation_payload", "interval_payload", "monitoring_report_payload")),
    *(Wrap("repro.service", "ScreeningService", kind, f"service.handle.{kind}", where=SERVER)
      for kind in ("evaluate", "compare", "uncertainty", "ingest")),
    Wrap("repro.service", "ScreeningService", "monitor_payload", "service.handle.monitor",
         where=SERVER, mint=True),
    Wrap("repro.analysis.streaming", "StreamMonitor", "ingest", "streaming.ingest",
         _len_arg(1), SERVER),
    Wrap("repro.analysis.streaming", "StreamMonitor", "snapshot", "streaming.report",
         where=SERVER),
    Wrap("repro.analysis.streaming", "StreamMonitor", "report", "streaming.report",
         where=SERVER),
    Wrap("repro.service", "WorkloadCache", "get", "service.cache_get", where=SERVER),
    Wrap("repro.engine", "EngineRuntime", "map", "engine.map", where=SERVER),
    Wrap("repro.engine", "EngineRuntime", "publish_workload", "engine.publish", where=SERVER),
]


def install(tracer: Tracer, where: str) -> None:
    """Wrap every entry of :data:`WRAPS` that ``where`` installs."""
    for wrap in WRAPS:
        if wrap.where not in (where, BOTH):
            continue
        module = importlib.import_module(wrap.module)
        owner = module if wrap.owner is None else getattr(module, wrap.owner)
        fn = getattr(module, wrap.attr) if wrap.owner is None else vars(owner)[wrap.attr]
        extra = {} if wrap.units is None else {"units": wrap.units(fn)}
        if wrap.owner is None:
            tracer.patch_function(fn, wrap.span, mint=wrap.mint, **extra)
        else:
            tracer.patch_method(owner, wrap.attr, wrap.span, mint=wrap.mint, **extra)


#: (metric, unit, span name, statistic, scale, should move).
#: Statistics: ``per_unit`` = inclusive seconds per work unit, ``per_call``
#: = inclusive seconds per call; the scale turns seconds into the unit.
#: Every timed metric is a cost, so lower is better.  What each span is
#: timed around is in :data:`WRAPS`.
TIMED = [
    ("screening.build_us_per_case", "us", "screening.build", "per_unit", 1e6,
     "throughput_per_s on sweep (~40%); setup_s on study and service"),
    ("screening.to_arrays_ms", "ms", "screening.to_arrays", "per_call", 1e3,
     "throughput_per_s on study"),
    ("screening.classify_ms", "ms", "screening.classify", "per_call", 1e3,
     "throughput_per_s on study"),
    ("system.batch_us_per_case", "us", "system.batch", "per_unit", 1e6,
     "throughput_per_s on study and sweep"),
    ("system.stream_us_per_case", "us", "system.stream", "per_unit", 1e6,
     "throughput_per_s on study"),
    ("system.scalar_us_per_case", "us", "system.scalar", "per_unit", 1e6,
     "throughput_per_s on study"),
    ("engine.tally_ms", "ms", "engine.tally", "per_call", 1e3,
     "throughput_per_s on study"),
    ("engine.posterior_us_per_draw", "us", "engine.posterior", "per_unit", 1e6,
     "throughput_per_s on study; p99_ms on service"),
    ("engine.fused_us_per_item", "us", "engine.fused", "per_unit", 1e6,
     "throughput_per_s on sweep"),
    ("engine.count_failures_us_per_item", "us", "engine.count_failures", "per_call", 1e6,
     "throughput_per_s on sweep"),
    ("sweep.compile_ms", "ms", "sweep.compile", "per_call", 1e3,
     "throughput_per_s on sweep"),
    ("sweep.system_build_us_per_cell", "us", "sweep.system_build", "per_call", 1e6,
     "throughput_per_s on sweep"),
    ("trial.journal_write_ms_per_shard", "ms", "trial.journal_write", "per_call", 1e3,
     "throughput_per_s on sweep (~1%: predict no change)"),
    ("trial.record_decode_us_per_record", "us", "trial.record_decode", "per_call", 1e6,
     "p99_ms on service"),
    ("streaming.ingest_us_per_record", "us", "streaming.ingest", "per_unit", 1e6,
     "p99_ms on service"),
    ("streaming.report_ms", "ms", "streaming.report", "per_call", 1e3,
     "p99_ms on service"),
    ("service.parse_us", "us", "service.parse", "per_call", 1e6,
     "p50_ms on service"),
    ("service.serialise_us", "us", "service.serialise", "per_call", 1e6,
     "p50_ms on service"),
    ("engine.map_ms", "ms", "engine.map", "per_call", 1e3,
     "throughput_per_s and p50_ms on service"),
    ("engine.publish_us", "us", "engine.publish", "per_call", 1e6,
     "throughput_per_s and p50_ms on service"),
]

#: Metrics computed from more than one span, or outside spans.
DERIVED = [
    ("import.repro_s", "s", "lower", "import repro in a fresh interpreter",
     "setup_s on all workloads"),
    ("trial.journal_bytes", "bytes", "lower", "journal size after one run_sweep",
     "throughput_per_s on sweep (predict no change)"),
    ("service.batch_wait_ms", "ms", "lower",
     "MicroBatcher.submit until resolved, minus the dispatch", "p50_ms on service"),
    ("service.batch_size", "count", "higher", "items per dispatch",
     "p50_ms and throughput_per_s on service"),
    ("service.cache_hit_ratio", "ratio", "higher", "WorkloadCache.get without a build",
     "p99_ms on service"),
    ("service.engine_busy_share", "ratio", "lower",
     "engine-thread time in EngineRuntime.map or the posterior call / wall",
     "throughput_per_s on service"),
    ("loadgen.cpu_share", "ratio", "lower", "load-generator CPU / wall",
     "none; must stay well below 1"),
    ("trace.overhead_pct", "%", "lower", "untraced vs traced throughput", "none"),
    ("trace.coverage_share", "ratio", "higher", "op wall time covered by spans", "none"),
]

#: Span names whose calls per op are reported (``<span>.calls_per_op``).
COUNTED = [
    "screening.build", "screening.to_arrays", "screening.classify",
    "system.batch", "system.stream", "system.scalar", "engine.tally",
    "engine.posterior", "engine.fused", "engine.count_failures",
    "sweep.compile", "sweep.system_build", "trial.journal_write",
    "trial.record_decode", "streaming.ingest", "streaming.report",
    "service.parse", "service.serialise", "service.dispatch",
    "service.cache_get", "engine.map", "engine.publish",
]


def metric_specs() -> list[dict[str, str]]:
    """Every per-layer metric as a ``BENCHMARK.json`` entry."""
    specs = [{"name": m, "unit": u, "better": "lower"} for m, u, *_ in TIMED]
    specs += [{"name": m, "unit": u, "better": b} for m, u, b, *_ in DERIVED]
    specs += [
        {"name": f"{span}.calls_per_op", "unit": "count", "better": "lower"}
        for span in COUNTED
    ]
    return specs


def timed_metrics(
    totals: dict[str, LayerTotals],
    op_totals: dict[str, LayerTotals],
    traced_ops: int,
    slowdown: float = 1.0,
) -> dict[str, float]:
    """The span-derived metrics.

    Costs come from every traced call (``totals``, set-up included, so a
    layer that only runs in set-up still has a cost), divided by the
    run's median ``slowdown`` (:mod:`speed`); calls per op count only the
    calls made inside traced ops (``op_totals``).
    """
    values: dict[str, float] = {}
    for metric, _unit, span, statistic, scale, *_ in TIMED:
        row = totals.get(span)
        base = 0 if row is None else (row.units if statistic == "per_unit" else row.calls)
        values[metric] = row.seconds / base * scale / slowdown if base else 0.0
    for span in COUNTED:
        row = op_totals.get(span)
        values[f"{span}.calls_per_op"] = (
            row.calls / traced_ops if row is not None and traced_ops else 0.0
        )
    return values
