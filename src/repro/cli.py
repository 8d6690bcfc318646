"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``    — regenerate the paper's Tables 1-3 (optionally from a
  saved model file).
* ``figure4``   — print Figure 4's per-class line series.
* ``decompose`` — print equation (10)'s covariance decomposition.
* ``trial``     — run a simulated controlled trial, print the estimated
  parameter table, and optionally save it as a model JSON file.
* ``predict``   — load a model file and evaluate the system failure
  probability under one of its stored profiles.
* ``design``    — feasibility report for a planned trial against a saved
  (anticipated) model file.
* ``simulate``  — evaluate screening systems over a synthetic workload,
  on the vectorized batch engine (``--engine batch``, the default) or
  the per-case scalar loop (``--engine scalar``).
* ``uncertainty`` — credible interval for the system failure
  probability under parameter-estimation uncertainty, propagated on the
  vectorized posterior kernel.
* ``sweep``     — compile a scenario-grid JSON file into fused engine
  dispatches and execute it, with journalled checkpoints (``--journal``)
  and exact resume (``--resume``).
* ``monitor``   — drift monitoring of field records against a reference
  model: batch over a CSV by default, ``--follow`` to tail the file
  live through the streaming monitor (sequential CUSUM/SPRT alarms),
  ``--from-journal`` to read a JSONL record journal instead of a CSV
  (see ``docs/monitoring.md``).
* ``serve``     — run the always-on HTTP evaluation service: one
  persistent engine runtime behind a request-coalescing micro-batcher
  (see ``docs/service.md``).

Every command is a thin shell over the public API; anything printed here
can be computed programmatically with the same names.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from contextlib import contextmanager, nullcontext
from typing import Iterator

from .analysis import build_figure4, build_table1, build_table2, build_table3, render_table
from .core import PAPER_FIELD_PROFILE, PAPER_TRIAL_PROFILE, SequentialModel
from .core.io import dump_model, load_model
from .core.parameters import paper_example_parameters
from .exceptions import ReproError
from .obs import Instrumentation, use_instrumentation

__all__ = ["main", "build_parser"]


def _add_observability_arguments(
    parser: argparse.ArgumentParser, *, short_flag: bool = True
) -> None:
    """The shared ``--profile``/``--trace-out`` observability flags.

    ``uncertainty`` already uses ``--profile`` for the stored demand
    profile name, so there the report flag is spelled
    ``--profile-report`` only; ``simulate`` accepts both spellings.
    """
    names = ["--profile", "--profile-report"] if short_flag else ["--profile-report"]
    parser.add_argument(
        *names,
        dest="profile_report",
        action="store_true",
        help="print a run report (spans, counters, degraded paths) when done",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run report as JSON to PATH",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser, *, workers: int = 1) -> None:
    """The shared ``--workers``/``--chunk-size`` engine flags.

    ``simulate``, ``sweep`` and ``serve`` take both.  Seeded results
    depend only on the seed and the chunk size, never on ``--workers``.
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=workers,
        help="engine processes (1 = in-process; results do not depend on it)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="cases per engine chunk: with the seed, what seeded results "
        "depend on (default: the engine's standard chunk size)",
    )


@contextmanager
def _observability(args: argparse.Namespace, command: str) -> Iterator[None]:
    """Activate ambient instrumentation for one command when requested.

    With neither ``--profile``/``--profile-report`` nor ``--trace-out``
    given, nothing is created and every layer keeps its null
    instrumentation.  Otherwise one :class:`~repro.obs.Instrumentation`
    is made ambient for the command's body, and its
    :class:`~repro.obs.RunReport` is printed and/or written afterwards.
    """
    wants_report = bool(getattr(args, "profile_report", False))
    trace_out = getattr(args, "trace_out", None)
    if not wants_report and not trace_out:
        yield
        return
    obs = Instrumentation(name=command)
    with use_instrumentation(obs):
        yield
    report = obs.report()
    if trace_out:
        report.save(trace_out)
        print(f"run report written to {trace_out}")
    if wants_report:
        print()
        print(report.to_text())


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clear-box reliability modelling of human-machine advisory systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="regenerate the paper's Tables 1-3")
    tables.add_argument(
        "--model", help="model JSON file (default: the paper's example parameters)"
    )
    tables.add_argument(
        "--factor", type=float, default=10.0, help="improvement factor for Table 3"
    )

    figure4 = subparsers.add_parser("figure4", help="print Figure 4's line series")
    figure4.add_argument("--model", help="model JSON file")
    figure4.add_argument("--points", type=int, default=11, help="samples per line")

    decompose = subparsers.add_parser(
        "decompose", help="print equation (10)'s covariance decomposition"
    )
    decompose.add_argument("--model", help="model JSON file")
    decompose.add_argument(
        "--profile",
        default="field",
        help="stored profile name (default 'field'; paper profiles when no --model)",
    )

    trial = subparsers.add_parser("trial", help="run a simulated controlled trial")
    trial.add_argument("--cases", type=int, default=400, help="trial case-set size")
    trial.add_argument("--readers", type=int, default=4, help="panel size")
    trial.add_argument(
        "--cancer-fraction", type=float, default=0.5, help="case-set enrichment"
    )
    trial.add_argument(
        "--enrichment", type=float, default=1.5, help="subtlety selection strength"
    )
    trial.add_argument("--seed", type=int, default=0, help="master seed")
    trial.add_argument("--output", help="write the estimated model JSON here")

    predict = subparsers.add_parser(
        "predict", help="evaluate a saved model under one of its profiles"
    )
    predict.add_argument("model", help="model JSON file")
    predict.add_argument("--profile", default=None, help="stored profile name")

    sensitivity = subparsers.add_parser(
        "sensitivity", help="tornado / sensitivity report for a model"
    )
    sensitivity.add_argument("--model", help="model JSON file")
    sensitivity.add_argument("--profile", default="field", help="stored profile name")
    sensitivity.add_argument(
        "--swing", type=float, default=0.1, help="relative parameter swing (0.1 = ±10%%)"
    )

    design = subparsers.add_parser(
        "design", help="feasibility report for a planned trial"
    )
    design.add_argument("model", help="anticipated model JSON file (with profiles)")
    design.add_argument("--profile", default="trial", help="anticipated trial profile")
    design.add_argument("--cases", type=int, default=400)
    design.add_argument("--readers", type=int, default=4)
    design.add_argument("--cancer-fraction", type=float, default=0.5)
    design.add_argument("--half-width", type=float, default=0.1)

    simulate = subparsers.add_parser(
        "simulate",
        help="evaluate screening systems over a synthetic workload",
    )
    simulate.add_argument(
        "--population",
        default="routine",
        choices=["routine", "young", "symptomatic", "low-correlation"],
        help="population preset generating the workload",
    )
    simulate.add_argument(
        "--system",
        default="both",
        choices=["unaided", "assisted", "both"],
        help="which system configuration(s) to evaluate",
    )
    simulate.add_argument("--cases", type=int, default=10000, help="workload size")
    simulate.add_argument(
        "--cancer-fraction",
        type=float,
        default=0.3,
        help="workload enrichment (trial-style case mix)",
    )
    simulate.add_argument(
        "--engine",
        default="batch",
        choices=["batch", "scalar"],
        help="vectorized batch engine or the per-case scalar loop",
    )
    _add_engine_arguments(simulate)
    simulate.add_argument(
        "--bias",
        default="mild",
        choices=["none", "mild", "strong"],
        help="reader automation-bias profile",
    )
    simulate.add_argument(
        "--dynamics",
        default="none",
        choices=["none", "adaptive", "fatigue"],
        help="temporal reader dynamics: trust adaptation or vigilance "
        "decrement (runs on the engine's ordered stream-carry path)",
    )
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    _add_observability_arguments(simulate)

    uncertainty = subparsers.add_parser(
        "uncertainty",
        help="credible interval for the failure probability under parameter uncertainty",
    )
    uncertainty.add_argument("--model", help="model JSON file")
    uncertainty.add_argument("--profile", default="field", help="stored profile name")
    uncertainty.add_argument(
        "--level", type=float, default=0.95, help="credibility level of the interval"
    )
    uncertainty.add_argument(
        "--draws", type=int, default=10000, help="number of posterior draws"
    )
    uncertainty.add_argument(
        "--trials",
        type=int,
        default=400,
        help="pseudo trial readings per class behind each parameter's Beta posterior",
    )
    uncertainty.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_observability_arguments(uncertainty, short_flag=False)

    sweep = subparsers.add_parser(
        "sweep",
        help="compile a scenario grid and execute it as fused engine dispatches",
    )
    sweep.add_argument(
        "--grid", required=True, metavar="FILE", help="scenario-grid JSON file"
    )
    sweep.add_argument("--seed", type=int, default=0, help="master sweep seed")
    _add_engine_arguments(sweep)
    sweep.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="cells per checkpoint shard (journal granularity)",
    )
    sweep.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint journal (appended after every shard)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in --journal (fingerprint-checked)",
    )
    sweep.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="stop after executing this many shards (partial, resumable run)",
    )
    sweep.add_argument(
        "--level", type=float, default=0.95, help="confidence level of cell intervals"
    )
    sweep.add_argument(
        "--group-by",
        default="population,system",
        help="comma-separated axis columns of the consolidated summary table",
    )
    _add_observability_arguments(sweep)

    monitor = subparsers.add_parser(
        "monitor", help="drift monitoring of field records against a model"
    )
    monitor.add_argument("records", help="field records CSV (see dump_records_csv)")
    monitor.add_argument("model", help="reference model JSON file (with profiles)")
    monitor.add_argument("--profile", default="field", help="reference profile name")
    monitor.add_argument(
        "--alpha", type=float, default=0.01, help="family-wise false-alarm rate"
    )
    monitor.add_argument(
        "--follow",
        action="store_true",
        help="stream RECORDS as it grows: feed appended rows through the "
        "sequential monitor and print checkpoint/alarm updates",
    )
    monitor.add_argument(
        "--from-journal",
        dest="from_journal",
        action="store_true",
        help="RECORDS is a JSONL record journal (one record entry per "
        "line, see record_to_entry) instead of a CSV",
    )
    monitor.add_argument(
        "--check-every",
        type=int,
        default=256,
        help="drift-checkpoint cadence (records) of the streaming monitor",
    )
    monitor.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between --follow polls that found no new rows",
    )
    monitor.add_argument(
        "--max-polls",
        type=int,
        default=None,
        help="stop --follow after this many consecutive empty polls "
        "(default: follow until interrupted)",
    )
    _add_observability_arguments(monitor, short_flag=False)

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on coalescing evaluation service over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8373, help="bind port")
    _add_engine_arguments(serve, workers=2)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="requests per fused dispatch (a full batch fires immediately)",
    )
    serve.add_argument(
        "--shm-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="shared-memory budget for resident workloads (LRU-evicted)",
    )
    serve.add_argument(
        "--max-cached-workloads",
        type=int,
        default=8,
        help="distinct workloads kept built and columnised",
    )
    serve.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        help="per-tenant sustained requests/second (default: unlimited)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=10.0,
        help="per-tenant burst allowance above --quota-rps",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="queued-request bound before 503 backpressure",
    )
    _add_observability_arguments(serve)
    return parser


def _load_parameters(path: str | None):
    if path is None:
        return (
            paper_example_parameters(),
            {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE},
        )
    return load_model(path)


def _profiles_or_default(profiles, name: str):
    if name in profiles:
        return profiles[name]
    available = ", ".join(sorted(profiles)) or "(none)"
    raise ReproError(f"profile {name!r} not found; available: {available}")


def _command_tables(args: argparse.Namespace) -> None:
    parameters, profiles = _load_parameters(args.model)
    trial_profile = profiles.get("trial", PAPER_TRIAL_PROFILE)
    field_profile = profiles.get("field", trial_profile)
    print("Table 1 - demand profiles and model parameters")
    print(build_table1(parameters, trial_profile, field_profile).render())
    print()
    print("Table 2 - probability of system failure")
    print(build_table2(parameters, trial_profile, field_profile).render())
    classes = {cls.name for cls in parameters.classes}
    if {"easy", "difficult"} <= classes:
        print()
        print(f"Table 3 - targeted improvements (x{args.factor:g})")
        print(
            build_table3(
                parameters, trial_profile, field_profile, factor=args.factor
            ).render()
        )


def _command_figure4(args: argparse.Namespace) -> None:
    parameters, _ = _load_parameters(args.model)
    for cls, line in sorted(build_figure4(parameters, num_points=args.points).items()):
        print(
            f"class {cls.name}: intercept={line.intercept:.4f} slope={line.slope:.4f}"
        )
        for x, y in line.series:
            print(f"  PMf={x:.3f} PHf={y:.4f}")


def _command_decompose(args: argparse.Namespace) -> None:
    parameters, profiles = _load_parameters(args.model)
    profile = _profiles_or_default(profiles, args.profile)
    model = SequentialModel(parameters)
    decomposition = model.covariance_decomposition(profile)
    rows = [
        ["E[PHf|Ms] (floor)", f"{decomposition.expected_human_failure_given_machine_success:.6f}"],
        ["PMf (marginal)", f"{decomposition.mean_machine_failure:.6f}"],
        ["E[t] (mean importance)", f"{decomposition.mean_importance:.6f}"],
        ["PMf * E[t]", f"{decomposition.independent_term:.6f}"],
        ["cov_x(PMf, t)", f"{decomposition.covariance:+.6f}"],
        ["PHf (total)", f"{decomposition.total:.6f}"],
    ]
    print(render_table(["term", "value"], rows))


def _command_trial(args: argparse.Namespace) -> None:
    from .cadt import Cadt, DetectionAlgorithm
    from .reader import MILD_BIAS, QualificationLevel, ReaderPanel
    from .screening import PopulationModel, SubtletyClassifier
    from .trial import ControlledTrial

    trial = ControlledTrial(
        population=PopulationModel(seed=args.seed),
        panel=ReaderPanel.sample(
            args.readers,
            QualificationLevel.STANDARD,
            bias=MILD_BIAS,
            seed=args.seed + 1,
        ),
        cadt=Cadt(DetectionAlgorithm(), seed=args.seed + 2),
        classifier=SubtletyClassifier(),
        num_cases=args.cases,
        cancer_fraction=args.cancer_fraction,
        subtlety_enrichment=args.enrichment,
        on_empty_cell="pool",
        seed=args.seed + 3,
    )
    outcome = trial.run()
    estimation = outcome.estimation
    rows = []
    for cls in estimation.classes:
        estimate = estimation[cls]
        rows.append(
            [
                cls.name,
                f"{estimation.profile[cls]:.3f}",
                f"{estimate.machine_failure.point:.3f}",
                f"{estimate.human_failure_given_machine_failure.point:.3f}",
                f"{estimate.human_failure_given_machine_success.point:.3f}",
            ]
        )
    print(render_table(["class", "p(x)", "PMf", "PHf|Mf", "PHf|Ms"], rows))
    observed = outcome.aided_records.cancers().failure_rate()
    print(f"observed aided cancer FN rate: {observed:.4f}")
    if args.output:
        dump_model(
            args.output,
            estimation.to_model_parameters(),
            {"trial": estimation.profile},
        )
        print(f"model written to {args.output}")


def _command_predict(args: argparse.Namespace) -> None:
    parameters, profiles = load_model(args.model)
    model = SequentialModel(parameters)
    if args.profile is None and len(profiles) == 1:
        name = next(iter(profiles))
    elif args.profile is None:
        raise ReproError(
            f"--profile required; available: {', '.join(sorted(profiles)) or '(none)'}"
        )
    else:
        name = args.profile
    profile = _profiles_or_default(profiles, name)
    probability = model.system_failure_probability(profile)
    floor = model.machine_improvement_floor(profile)
    print(f"profile {name!r}: P(system failure) = {probability:.6f}")
    print(f"machine-improvement floor: {floor:.6f}")


def _command_sensitivity(args: argparse.Namespace) -> None:
    from .analysis import tornado

    parameters, profiles = _load_parameters(args.model)
    profile = _profiles_or_default(profiles, args.profile)
    bars = tornado(SequentialModel(parameters), profile, relative_change=args.swing)
    rows = [
        [
            bar.case_class.name,
            bar.parameter,
            f"{bar.low:.4f}",
            f"{bar.baseline:.4f}",
            f"{bar.high:.4f}",
            f"{bar.swing:.4f}",
        ]
        for bar in bars
    ]
    print(render_table(["class", "parameter", "low", "baseline", "high", "swing"], rows))


def _command_design(args: argparse.Namespace) -> None:
    from .trial.design import TrialDesign

    parameters, profiles = load_model(args.model)
    profile = _profiles_or_default(profiles, args.profile)
    trial_design = TrialDesign(
        num_cases=args.cases,
        num_readers=args.readers,
        cancer_fraction=args.cancer_fraction,
        half_width=args.half_width,
    )
    report = trial_design.feasibility(parameters, profile)
    rows = [
        [
            cell.case_class.name,
            cell.cell,
            f"{cell.expected_readings:.1f}",
            str(cell.required_readings),
            "ok" if cell.feasible else "THIN",
        ]
        for cell in report.cells
    ]
    print(render_table(["class", "cell", "expected", "required", "status"], rows))
    if report.is_feasible:
        print("design is feasible at the requested precision")
    else:
        scaled = trial_design.scaled_to_feasibility(parameters, profile)
        print(
            f"design is NOT feasible; smallest feasible case-set size: "
            f"{scaled.num_cases} (x{scaled.num_cases / trial_design.num_cases:.1f})"
        )


def _command_simulate(args: argparse.Namespace) -> None:
    import time

    from .cadt import Cadt, DetectionAlgorithm
    from .engine import DEFAULT_CHUNK_SIZE, EngineRuntime
    from .reader import (
        MILD_BIAS,
        NO_BIAS,
        STRONG_BIAS,
        AdaptiveReader,
        FatiguedReader,
        ReaderModel,
        ReaderSkill,
    )
    from .screening import (
        SubtletyClassifier,
        low_correlation_population,
        routine_screening_population,
        symptomatic_clinic_population,
        trial_workload,
        young_cohort_population,
    )
    from .system import AssistedReading, UnaidedReading, evaluate_system

    populations = {
        "routine": routine_screening_population,
        "young": young_cohort_population,
        "symptomatic": symptomatic_clinic_population,
        "low-correlation": low_correlation_population,
    }
    biases = {"none": NO_BIAS, "mild": MILD_BIAS, "strong": STRONG_BIAS}

    workload = trial_workload(
        populations[args.population](seed=args.seed),
        args.cases,
        cancer_fraction=args.cancer_fraction,
        name=args.population,
    )
    reader = ReaderModel(
        skill=ReaderSkill(), bias=biases[args.bias], name="reader", seed=args.seed + 1
    )

    def wrap_reader(offset: int):
        # Temporal wrappers are stateful, so each system gets its own
        # instance (sharing one would entangle the systems' trajectories).
        if args.dynamics == "adaptive":
            return AdaptiveReader(reader, seed=args.seed + offset)
        if args.dynamics == "fatigue":
            return FatiguedReader(reader, seed=args.seed + offset)
        return reader

    systems = []
    if args.system in ("unaided", "both"):
        systems.append(UnaidedReading(wrap_reader(10)))
    if args.system in ("assisted", "both"):
        systems.append(
            AssistedReading(
                wrap_reader(11), Cadt(DetectionAlgorithm(), seed=args.seed + 2)
            )
        )

    classifier = SubtletyClassifier()
    chunk_size = args.chunk_size if args.chunk_size is not None else DEFAULT_CHUNK_SIZE
    with _observability(args, "simulate"):
        # One runtime serves every system of a batch run, at any
        # --workers: the seeded results depend only on the seed and the
        # chunk size, and are identical with instrumentation on or off.
        rows = []
        engine = EngineRuntime(workers=args.workers) if args.engine == "batch" else nullcontext()
        with engine as runtime:
            for system in systems:
                start = time.perf_counter()
                if runtime is not None:
                    evaluation = runtime.evaluate(
                        system, workload, classifier, seed=args.seed + 3, chunk_size=chunk_size
                    )
                else:
                    evaluation = evaluate_system(
                        system, workload, classifier, seed=args.seed + 3
                    )
                elapsed = time.perf_counter() - start
                fn = evaluation.false_negative
                fp = evaluation.false_positive
                rows.append(
                    [
                        system.name,
                        f"{fn.rate:.4f} ({fn.failures}/{fn.trials})" if fn else "-",
                        f"{fp.rate:.4f} ({fp.failures}/{fp.trials})" if fp else "-",
                        f"{len(workload) / elapsed:,.0f}",
                    ]
                )
        print(
            f"workload: {args.population}, {len(workload)} cases "
            f"({workload.cancer_fraction:.1%} cancers); engine: {args.engine}"
        )
        print(render_table(["system", "FN rate", "FP rate", "cases/s"], rows))


def _command_uncertainty(args: argparse.Namespace) -> None:
    import time

    from .core import UncertainModel

    if args.trials < 1:
        raise ReproError(f"--trials must be at least 1, got {args.trials}")
    parameters, profiles = _load_parameters(args.model)
    profile = _profiles_or_default(profiles, args.profile)
    uncertain = UncertainModel.from_trial_counts(parameters, args.trials)
    with _observability(args, "uncertainty"):
        start = time.perf_counter()
        interval = uncertain.failure_probability_interval(
            profile, level=args.level, num_samples=args.draws, seed=args.seed
        )
        elapsed = time.perf_counter() - start
        print(
            f"profile {args.profile!r}: {args.level:.0%} credible interval for "
            f"P(system failure), {args.draws} posterior draws "
            f"(~{args.trials} readings per class and parameter):"
        )
        print(
            f"  [{interval.lower:.6f}, {interval.upper:.6f}]  "
            f"mean {interval.mean:.6f}"
        )
        print(
            f"  {args.draws / elapsed:,.0f} draws/s on the vectorized posterior kernel"
        )


def _command_sweep(args: argparse.Namespace) -> None:
    import time

    from .analysis import render_sweep_summary
    from .engine import DEFAULT_CHUNK_SIZE
    from .screening import SubtletyClassifier
    from .sweep import DEFAULT_SHARD_SIZE, ScenarioGrid, compile_grid, run_sweep

    grid = ScenarioGrid.from_file(args.grid)
    chunk_size = args.chunk_size if args.chunk_size is not None else DEFAULT_CHUNK_SIZE
    shard_size = args.shard_size if args.shard_size is not None else DEFAULT_SHARD_SIZE
    group_by = tuple(
        column.strip() for column in args.group_by.split(",") if column.strip()
    )
    with _observability(args, "sweep"):
        plan = compile_grid(
            grid, seed=args.seed, chunk_size=chunk_size, shard_size=shard_size
        )
        print(
            f"grid {grid.name!r}: {len(plan)} cells, "
            f"{len(plan.workloads)} distinct workloads, "
            f"{len(plan.shards)} shards, {plan.fused_dispatches} fused dispatches"
        )
        start = time.perf_counter()
        result = run_sweep(
            grid,
            seed=args.seed,
            classifier=SubtletyClassifier(),
            level=args.level,
            workers=args.workers,
            chunk_size=chunk_size,
            shard_size=shard_size,
            journal=args.journal,
            resume=args.resume,
            max_shards=args.max_shards,
        )
        elapsed = time.perf_counter() - start
        print(render_sweep_summary(result.rows(), group_by))
        status = "complete" if result.complete else "partial"
        print(
            f"{status}: {result.executed} cells executed, "
            f"{result.skipped} restored from journal, "
            f"{result.executed / elapsed:,.1f} cells/s"
        )
        if not result.complete and args.journal:
            print(f"resume with: repro sweep --grid {args.grid} --seed {args.seed} "
                  f"--journal {args.journal} --resume")


def _print_monitoring_report(report) -> None:
    from .analysis import render_monitoring

    print(render_monitoring(report))
    if report.any_drift:
        fired = ", ".join(t.name for t in report.drifted_tests)
        print(f"DRIFT DETECTED: {fired}")
    else:
        print("no drift detected")


def _monitor_follow(args: argparse.Namespace, parameters, profile) -> None:
    """The ``monitor --follow`` loop: tail the records, stream, alarm."""
    from .analysis.streaming import StreamMonitor
    from .exceptions import EstimationError
    from .obs import get_instrumentation
    from .trial import follow_journal_records, follow_records_csv

    monitor = StreamMonitor(
        parameters,
        profile,
        alpha=args.alpha,
        check_every=args.check_every,
        obs=get_instrumentation(),
    )
    follower = follow_journal_records if args.from_journal else follow_records_csv
    batches = follower(
        args.records,
        poll_interval=args.poll_interval,
        max_idle_polls=args.max_polls,
    )
    source = "journal" if args.from_journal else "csv"
    print(
        f"following {args.records} ({source}); checkpoint every "
        f"{args.check_every} records, alpha={args.alpha:g}"
    )
    try:
        for batch in batches:
            monitor.ingest(batch)
            snapshot = monitor.snapshot()
            print(
                f"+{len(batch)} records: {snapshot['records']['used']} used "
                f"of {snapshot['records']['seen']} seen, "
                f"{monitor.checkpoints} checkpoints, "
                f"{monitor.tripped_alarms} alarms tripped "
                f"({monitor.fired_alarms} fired)"
            )
    except KeyboardInterrupt:
        print("interrupted; closing the stream")
    print()
    try:
        _print_monitoring_report(monitor.report())
    except EstimationError as exc:
        print(f"no batch report: {exc}")
    if monitor.tripped_alarms:
        print(f"sequential alarms still tripped: {monitor.tripped_alarms}")


def _command_monitor(args: argparse.Namespace) -> None:
    from .analysis import monitor_records
    from .trial import TrialRecords, load_journal_entries, load_records_csv
    from .trial import record_from_entry

    parameters, profiles = load_model(args.model)
    profile = _profiles_or_default(profiles, args.profile)
    with _observability(args, "monitor"):
        if args.follow:
            _monitor_follow(args, parameters, profile)
            return
        if args.from_journal:
            entries = load_journal_entries(args.records)
            if not entries:
                raise ReproError(f"no record entries in journal {args.records}")
            records = TrialRecords(
                record_from_entry(entry) for entry in entries
            )
        else:
            records = load_records_csv(args.records)
        report = monitor_records(records, parameters, profile, alpha=args.alpha)
        _print_monitoring_report(report)


def _command_serve(args: argparse.Namespace) -> None:
    import asyncio

    from .engine.executor import DEFAULT_CHUNK_SIZE
    from .obs import get_instrumentation
    from .service import ScreeningService, ServiceConfig, serve

    config = ServiceConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        chunk_size=(
            args.chunk_size if args.chunk_size is not None else DEFAULT_CHUNK_SIZE
        ),
        max_cached_workloads=args.max_cached_workloads,
        shm_byte_budget=args.shm_budget,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        max_queue_depth=args.max_queue_depth,
    )
    with _observability(args, "serve"):
        service = ScreeningService(config, obs=get_instrumentation())
        print(
            f"serving on http://{args.host}:{args.port} "
            f"(workers={config.workers}, max-batch={config.max_batch}); "
            "Ctrl-C drains and exits"
        )
        try:
            asyncio.run(serve(service, args.host, args.port))
        except KeyboardInterrupt:
            print("interrupted; drained in-flight requests")


_COMMANDS = {
    "tables": _command_tables,
    "figure4": _command_figure4,
    "decompose": _command_decompose,
    "trial": _command_trial,
    "predict": _command_predict,
    "sensitivity": _command_sensitivity,
    "design": _command_design,
    "simulate": _command_simulate,
    "uncertainty": _command_uncertainty,
    "sweep": _command_sweep,
    "monitor": _command_monitor,
    "serve": _command_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0
