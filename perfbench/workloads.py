"""The in-process workloads, ``study`` and ``sweep``: setup, one op, oracles.

Both run single-process (``workers=1``, the default of ``simulate`` and
``sweep``), closed loop with one caller.  Every op draws a fresh seed
from the run seed; its outputs are kept and checked against the repo's
own oracles after the timed phase.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import (
    PAPER_FIELD_PROFILE,
    PAPER_TRIAL_PROFILE,
    BetaPosterior,
    ExtrapolationStudy,
    UncertainClassParameters,
    UncertainModel,
    paper_example_parameters,
    paper_improvement_scenarios,
)
from repro.engine import DEFAULT_CHUNK_SIZE, EngineRuntime, compare_systems_batch
from repro.engine.executor import evaluate_system_batch
from repro.exceptions import RuntimeDegradationWarning
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.cadt import Cadt, DetectionAlgorithm
from repro.screening import SubtletyClassifier
from repro.screening.workload import Workload
from repro.sweep import ScenarioGrid, compile_grid, reproduce_cell, run_sweep
from repro.sweep.grid import SystemSpec, WorkloadSpec
from repro.system import (
    AssistedDoubleReading,
    DoubleReading,
    RecallPolicy,
    evaluate_system,
)

#: Study case sets.  The field-size set spans several 16,384-case chunks
#: (and ends in a partial one) so the stream carry and multi-chunk
#: tallies run; it has ``simulate``'s default case mix (30% cancers), so
#: the per-class tally does real work.  The trial set is small because
#: two of the Section 7 systems take the scalar fallback at ~60-120
#: us/case.
STUDY_FIELD_CASES = 50_000
STUDY_CANCER_FRACTION = 0.3
STUDY_TRIAL_CASES = 500
STUDY_DRAWS = 40_000
#: Cases of the field-set slice checked against the scalar loop.
SCALAR_SLICE = 2_000

#: Sweep grid: 4 workloads x (6 unaided + 18 assisted) systems x 4
#: replicates = 384 cells over 2,000-case workloads.
SWEEP_REPLICATES = 4
SWEEP_CASES = 2_000
#: Cells per sweep checked against ``reproduce_cell``.
SWEEP_SAMPLE = 4


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` in a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def counts(evaluation: Any) -> tuple:
    """The integer content of a ``SystemEvaluation`` (what must be exact)."""

    def rate(estimate: Any) -> tuple[int, int] | None:
        return None if estimate is None else (estimate.failures, estimate.trials)

    return (
        rate(evaluation.false_negative),
        rate(evaluation.false_positive),
        tuple(
            sorted(
                (case_class.name, est.failures, est.trials)
                for case_class, est in evaluation.per_class_false_negative.items()
            )
        ),
    )


def uncertain_model(trials: int = 1000) -> UncertainModel:
    """Posterior over the paper's Table 1 parameters from ``trials`` readings."""
    return UncertainModel(
        {
            cls: UncertainClassParameters(
                *(
                    BetaPosterior.from_counts(round(getattr(params, name) * trials), trials)
                    for name in (
                        "p_machine_failure",
                        "p_human_failure_given_machine_failure",
                        "p_human_failure_given_machine_success",
                    )
                )
            )
            for cls, params in paper_example_parameters().items()
        }
    )


# -- study --------------------------------------------------------------


@dataclass
class StudySetup:
    field: Workload
    trial: Workload
    classifier: SubtletyClassifier
    uncertain: UncertainModel
    study: ExtrapolationStudy


def study_setup(seed: int) -> StudySetup:
    """Build and columnise both case sets (the ``simulate`` set-up work)."""
    field = WorkloadSpec(
        "routine", "trial", num_cases=STUDY_FIELD_CASES,
        cancer_fraction=STUDY_CANCER_FRACTION, population_seed=seed,
    ).build()
    trial = WorkloadSpec(
        "routine", "trial", num_cases=STUDY_TRIAL_CASES, population_seed=seed
    ).build()
    classifier = SubtletyClassifier()
    for workload in (field, trial):
        arrays = workload.to_arrays()
        classifier.classify_batch(arrays)
    profiles = {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE}
    return StudySetup(
        field=field,
        trial=trial,
        classifier=classifier,
        uncertain=uncertain_model(),
        study=ExtrapolationStudy(
            paper_example_parameters(), profiles, paper_improvement_scenarios()
        ),
    )


def section5_panel(seed: int) -> list:
    """Unaided, assisted/mild, assisted/strong at +0.2, assisted/mild + fatigue."""
    return [
        SystemSpec("unaided", "mild").build(seed),
        SystemSpec("assisted", "mild").build(seed),
        SystemSpec("assisted", "strong", operating_point=0.2).build(seed),
        SystemSpec("assisted", "mild", "fatigue").build(seed),
    ]


def section7_panel(seed: int) -> list:
    """Adaptive-trust assisted reading and the two double-reading systems."""

    def reader(k: int) -> ReaderModel:
        return ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name=f"reader{k}", seed=seed + k)

    return [
        SystemSpec("assisted", "mild", "adaptive").build(seed),
        DoubleReading(
            [reader(1), reader(2)], RecallPolicy.ARBITRATION, arbiter=reader(3),
            name="double/arbitration",
        ),
        AssistedDoubleReading(
            [reader(4), reader(5)], Cadt(DetectionAlgorithm(), seed=seed + 6),
            RecallPolicy.ARBITRATION, arbiter=reader(7), name="assisted_double/arbitration",
        ),
    ]


STUDY_EVALUATIONS = 4 * STUDY_FIELD_CASES + 3 * STUDY_TRIAL_CASES
#: The three parts of a study op, as a traced run names their spans.
STUDY_PARTS = ("study.section5", "study.section7", "study.posterior")


def study_op(
    setup: StudySetup, seed: int, part: Callable[[str], Any] = contextlib.nullcontext
) -> tuple[int, dict]:
    """One op: the Section 5 and Section 7 panels plus the posterior study.

    ``part(name)`` is entered around each of the three parts (a traced
    run records a span there).  Returns ``(system x case evaluations,
    outputs)``.
    """
    section5, section7, posterior = STUDY_PARTS
    with part(section5):
        field = compare_systems_batch(
            section5_panel(seed), setup.field, setup.classifier,
            seed=seed, chunk_size=DEFAULT_CHUNK_SIZE,
        )
    with part(section7):
        trial = compare_systems_batch(
            section7_panel(seed), setup.trial, setup.classifier,
            seed=seed, chunk_size=DEFAULT_CHUNK_SIZE,
        )
    with part(posterior):
        intervals = setup.study.credible_intervals(
            setup.uncertain, num_draws=STUDY_DRAWS, seed=seed
        )
    return STUDY_EVALUATIONS, {
        "field": {name: counts(ev) for name, ev in field.items()},
        "trial": {name: counts(ev) for name, ev in trial.items()},
        "intervals": {
            key: (iv.lower, iv.upper, iv.mean) for key, iv in intervals.items()
        },
    }


def study_check(setup: StudySetup, seed: int, output: dict) -> list[str]:
    """Mismatches of one op against an independent path at the same seed.

    The panels are re-run on a serial :class:`EngineRuntime` (another
    code path under the same ``(seed, chunk_size)`` contract) with fresh
    systems; each baseline posterior interval must equal
    ``failure_probability_interval`` at the op's seed.
    """
    problems = []
    with warnings.catch_warnings(), EngineRuntime(workers=1) as runtime:
        # The double-reading systems have no batch path; the runtime says
        # so with a degradation warning the executor path does not give.
        warnings.simplefilter("ignore", RuntimeDegradationWarning)
        for part, panel, workload in (
            ("field", section5_panel(seed), setup.field),
            ("trial", section7_panel(seed), setup.trial),
        ):
            expected = runtime.compare(
                panel, workload, setup.classifier, seed=seed, chunk_size=DEFAULT_CHUNK_SIZE
            )
            for name, evaluation in expected.items():
                if output[part].get(name) != counts(evaluation):
                    problems.append(f"study {part}/{name} seed={seed}: counts differ")
    profiles = {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE}
    for profile_name, profile in profiles.items():
        iv = setup.uncertain.failure_probability_interval(
            profile, num_samples=STUDY_DRAWS, seed=seed
        )
        got = output["intervals"][(ExtrapolationStudy.BASELINE_NAME, profile_name)]
        if got != (iv.lower, iv.upper, iv.mean):
            problems.append(f"study baseline/{profile_name} seed={seed}: interval differs")
    return problems


def study_scalar_oracle(setup: StudySetup, seed: int) -> list[str]:
    """A single-chunk slice of the field set against the scalar loop."""
    piece = Workload(name="field-slice", cases=setup.field.cases[:SCALAR_SLICE])
    problems = []
    for batch_system, scalar_system in zip(section5_panel(seed), section5_panel(seed)):
        batch = evaluate_system_batch(
            batch_system, piece, setup.classifier, seed=seed, chunk_size=SCALAR_SLICE
        )
        scalar = evaluate_system(scalar_system, piece, setup.classifier, seed=seed)
        if counts(batch) != counts(scalar):
            problems.append(f"study scalar oracle {batch_system.name}: counts differ")
    return problems


# -- sweep --------------------------------------------------------------


@dataclass
class SweepSetup:
    grid: ScenarioGrid
    classifier: SubtletyClassifier
    sample: list[int]


def sweep_setup(seed: int) -> SweepSetup:
    grid = ScenarioGrid(
        name="perfbench",
        populations=("routine", "symptomatic"),
        profiles=("trial", "field"),
        num_cases=SWEEP_CASES,
        population_seed=seed,
        systems=("unaided", "assisted"),
        biases=("none", "mild", "strong"),
        dynamics=("none", "fatigue"),
        operating_points=(-0.2, 0.0, 0.2),
        replicates=SWEEP_REPLICATES,
    )
    rng = np.random.default_rng(seed)
    sample = sorted(int(i) for i in rng.choice(len(grid), SWEEP_SAMPLE, replace=False))
    return SweepSetup(grid=grid, classifier=SubtletyClassifier(), sample=sample)


def sweep_op(setup: SweepSetup, seed: int, journal: Path) -> tuple[int, dict]:
    """One ``run_sweep`` with a fresh journal; returns ``(cells, outputs)``."""
    result = run_sweep(
        setup.grid, seed=seed, classifier=setup.classifier, journal=journal
    )
    if not result.complete:
        raise RuntimeError("sweep returned a partial result")
    evaluations = result.evaluations()
    cells = [planned.cell_id for planned in result.plan.cells()]
    return len(result.results), {
        "sample": {cells[i]: counts(evaluations[cells[i]]) for i in setup.sample},
        "cells": len(evaluations),
    }


def sweep_check(setup: SweepSetup, seed: int, output: dict) -> list[str]:
    """The sampled cells of one sweep against standalone ``reproduce_cell``."""
    plan = compile_grid(setup.grid, seed=seed)
    problems = []
    if output["cells"] != len(plan):
        problems.append(f"sweep seed={seed}: {output['cells']} cells, plan has {len(plan)}")
    for cell_id, got in output["sample"].items():
        expected = reproduce_cell(plan, cell_id, classifier=setup.classifier)
        if got != counts(expected):
            problems.append(f"sweep seed={seed} {cell_id}: counts differ")
    return problems
