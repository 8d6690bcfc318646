"""Model-vs-simulation calibration checking.

The clear-box model is only useful if its conditional parameters actually
describe the behaviour they claim to.  This harness drives the simulators
(the closest thing this reproduction has to ground truth) and compares the
observed per-cell failure frequencies against the analytically derived
model, cell by cell, with z-scores — the "model checking" step an analyst
would run before trusting any extrapolation.

A well-calibrated model shows |z| < 3 in every cell; systematic deviations
localise the modelling error (e.g. a biased reader analysed with the
parallel model shows a hot ``machine_failure`` cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cadt.algorithm import DetectionAlgorithm
from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..reader.reader import ReaderModel
from ..screening.case import Case
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier
from ..system.analytic import derive_class_parameters

__all__ = ["CellCalibration", "CalibrationReport", "calibrate_against_simulation"]


@dataclass(frozen=True)
class CellCalibration:
    """Predicted vs observed failure rate in one conditional cell.

    Attributes:
        case_class: The class of the cell.
        condition: ``"machine_failure"`` or ``"machine_success"``.
        predicted: The analytic conditional failure probability.
        observed_failures: Failures seen in simulation.
        observed_trials: Conditioning events seen in simulation.
    """

    case_class: CaseClass
    condition: str
    predicted: float
    observed_failures: int
    observed_trials: int

    @property
    def observed(self) -> float:
        """The observed conditional failure proportion."""
        if self.observed_trials == 0:
            return float("nan")
        return self.observed_failures / self.observed_trials

    @property
    def z_score(self) -> float:
        """Standardised deviation of observed from predicted.

        Zero when the cell is empty or the predicted value is degenerate
        and matched exactly.
        """
        if self.observed_trials == 0:
            return 0.0
        variance = self.predicted * (1.0 - self.predicted) / self.observed_trials
        if variance <= 0.0:
            return 0.0 if self.observed == self.predicted else float("inf")
        return (self.observed - self.predicted) / math.sqrt(variance)


@dataclass(frozen=True)
class CalibrationReport:
    """All cells of a calibration run.

    Attributes:
        cells: Per-(class, condition) comparisons.
        total_readings: Simulated reading events.
    """

    cells: tuple[CellCalibration, ...]
    total_readings: int

    @property
    def max_abs_z(self) -> float:
        """Largest |z| across non-empty cells."""
        scores = [abs(c.z_score) for c in self.cells if c.observed_trials > 0]
        return max(scores) if scores else 0.0

    def is_calibrated(self, z_threshold: float = 3.0) -> bool:
        """Whether every non-empty cell sits within the z threshold."""
        return self.max_abs_z <= z_threshold

    @property
    def hottest_cell(self) -> CellCalibration:
        """The cell with the largest |z| (ties broken by class name)."""
        non_empty = [c for c in self.cells if c.observed_trials > 0]
        if not non_empty:
            raise SimulationError("calibration report has no non-empty cells")
        return max(
            non_empty, key=lambda c: (abs(c.z_score), c.case_class.name, c.condition)
        )


def calibrate_against_simulation(
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cases: Sequence[Case],
    classifier: CaseClassifier | None = None,
    repeats: int = 20,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> CalibrationReport:
    """Compare the derived analytic model against direct simulation.

    For every cancer case, ``repeats`` independent (machine output, reader
    decision) pairs are sampled; the observed conditional failure rates
    per (class, machine outcome) are compared against the analytically
    derived class parameters.

    Args:
        reader: The reader under test.
        algorithm: The detection algorithm under test.
        cases: Cancer cases to exercise (healthy cases are rejected —
            calibrate the FP side separately if needed).
        classifier: Class criterion; single-class when omitted.
        repeats: Readings per case.
        rng: Random generator for the simulation.
        seed: Seed used to construct a generator when ``rng`` is omitted;
            leaving both unset draws irreproducible OS entropy.
    """
    if not cases:
        raise SimulationError("calibration needs at least one case")
    if any(not case.has_cancer for case in cases):
        raise SimulationError("calibration expects cancer cases only")
    if repeats <= 0:
        raise SimulationError(f"repeats must be positive, got {repeats!r}")
    classifier = classifier if classifier is not None else DEFAULT_CLASSIFIER
    rng = rng if rng is not None else np.random.default_rng(seed)

    by_class: dict[CaseClass, list[Case]] = {}
    for case in cases:
        by_class.setdefault(classifier.classify(case), []).append(case)

    cells: list[CellCalibration] = []
    total = 0
    for case_class, members in sorted(by_class.items()):
        derived = derive_class_parameters(reader, algorithm, members)
        counts = {
            "machine_failure": [0, 0],  # [failures, trials]
            "machine_success": [0, 0],
        }
        for case in members:
            for _ in range(repeats):
                output = algorithm.process(case, rng)
                decision = reader.decide(case, output, rng)
                condition = (
                    "machine_failure"
                    if output.is_false_negative(case)
                    else "machine_success"
                )
                counts[condition][1] += 1
                counts[condition][0] += int(not decision.recall)
                total += 1
        for condition, predicted in (
            ("machine_failure", derived.p_human_failure_given_machine_failure),
            ("machine_success", derived.p_human_failure_given_machine_success),
        ):
            failures, trials = counts[condition]
            cells.append(
                CellCalibration(
                    case_class=case_class,
                    condition=condition,
                    predicted=predicted,
                    observed_failures=failures,
                    observed_trials=trials,
                )
            )
    return CalibrationReport(cells=tuple(cells), total_readings=total)
