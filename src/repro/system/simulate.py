"""Empirical evaluation of screening systems over workloads.

Runs any :class:`~repro.system.single.ScreeningSystem` over a workload and
summarises its false-negative and false-positive behaviour, overall and
per case class, with confidence intervals — the simulation-side
counterpart of the sequential model's analytic predictions, and the thing
the end-to-end benchmarks compare against it.

The counting machinery lives here so the scalar loop and the vectorized
engine (:mod:`repro.engine`) hold failure counts in one layout:
:class:`FailureTally` is the classifier's classes plus one int64 count
row (:data:`ROW_COLUMNS`, then the per-class failures and trials), the
row the engine's kernel fills; :func:`count_failures` is the one
function that turns per-case failure flags into counts, and
:func:`count_trials` counts the trials, which depend on the cases alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier
from ..screening.workload import Workload
from ..trial.intervals import ConfidenceInterval, wilson_interval
from .single import ScreeningSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..screening.case import Case

__all__ = [
    "RateEstimate",
    "SystemEvaluation",
    "FailureTally",
    "ROW_COLUMNS",
    "count_failures",
    "count_trials",
    "evaluate_system",
    "compare_systems",
]


@dataclass(frozen=True)
class RateEstimate:
    """An observed failure rate with its sample size and interval.

    Attributes:
        failures: Number of failures observed.
        trials: Number of opportunities.
        interval: Wilson confidence interval for the underlying rate.
    """

    failures: int
    trials: int
    interval: ConfidenceInterval

    @property
    def rate(self) -> float:
        """The observed failure proportion."""
        return self.interval.point

    @classmethod
    def from_counts(cls, failures: int, trials: int, level: float = 0.95) -> "RateEstimate":
        """Build from raw counts (trials must be positive)."""
        return cls(
            failures=failures,
            trials=trials,
            interval=wilson_interval(failures, trials, level),
        )


@dataclass(frozen=True)
class SystemEvaluation:
    """Empirical error rates of one system over one workload.

    Attributes:
        system_name: The evaluated system.
        workload_name: The workload it was run on.
        false_negative: Rate over cancer cases (``None`` if none present).
        false_positive: Rate over healthy cases (``None`` if none present).
        per_class_false_negative: Cancer-case rates per case class.
    """

    system_name: str
    workload_name: str
    false_negative: RateEstimate | None
    false_positive: RateEstimate | None
    per_class_false_negative: Mapping[CaseClass, RateEstimate]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_class_false_negative", dict(self.per_class_false_negative)
        )


#: The leading columns of a count row; the per-class failures and then
#: the per-class trials follow, one column per class code, so a row has
#: ``4 + 2 * n_classes`` columns.
ROW_COLUMNS = ("cancer_failures", "cancer_trials", "healthy_failures", "healthy_trials")


@dataclass(eq=False)
class FailureTally:
    """A system's failure counts over (part of) a workload: one count row.

    ``row`` is int64 in the engine kernel's layout (:data:`ROW_COLUMNS`,
    then the failures and trials of each of the classifier's
    ``classes``), zeros when not given; the scalar loop fills it case by
    case (:meth:`record`).  Tallies compare by classes and counts.
    """

    classes: Sequence[CaseClass]
    row: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.classes = tuple(self.classes)
        width = len(ROW_COLUMNS) + 2 * len(self.classes)
        if self.row is None:
            self.row = np.zeros(width, dtype=np.int64)
        elif self.row.shape != (width,):
            raise SimulationError(
                f"a row over {len(self.classes)} classes has {width} columns, got {self.row.shape}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTally):
            return NotImplemented
        return self.classes == other.classes and np.array_equal(self.row, other.row)

    def _code(self, case_class: CaseClass) -> int:
        """The code of a declared class."""
        if case_class not in self.classes:
            raise SimulationError(
                f"case class {str(case_class)!r} is not one of {[str(c) for c in self.classes]}"
            )
        return self.classes.index(case_class)

    def record(self, case: "Case", failed: bool, classifier: CaseClassifier) -> None:
        """Count one decided case, refusing a class outside :attr:`classes`;
        independent of :func:`count_failures`, as the scalar loop is the oracle."""
        row = self.row
        if case.has_cancer:
            code = 4 + self._code(classifier.classify(case))
            row[0] += failed
            row[1] += 1
            row[code] += failed
            row[code + len(self.classes)] += 1
        else:
            row[2] += failed
            row[3] += 1

    def record_batch(
        self,
        has_cancer: np.ndarray,
        failed: np.ndarray,
        case_classes: Sequence[CaseClass],
    ) -> None:
        """Count a whole decided batch.

        Args:
            has_cancer: Ground truth per case.
            failed: System failure per case.
            case_classes: Class of each *cancer* case, in batch order
                (length = number of cancer cases in the batch).

        Raises:
            SimulationError: on mismatched lengths or a class outside
                :attr:`classes`.
        """
        positions = np.flatnonzero(has_cancer)
        if len(case_classes) != positions.size:
            raise SimulationError(
                f"got {len(case_classes)} case classes for "
                f"{positions.size} cancer cases"
            )
        if len(failed) != len(has_cancer):
            raise SimulationError(
                f"got {len(failed)} failure flags for {len(has_cancer)} cases"
            )
        codes = np.array([self._code(case_class) for case_class in case_classes], dtype=np.int64)
        n_classes, counts = len(self.classes), np.empty_like(self.row)
        counts[0], counts[2], counts[4 : 4 + n_classes] = count_failures(
            np.asarray(failed), positions, codes, n_classes
        )
        counts[1], counts[3], counts[4 + n_classes :] = count_trials(
            len(failed), positions, codes, n_classes
        )
        self.row += counts

    def to_evaluation(
        self, system_name: str, workload_name: str, level: float = 0.95
    ) -> SystemEvaluation:
        """Summarise the counts as a :class:`SystemEvaluation`.

        The one conversion from counts to rates: the per-class rates are
        keyed by the classifier's own classes, in its order, leaving out
        classes with no cancer trial.
        """
        n_classes = len(self.classes)
        cancer_failures, cancer_trials, healthy_failures, healthy_trials, *per_class = self.row.tolist()
        return SystemEvaluation(
            system_name=system_name,
            workload_name=workload_name,
            false_negative=(
                RateEstimate.from_counts(cancer_failures, cancer_trials, level)
                if cancer_trials
                else None
            ),
            false_positive=(
                RateEstimate.from_counts(healthy_failures, healthy_trials, level)
                if healthy_trials
                else None
            ),
            per_class_false_negative={
                case_class: RateEstimate.from_counts(failures, trials, level)
                for case_class, failures, trials in zip(
                    self.classes, per_class[:n_classes], per_class[n_classes:]
                )
                if trials
            },
        )


def count_failures(
    failed: np.ndarray,
    positions: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
) -> tuple[int, int, np.ndarray]:
    """Exact integer failure counts from per-case failure flags.

    The one tally every vectorized path runs: a ``bincount`` over the
    failed cancer cases' class codes instead of a per-case loop (the
    trials depend on the cases alone: :func:`count_trials`).

    Args:
        failed: System failure per case.
        positions: Indices of the cancer cases into ``failed``, sorted.
        codes: Class code of each cancer case, aligned with ``positions``.
        n_classes: Number of class codes (the length of the per-class
            count array).

    Returns:
        ``(cancer_failures, healthy_failures, class_failures)``.
    """
    cancer_failed = failed[positions].astype(bool, copy=False)
    cancer_failures = int(np.count_nonzero(cancer_failed))
    healthy_failures = int(np.count_nonzero(failed)) - cancer_failures
    class_failures = np.bincount(codes[cancer_failed], minlength=n_classes)
    return cancer_failures, healthy_failures, class_failures


def count_trials(
    n_cases: int, positions: np.ndarray, codes: np.ndarray, n_classes: int
) -> tuple[int, int, np.ndarray]:
    """``(cancer_trials, healthy_trials, class_trials)`` of ``n_cases`` cases
    whose cancers sit at ``positions`` with class ``codes``."""
    cancer_trials = int(positions.size)
    return cancer_trials, n_cases - cancer_trials, np.bincount(codes, minlength=n_classes)


def evaluate_system(
    system: ScreeningSystem,
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
) -> SystemEvaluation:
    """Run a system over a workload and summarise its failures.

    Args:
        system: The system to drive.
        workload: The cases, in order (order matters for systems with
            drifting or adapting components).
        classifier: Criterion for the per-class breakdown; a single class
            when omitted.
        level: Confidence level for all intervals.
        seed: When given, all stochastic components draw from one fresh
            ``numpy.random.default_rng(seed)`` threaded through
            ``system.decide`` instead of their private generators, making
            the evaluation reproducible regardless of prior *generator*
            state.  Non-random component state (fatigue, trust, drift) is
            not reset — stateful systems stay order-dependent.

    Raises:
        SimulationError: on an empty workload, or a cancer case that
            ``classifier`` puts in a class it does not declare.
    """
    if len(workload) == 0:
        raise SimulationError("cannot evaluate a system on an empty workload")
    classifier = classifier if classifier is not None else DEFAULT_CLASSIFIER
    rng = np.random.default_rng(seed) if seed is not None else None

    tally = FailureTally(classifier.classes)
    for case in workload:
        decision = system.decide(case, rng)
        tally.record(case, decision.is_failure(case), classifier)
    return tally.to_evaluation(system.name, workload.name, level)


def compare_systems(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
) -> dict[str, SystemEvaluation]:
    """Evaluate several systems on the *same* workload.

    Every system sees the identical case sequence (common random cases),
    which sharpens comparisons: differences come from the systems, not the
    draw of cases.

    With ``seed`` given, the comparison also uses common random *numbers*:
    each system is evaluated with its own fresh
    ``numpy.random.default_rng(seed)``, so two systems sharing a component
    see that component behave identically — without the seed, components
    draw from private generators whose state depends on whatever ran
    before, and a "comparison" can silently measure stale generator state
    instead of the systems.

    Raises:
        SimulationError: if two systems share a name.
    """
    names = [s.name for s in systems]
    if len(set(names)) != len(names):
        raise SimulationError(f"system names must be unique, got {names!r}")
    return {
        system.name: evaluate_system(system, workload, classifier, level, seed=seed)
        for system in systems
    }
