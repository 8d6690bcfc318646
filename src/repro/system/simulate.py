"""Empirical evaluation of screening systems over workloads.

Runs any :class:`~repro.system.single.ScreeningSystem` over a workload and
summarises its false-negative and false-positive behaviour, overall and
per case class, with confidence intervals — the simulation-side
counterpart of the sequential model's analytic predictions, and the thing
the end-to-end benchmarks compare against it.

The counting machinery lives here so the scalar loop and the vectorized
engine (:mod:`repro.engine`) accumulate — and can merge — failure counts
identically: :class:`FailureTally` holds the counts, and
:func:`count_failures` is the one function that turns per-case failure
flags into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..trial.intervals import ConfidenceInterval, wilson_interval
from .single import ScreeningSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..screening.case import Case

__all__ = [
    "RateEstimate",
    "SystemEvaluation",
    "FailureTally",
    "count_failures",
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


@dataclass
class FailureTally:
    """Mutable accumulator of a system's failures over (part of) a workload.

    Both evaluation paths fill one of these — the scalar loop case by
    case, the batch engine once per system from :func:`count_failures`
    (:meth:`from_counts`) — and tallies merge associatively, so counts
    split over parts of a workload sum to exactly the counts a single
    pass would produce.
    """

    cancer_failures: int = 0
    cancer_trials: int = 0
    healthy_failures: int = 0
    healthy_trials: int = 0
    class_failures: dict[CaseClass, int] = field(default_factory=dict)
    class_trials: dict[CaseClass, int] = field(default_factory=dict)

    def record(self, case: "Case", failed: bool, classifier: CaseClassifier) -> None:
        """Count one decided case."""
        if case.has_cancer:
            self.cancer_trials += 1
            self.cancer_failures += int(failed)
            case_class = classifier.classify(case)
            self.class_trials[case_class] = self.class_trials.get(case_class, 0) + 1
            self.class_failures[case_class] = (
                self.class_failures.get(case_class, 0) + int(failed)
            )
        else:
            self.healthy_trials += 1
            self.healthy_failures += int(failed)

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
        index: dict[CaseClass, int] = {}
        codes = np.array(
            [index.setdefault(case_class, len(index)) for case_class in case_classes],
            dtype=np.int64,
        )
        counts = count_failures(np.asarray(failed), positions, codes, len(index))
        self.merge(FailureTally.from_counts(counts, tuple(index)))

    @classmethod
    def from_counts(
        cls, counts: "FailureCounts", classes: Sequence[CaseClass]
    ) -> "FailureTally":
        """A tally from :func:`count_failures` output.

        ``classes[code]`` is the class of code ``code``; classes without
        cancer trials are left out, as :meth:`record` never creates them.
        """
        (
            cancer_failures,
            cancer_trials,
            healthy_failures,
            healthy_trials,
            class_failures,
            class_trials,
        ) = counts
        kept = np.flatnonzero(class_trials)
        return cls(
            cancer_failures=cancer_failures,
            cancer_trials=cancer_trials,
            healthy_failures=healthy_failures,
            healthy_trials=healthy_trials,
            class_failures={classes[i]: int(class_failures[i]) for i in kept},
            class_trials={classes[i]: int(class_trials[i]) for i in kept},
        )

    def merge(self, other: "FailureTally") -> None:
        """Fold another tally (e.g. a chunk's) into this one."""
        self.cancer_failures += other.cancer_failures
        self.cancer_trials += other.cancer_trials
        self.healthy_failures += other.healthy_failures
        self.healthy_trials += other.healthy_trials
        for case_class, trials in other.class_trials.items():
            self.class_trials[case_class] = (
                self.class_trials.get(case_class, 0) + trials
            )
        for case_class, failures in other.class_failures.items():
            self.class_failures[case_class] = (
                self.class_failures.get(case_class, 0) + failures
            )

    def to_evaluation(
        self, system_name: str, workload_name: str, level: float = 0.95
    ) -> SystemEvaluation:
        """Summarise the counts as a :class:`SystemEvaluation`."""
        return SystemEvaluation(
            system_name=system_name,
            workload_name=workload_name,
            false_negative=(
                RateEstimate.from_counts(self.cancer_failures, self.cancer_trials, level)
                if self.cancer_trials
                else None
            ),
            false_positive=(
                RateEstimate.from_counts(self.healthy_failures, self.healthy_trials, level)
                if self.healthy_trials
                else None
            ),
            per_class_false_negative={
                cls: RateEstimate.from_counts(
                    self.class_failures[cls], self.class_trials[cls], level
                )
                for cls in self.class_trials
            },
        )


#: :func:`count_failures` output: ``(cancer_failures, cancer_trials,
#: healthy_failures, healthy_trials, class_failures, class_trials)``,
#: the last two indexed by class code.
FailureCounts = tuple[int, int, int, int, np.ndarray, np.ndarray]


def count_failures(
    failed: np.ndarray,
    positions: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
) -> FailureCounts:
    """Exact integer counts from per-case failure flags.

    The one tally every vectorized path runs: two ``bincount`` passes
    over the cancer cases' class codes instead of a per-case loop.

    Args:
        failed: System failure per case.
        positions: Indices of the cancer cases into ``failed``, sorted.
        codes: Class code of each cancer case, aligned with ``positions``.
        n_classes: Number of class codes (the length of the per-class
            count arrays).
    """
    cancer_failed = failed[positions].astype(bool)
    cancer_trials = int(positions.size)
    cancer_failures = int(np.count_nonzero(cancer_failed))
    total_failures = int(np.count_nonzero(failed))
    healthy_trials = int(failed.shape[0]) - cancer_trials
    healthy_failures = total_failures - cancer_failures
    class_trials = np.bincount(codes, minlength=n_classes)
    class_failures = np.bincount(codes[cancer_failed], minlength=n_classes)
    return (
        cancer_failures,
        cancer_trials,
        healthy_failures,
        healthy_trials,
        class_failures,
        class_trials,
    )


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
    """
    if len(workload) == 0:
        raise SimulationError("cannot evaluate a system on an empty workload")
    classifier = classifier if classifier is not None else SingleClassClassifier()
    rng = np.random.default_rng(seed) if seed is not None else None

    tally = FailureTally()
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
