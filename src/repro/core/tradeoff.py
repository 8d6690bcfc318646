"""False-negative / false-positive trade-offs (Section 7's programme).

The paper notes that its equations describe false positives and false
negatives identically: the false-negative model conditions on cancer
cases, the false-positive model conditions on healthy ones.  The planned
extension — "how alternative settings (compromises between false negative
and false positive rates) of the CADT would affect the whole system's
false negative and false positive rates" — is implemented here.

:class:`TwoSidedModel` pairs a sequential model for the cancer
subpopulation (producing the system's false-negative probability, i.e.
``1 - sensitivity``) with one for the healthy subpopulation (producing the
false-positive probability, ``1 - specificity``).  A sweep of CADT
settings yields a sequence of :class:`SystemOperatingPoint` values, which
:class:`TradeoffFrontier` filters to the non-dominated set and ranks under
explicit misclassification costs and prevalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .._validation import check_positive, check_probability
from ..exceptions import ParameterError
from .case_class import CaseClass
from .profile import DemandProfile
from .sequential import SequentialModel

__all__ = [
    "SystemOperatingPoint",
    "TwoSidedModel",
    "TradeoffFrontier",
    "expected_cost",
    "sweep_machine_settings",
]


@dataclass(frozen=True)
class SystemOperatingPoint:
    """System-level error rates at one machine setting.

    Attributes:
        label: Identifier of the setting (e.g. the CADT threshold value).
        p_false_negative: Probability of a "no recall" decision on a cancer
            case (``1 - sensitivity``).
        p_false_positive: Probability of a "recall" decision on a healthy
            case (``1 - specificity``).
    """

    label: str
    p_false_negative: float
    p_false_positive: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "p_false_negative",
            check_probability(self.p_false_negative, "p_false_negative"),
        )
        object.__setattr__(
            self,
            "p_false_positive",
            check_probability(self.p_false_positive, "p_false_positive"),
        )

    @property
    def sensitivity(self) -> float:
        """Probability of recalling a cancer case."""
        return 1.0 - self.p_false_negative

    @property
    def specificity(self) -> float:
        """Probability of clearing a healthy case."""
        return 1.0 - self.p_false_positive

    def dominates(self, other: "SystemOperatingPoint") -> bool:
        """Whether this point is at least as good on both rates and better on one."""
        no_worse = (
            self.p_false_negative <= other.p_false_negative
            and self.p_false_positive <= other.p_false_positive
        )
        strictly_better = (
            self.p_false_negative < other.p_false_negative
            or self.p_false_positive < other.p_false_positive
        )
        return no_worse and strictly_better

    def recall_rate(self, prevalence: float) -> float:
        """Overall fraction of screened patients recalled, at a given prevalence."""
        prevalence = check_probability(prevalence, "prevalence")
        return prevalence * self.sensitivity + (1.0 - prevalence) * self.p_false_positive


def expected_cost(
    point: SystemOperatingPoint,
    prevalence: float,
    cost_false_negative: float,
    cost_false_positive: float,
) -> float:
    """Expected per-patient cost of an operating point.

    Args:
        point: The operating point to cost.
        prevalence: Fraction of screened patients with cancer (< 1% in the
            paper's screened population).
        cost_false_negative: Cost of missing a cancer (typically the
            dominant cost).
        cost_false_positive: Cost of recalling a healthy patient
            (anxiety, extra tests).
    """
    prevalence = check_probability(prevalence, "prevalence")
    cost_false_negative = check_positive(cost_false_negative, "cost_false_negative")
    cost_false_positive = check_positive(cost_false_positive, "cost_false_positive")
    return (
        prevalence * point.p_false_negative * cost_false_negative
        + (1.0 - prevalence) * point.p_false_positive * cost_false_positive
    )


class TwoSidedModel:
    """Sequential models for both failure kinds of a screening system.

    Args:
        false_negative_model: Sequential model conditioned on cancer cases
            ("failure" = no recall).
        false_positive_model: Sequential model conditioned on healthy cases
            ("failure" = recall).
        cancer_profile: Demand profile of *cancer* cases over their classes.
        healthy_profile: Demand profile of *healthy* cases over their
            classes (the class sets need not coincide: e.g. "dense tissue"
            matters to both, "lesion subtlety" only to cancers).
    """

    def __init__(
        self,
        false_negative_model: SequentialModel,
        false_positive_model: SequentialModel,
        cancer_profile: DemandProfile,
        healthy_profile: DemandProfile,
    ):
        self._fn_model = false_negative_model
        self._fp_model = false_positive_model
        self._cancer_profile = cancer_profile
        self._healthy_profile = healthy_profile
        # Fail fast if the profiles mention classes the models lack.
        self._fn_model.system_failure_probability(cancer_profile)
        self._fp_model.system_failure_probability(healthy_profile)

    @property
    def false_negative_model(self) -> SequentialModel:
        """The cancer-side model."""
        return self._fn_model

    @property
    def false_positive_model(self) -> SequentialModel:
        """The healthy-side model."""
        return self._fp_model

    @property
    def cancer_profile(self) -> DemandProfile:
        """Demand profile of the cancer subpopulation."""
        return self._cancer_profile

    @property
    def healthy_profile(self) -> DemandProfile:
        """Demand profile of the healthy subpopulation."""
        return self._healthy_profile

    def p_false_negative(self) -> float:
        """System false-negative probability (per cancer case)."""
        return self._fn_model.system_failure_probability(self._cancer_profile)

    def p_false_positive(self) -> float:
        """System false-positive probability (per healthy case)."""
        return self._fp_model.system_failure_probability(self._healthy_profile)

    def operating_point(self, label: str) -> SystemOperatingPoint:
        """Evaluate both failure probabilities into one operating point."""
        return SystemOperatingPoint(
            label=label,
            p_false_negative=self.p_false_negative(),
            p_false_positive=self.p_false_positive(),
        )


class TradeoffFrontier:
    """A set of operating points and its non-dominated frontier.

    Args:
        points: Operating points from a sweep of machine settings.
    """

    def __init__(self, points: Iterable[SystemOperatingPoint]):
        self._points = tuple(points)
        if not self._points:
            raise ParameterError("a trade-off frontier needs at least one point")
        labels = [p.label for p in self._points]
        if len(set(labels)) != len(labels):
            raise ParameterError(f"duplicate operating point labels: {labels!r}")

    @property
    def points(self) -> tuple[SystemOperatingPoint, ...]:
        """All operating points, in the order supplied."""
        return self._points

    def non_dominated(self) -> tuple[SystemOperatingPoint, ...]:
        """The Pareto-optimal subset, sorted by increasing false-negative rate."""
        frontier = [
            p
            for p in self._points
            if not any(q.dominates(p) for q in self._points)
        ]
        return tuple(sorted(frontier, key=lambda p: (p.p_false_negative, p.p_false_positive)))

    def best(
        self,
        prevalence: float,
        cost_false_negative: float,
        cost_false_positive: float,
    ) -> SystemOperatingPoint:
        """The point minimising expected cost at the given prevalence/costs."""
        prevalence = check_probability(prevalence, "prevalence")
        return min(
            self._points,
            key=lambda p: (
                expected_cost(p, prevalence, cost_false_negative, cost_false_positive),
                p.label,
            ),
        )

    def sensitivity_at_specificity(self, min_specificity: float) -> SystemOperatingPoint:
        """The most sensitive point meeting a specificity constraint.

        Raises:
            ParameterError: if no point meets the constraint.
        """
        min_specificity = check_probability(min_specificity, "min_specificity")
        feasible = [p for p in self._points if p.specificity >= min_specificity]
        if not feasible:
            raise ParameterError(
                f"no operating point has specificity >= {min_specificity!r}"
            )
        return max(feasible, key=lambda p: (p.sensitivity, p.specificity))

    def area_under_curve(self) -> float:
        """Trapezoidal area under the (1-specificity, sensitivity) frontier.

        A scalar summary of the sweep, comparable across system designs;
        the frontier is extended to the (0,0) and (1,1) corners.
        """
        frontier = self.non_dominated()
        pts = sorted(
            {(p.p_false_positive, p.sensitivity) for p in frontier} | {(0.0, 0.0), (1.0, 1.0)}
        )
        area = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            area += (x1 - x0) * (y0 + y1) / 2.0
        return area

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)


def sweep_machine_settings(
    model: TwoSidedModel,
    settings: Mapping[str, tuple[float, float]],
    classes: Sequence[CaseClass | str] | None = None,
    method: str = "vectorized",
) -> TradeoffFrontier:
    """Evaluate a whole sweep of CADT settings into a trade-off frontier.

    Each setting is a pair of improvement factors ``(fn_factor,
    fp_factor)`` dividing the machine's failure probability on the
    cancer-side and healthy-side models respectively — a factor above 1
    improves that side, below 1 worsens it, which is how a threshold
    compromise trades false negatives against false positives.

    The vectorized path stacks all settings as rows of two
    :class:`~repro.engine.posterior.ParameterTable` batches (one per
    side) and evaluates each side's equation (8) once for the entire
    sweep; ``method="scalar"`` is the per-setting reference loop, and
    both return bit-identical operating points.

    Args:
        model: The two-sided screening model at its baseline setting.
        settings: Mapping from setting label to ``(fn_factor, fp_factor)``.
        classes: Classes whose machine failure probability the setting
            changes; all classes of each side when ``None``.  Must exist
            on both sides when given.
        method: ``"vectorized"`` (default) or ``"scalar"``.

    Returns:
        A :class:`TradeoffFrontier` over one
        :class:`SystemOperatingPoint` per setting, in ``settings`` order.
    """
    if not settings:
        raise ParameterError("sweep_machine_settings needs at least one setting")
    labels = list(settings)
    factor_pairs = [settings[label] for label in labels]
    for label, pair in zip(labels, factor_pairs):
        if len(tuple(pair)) != 2:
            raise ParameterError(
                f"setting {label!r} must map to (fn_factor, fp_factor), got {pair!r}"
            )
    if method == "vectorized":
        from ..engine.posterior import ParameterTable
        from ..obs import get_instrumentation

        rates: dict[str, np.ndarray] = {}
        with get_instrumentation().span("tradeoff.sweep", settings=len(labels)):
            for side, factors, profile in (
                ("fn", np.asarray([p[0] for p in factor_pairs], dtype=np.float64),
                 model.cancer_profile),
                ("fp", np.asarray([p[1] for p in factor_pairs], dtype=np.float64),
                 model.healthy_profile),
            ):
                side_model = (
                    model.false_negative_model
                    if side == "fn"
                    else model.false_positive_model
                )
                table = ParameterTable.from_model_parameters(
                    side_model.parameters, num_rows=len(labels)
                ).with_machine_improved(factors, classes)
                rates[side] = table.system_failure_probability(profile)
            points = [
                SystemOperatingPoint(
                    label=label,
                    p_false_negative=float(rates["fn"][i]),
                    p_false_positive=float(rates["fp"][i]),
                )
                for i, label in enumerate(labels)
            ]
            return TradeoffFrontier(points)
    if method == "scalar":
        points = []
        for label, (fn_factor, fp_factor) in zip(labels, factor_pairs):
            fn = model.false_negative_model.with_machine_improved(
                fn_factor, classes
            ).system_failure_probability(model.cancer_profile)
            fp = model.false_positive_model.with_machine_improved(
                fp_factor, classes
            ).system_failure_probability(model.healthy_profile)
            points.append(
                SystemOperatingPoint(
                    label=label, p_false_negative=fn, p_false_positive=fp
                )
            )
        return TradeoffFrontier(points)
    raise ParameterError(f"method must be 'vectorized' or 'scalar', got {method!r}")
