"""Trial-to-field extrapolation and design what-ifs (Section 5).

The paper's central practical use of the sequential model is an orderly
extrapolation: estimate per-class parameters in a controlled trial, then
predict the system's failure probability under the *field* demand profile,
under candidate design changes (improving the CADT on selected classes), or
under anticipated indirect effects (reader behaviour drifting).

This module expresses each such change as a small, composable
:class:`Change` object acting on a ``(parameters, profile)`` pair, bundles
changes into named :class:`Scenario` objects, and evaluates a whole
:class:`ExtrapolationStudy` — a baseline, a set of demand profiles, and a
set of scenarios — into the cross-table of failure probabilities that
Section 5's example tables show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..exceptions import EstimationError, ParameterError
from ..obs import get_instrumentation
from .case_class import CaseClass
from .parameters import ClassParameters, ModelParameters
from .profile import DemandProfile
from .sequential import SequentialModel, SequentialPrediction
from .uncertainty import CredibleInterval, UncertainModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..engine.posterior import ParameterTable

__all__ = [
    "Change",
    "ImproveMachine",
    "SetMachineFailure",
    "ShiftReader",
    "ReplaceClassParameters",
    "ReweightProfile",
    "ReplaceProfile",
    "Scenario",
    "ScenarioOutcome",
    "ExtrapolationStudy",
    "StudyResult",
]

ClassKey = CaseClass | str

State = tuple[ModelParameters, DemandProfile]

#: The array-batch analogue of :data:`State`.
ArrayState = tuple["ParameterTable", DemandProfile]


class Change:
    """A single, named modification of a ``(parameters, profile)`` state.

    Subclasses implement :meth:`apply`; changes compose left-to-right
    inside a :class:`Scenario`.  Built-in changes also implement
    :meth:`apply_arrays`, the array-transform protocol that lets a whole
    batch of parameter tables (posterior draws, sweep settings) be
    transformed at once; custom changes that do not are handled by a
    transparent per-row fallback in the kernel consumers.
    """

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        """Return the transformed ``(parameters, profile)`` pair."""
        raise NotImplementedError

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        """Array equivalent of :meth:`apply`, acting on a whole table batch.

        Raises:
            NotImplementedError: when the change has no array form; the
                kernel consumers then fall back to the scalar path for
                the enclosing scenario.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no array transform; the scalar "
            f"fallback path handles it"
        )


@dataclass(frozen=True)
class ImproveMachine(Change):
    """Divide ``PMf`` by ``factor`` on the selected classes (all if ``None``).

    This is the paper's "reduction by 10 of the failure probability PMf"
    design option; the reader's conditional behaviour is left unchanged,
    i.e. only *direct* effects are modelled (indirect effects are separate
    :class:`ShiftReader` changes).
    """

    factor: float
    classes: tuple[str, ...] | None = None

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        return parameters.with_machine_improved(self.factor, self.classes), profile

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return table.with_machine_improved(self.factor, self.classes), profile


@dataclass(frozen=True)
class SetMachineFailure(Change):
    """Set ``PMf`` to an absolute value on one class."""

    case_class: str
    p_machine_failure: float

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        current = parameters[self.case_class]
        return (
            parameters.with_class(
                self.case_class, current.with_machine_failure(self.p_machine_failure)
            ),
            profile,
        )

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return table.with_machine_failure(self.case_class, self.p_machine_failure), profile


@dataclass(frozen=True)
class ShiftReader(Change):
    """Shift the reader's conditional failure probabilities on one class.

    Models indirect effects (Section 5): complacency raises
    ``PHf|Mf`` (and possibly ``PHf|Ms``); training lowers them.
    """

    case_class: str
    delta_given_machine_failure: float = 0.0
    delta_given_machine_success: float = 0.0

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        current = parameters[self.case_class]
        return (
            parameters.with_class(
                self.case_class,
                current.with_reader_shift(
                    self.delta_given_machine_failure,
                    self.delta_given_machine_success,
                ),
            ),
            profile,
        )

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return (
            table.with_reader_shift(
                self.case_class,
                self.delta_given_machine_failure,
                self.delta_given_machine_success,
            ),
            profile,
        )


@dataclass(frozen=True)
class ReplaceClassParameters(Change):
    """Replace (or add) the full parameter triple of one class."""

    case_class: str
    parameters: ClassParameters

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        return parameters.with_class(self.case_class, self.parameters), profile

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return table.with_class_parameters(self.case_class, self.parameters), profile


@dataclass(frozen=True)
class ReweightProfile(Change):
    """Multiply class frequencies by per-class factors and renormalise.

    Models changes in the frequencies of kinds of cases (Section 5 item 1),
    e.g. a screening programme extending to a younger population with
    denser tissue.
    """

    factors: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", dict(self.factors))

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        return parameters, profile.reweighted(self.factors)

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return table, profile.reweighted(self.factors)


@dataclass(frozen=True)
class ReplaceProfile(Change):
    """Substitute a whole demand profile (e.g. trial -> field)."""

    profile: DemandProfile

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        return parameters, self.profile

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        return table, self.profile


@dataclass(frozen=True)
class Scenario:
    """A named sequence of changes applied to the baseline state.

    The empty scenario (no changes) is the baseline itself and is always
    evaluated first by :class:`ExtrapolationStudy`.
    """

    name: str
    changes: tuple[Change, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("scenario name must be non-empty")
        object.__setattr__(self, "changes", tuple(self.changes))
        for change in self.changes:
            if not isinstance(change, Change):
                raise ParameterError(
                    f"scenario {self.name!r} contains a non-Change entry: {change!r}"
                )

    def apply(self, parameters: ModelParameters, profile: DemandProfile) -> State:
        """Apply all changes left-to-right to the given state."""
        for change in self.changes:
            parameters, profile = change.apply(parameters, profile)
        return parameters, profile

    def apply_arrays(
        self, table: "ParameterTable", profile: DemandProfile
    ) -> "ArrayState":
        """Apply all changes left-to-right to a whole table batch.

        Raises:
            NotImplementedError: when any change lacks an array transform;
                callers then fall back to the per-row scalar path.
        """
        for change in self.changes:
            table, profile = change.apply_arrays(table, profile)
        return table, profile


@dataclass(frozen=True)
class ScenarioOutcome:
    """Evaluation of one scenario under one demand profile.

    Attributes:
        scenario: The scenario name.
        profile_name: The demand-profile name (e.g. ``"trial"``/``"field"``).
        prediction: Full per-class prediction of the transformed model.
        parameters: The transformed parameter table (after the scenario).
        profile: The transformed demand profile actually evaluated.
    """

    scenario: str
    profile_name: str
    prediction: SequentialPrediction
    parameters: ModelParameters
    profile: DemandProfile

    @property
    def probability(self) -> float:
        """The system failure probability for this (scenario, profile) cell."""
        return self.prediction.probability


@dataclass
class StudyResult:
    """The cross-table produced by :meth:`ExtrapolationStudy.evaluate`."""

    outcomes: dict[tuple[str, str], ScenarioOutcome] = field(default_factory=dict)

    def __getitem__(self, key: tuple[str, str]) -> ScenarioOutcome:
        scenario, profile_name = key
        try:
            return self.outcomes[(scenario, profile_name)]
        except KeyError:
            raise KeyError(
                f"no outcome for scenario {scenario!r} under profile {profile_name!r}"
            ) from None

    def probability(self, scenario: str, profile_name: str) -> float:
        """Failure probability for one (scenario, profile) cell."""
        return self[(scenario, profile_name)].probability

    def as_table(self) -> dict[str, dict[str, float]]:
        """Nested dict: scenario -> profile name -> failure probability."""
        table: dict[str, dict[str, float]] = {}
        for (scenario, profile_name), outcome in self.outcomes.items():
            table.setdefault(scenario, {})[profile_name] = outcome.probability
        return table

    @property
    def scenario_names(self) -> tuple[str, ...]:
        """Scenario names in insertion (evaluation) order."""
        seen: dict[str, None] = {}
        for scenario, _ in self.outcomes:
            seen.setdefault(scenario)
        return tuple(seen)

    @property
    def profile_names(self) -> tuple[str, ...]:
        """Profile names in insertion (evaluation) order."""
        seen: dict[str, None] = {}
        for _, profile_name in self.outcomes:
            seen.setdefault(profile_name)
        return tuple(seen)


def _study_cell_samples(
    scenario: Scenario, profile: DemandProfile, table: "ParameterTable"
) -> np.ndarray:
    """Failure-probability samples for one (scenario, profile) study cell."""
    try:
        cell_table, cell_profile = scenario.apply_arrays(table, profile)
        return np.asarray(
            cell_table.system_failure_probability(cell_profile), dtype=np.float64
        )
    except NotImplementedError:
        # A custom Change without an array transform: per-row scalar
        # loop over the same shared table (identical results, slower).
        get_instrumentation().count("study.degraded.scalar_cell")
        samples = np.empty(len(table), dtype=np.float64)
        for i in range(len(table)):
            parameters, cell_profile = scenario.apply(table.row(i), profile)
            samples[i] = SequentialModel(parameters).system_failure_probability(
                cell_profile
            )
        return samples


class ExtrapolationStudy:
    """A baseline model, a set of demand profiles, and candidate scenarios.

    Evaluating the study produces the failure probability of every scenario
    under every profile — the structure of the paper's Section 5 tables,
    where the profiles are "Trial" and "Field" and the scenarios are the
    unimproved CADT and the two targeted improvements.

    Args:
        parameters: Baseline per-class parameter table (e.g. estimated from
            a controlled trial).
        profiles: Named demand profiles to evaluate under.
        scenarios: Candidate design/usage scenarios.  A baseline scenario
            (no changes) is prepended automatically unless one named
            ``"baseline"`` is already present.
    """

    BASELINE_NAME = "baseline"

    def __init__(
        self,
        parameters: ModelParameters,
        profiles: Mapping[str, DemandProfile],
        scenarios: Sequence[Scenario] = (),
    ):
        if not profiles:
            raise ParameterError("an extrapolation study needs at least one profile")
        self._parameters = parameters
        self._profiles = dict(profiles)
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate scenario names: {names!r}")
        scenario_list = list(scenarios)
        if self.BASELINE_NAME not in names:
            scenario_list.insert(0, Scenario(self.BASELINE_NAME))
        self._scenarios = tuple(scenario_list)

    @property
    def parameters(self) -> ModelParameters:
        """The baseline parameter table."""
        return self._parameters

    @property
    def profiles(self) -> dict[str, DemandProfile]:
        """The named demand profiles (copy)."""
        return dict(self._profiles)

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """All scenarios, baseline first."""
        return self._scenarios

    def evaluate(self) -> StudyResult:
        """Evaluate every scenario under every profile."""
        result = StudyResult()
        for scenario in self._scenarios:
            for profile_name, profile in self._profiles.items():
                parameters, transformed_profile = scenario.apply(
                    self._parameters, profile
                )
                model = SequentialModel(parameters)
                result.outcomes[(scenario.name, profile_name)] = ScenarioOutcome(
                    scenario=scenario.name,
                    profile_name=profile_name,
                    prediction=model.predict(transformed_profile),
                    parameters=parameters,
                    profile=transformed_profile,
                )
        return result

    def credible_intervals(
        self,
        uncertain: UncertainModel,
        level: float = 0.95,
        num_draws: int = 10_000,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> dict[tuple[str, str], CredibleInterval]:
        """Credible intervals for every (scenario, profile) cell of the study.

        Samples *one* batched posterior parameter table (common random
        numbers across all cells, so interval differences between
        scenarios reflect the design change rather than Monte Carlo
        noise) and pushes it through every scenario.  Scenarios whose
        changes all implement the array-transform protocol are evaluated
        as single kernel contractions; scenarios containing a custom
        :class:`Change` without :meth:`Change.apply_arrays` fall back
        transparently to a per-draw scalar loop over the same table, so
        the result is identical either way.

        Args:
            uncertain: Posterior uncertainty over the baseline parameter
                table (it replaces :attr:`parameters` as the source of
                parameter draws).
            level: Credibility level of the equal-tailed intervals.
            num_draws: Number of joint posterior draws shared by all cells.
            rng: Random generator; built from ``seed`` when omitted.
            seed: Seed used when ``rng`` is omitted; leaving both unset
                draws irreproducible OS entropy.

        Returns:
            Mapping from ``(scenario name, profile name)`` to the
            credible interval of the system failure probability, in the
            same cell order as :meth:`evaluate`.
        """
        if not 0.0 < level < 1.0:
            raise EstimationError(f"credibility level must be in (0, 1), got {level!r}")
        table = uncertain.sample_table(num_draws, rng=rng, seed=seed)
        cells = [
            (scenario, profile_name, profile)
            for scenario in self._scenarios
            for profile_name, profile in self._profiles.items()
        ]
        with get_instrumentation().span(
            "study.credible_intervals", cells=len(cells), draws=num_draws
        ):
            intervals: dict[tuple[str, str], CredibleInterval] = {}
            for scenario, profile_name, profile in cells:
                samples = _study_cell_samples(scenario, profile, table)
                intervals[(scenario.name, profile_name)] = CredibleInterval.from_samples(
                    samples, level
                )
            return intervals

    def best_scenario(self, profile_name: str) -> tuple[str, float]:
        """The scenario with the lowest failure probability under a profile."""
        if profile_name not in self._profiles:
            raise ParameterError(f"unknown profile {profile_name!r}")
        result = self.evaluate()
        best = min(
            (result.probability(s.name, profile_name), s.name) for s in self._scenarios
        )
        return best[1], best[0]


def paper_improvement_scenarios(
    factor: float = 10.0,
    easy_class: ClassKey = "easy",
    difficult_class: ClassKey = "difficult",
) -> tuple[Scenario, Scenario]:
    """The two design options of the paper's Section 5 example.

    Returns scenarios improving the CADT by ``factor`` on the easy class
    only, and on the difficult class only.
    """
    easy_name = easy_class.name if isinstance(easy_class, CaseClass) else easy_class
    difficult_name = (
        difficult_class.name
        if isinstance(difficult_class, CaseClass)
        else difficult_class
    )
    return (
        Scenario(
            "improve_easy",
            (ImproveMachine(factor, (easy_name,)),),
            f"CADT failure probability divided by {factor:g} on {easy_name!r} cases",
        ),
        Scenario(
            "improve_difficult",
            (ImproveMachine(factor, (difficult_name,)),),
            f"CADT failure probability divided by {factor:g} on {difficult_name!r} cases",
        ),
    )


__all__.append("paper_improvement_scenarios")
