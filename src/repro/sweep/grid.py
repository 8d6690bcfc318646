"""Declarative scenario grids: the sweep engine's input language.

A :class:`ScenarioGrid` names axes over the paper's Section 5-7 what-if
space — reader population, demand profile (enriched trial mix vs natural
field prevalence), system topology, automation-bias profile, temporal
dynamics regime, CADT operating point, replicates — and expands to the
cartesian product of :class:`ScenarioCell`\\ s.  Cells are *declarative*:
a cell names what to build (a :class:`WorkloadSpec` and a
:class:`SystemSpec`), not built objects, so grids serialise to JSON,
fingerprint stably, and the compiler (:mod:`repro.sweep.plan`) can
deduplicate structure shared between cells before anything expensive is
materialised.

Build determinism is part of the contract: ``WorkloadSpec.build()``
always constructs a fresh, privately seeded population model, so two
builds of one spec yield identical case sequences, and
``SystemSpec.build(seed)`` derives every component seed from the given
seed, so two builds of one (spec, seed) pair are interchangeable.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .._numeric import MAX_POISSON_RATE, SpawnedSeed
from .._numeric import exp as _exp
from ..cadt import Cadt, DetectionAlgorithm
from ..exceptions import SimulationError
from ..reader import (
    MILD_BIAS,
    NO_BIAS,
    STRONG_BIAS,
    AdaptiveReader,
    FatiguedReader,
    ReaderModel,
    ReaderSkill,
)
from ..screening import (
    field_workload,
    low_correlation_population,
    routine_screening_population,
    symptomatic_clinic_population,
    trial_workload,
    young_cohort_population,
)
from ..screening.workload import Workload
from ..system import AssistedReading, UnaidedReading
from ..system.single import ScreeningSystem

__all__ = [
    "GRID_SCHEMA_VERSION",
    "POPULATIONS",
    "PROFILES",
    "SYSTEM_KINDS",
    "BIASES",
    "DYNAMICS",
    "WorkloadSpec",
    "SystemSpec",
    "ScenarioCell",
    "ScenarioGrid",
]

#: Version stamped into (and required of) grid JSON files.
GRID_SCHEMA_VERSION = 1

#: Population presets a grid can name (see :mod:`repro.screening.presets`).
POPULATIONS = {
    "routine": routine_screening_population,
    "young": young_cohort_population,
    "symptomatic": symptomatic_clinic_population,
    "low-correlation": low_correlation_population,
}

#: Demand profiles: the paper's enriched trial mix vs natural prevalence.
PROFILES = ("trial", "field")

#: System topologies a grid can name.
SYSTEM_KINDS = ("unaided", "assisted")

#: Automation-bias presets.
BIASES = {"none": NO_BIAS, "mild": MILD_BIAS, "strong": STRONG_BIAS}

#: Temporal reader dynamics regimes.
DYNAMICS = ("none", "adaptive", "fatigue")


def _integer(value: Any, name: str) -> int:
    """``value`` as an ``int``: any integer but a bool, else SimulationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SimulationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value: Any, name: str) -> float:
    """``value`` as a ``float``: a finite number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SimulationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise SimulationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _name(value: Any, what: str, known: Iterable[str]) -> None:
    """Reject anything but one of the ``known`` names."""
    if not isinstance(value, str) or value not in known:
        raise SimulationError(f"unknown {what} {value!r}; expected one of {sorted(known)}")


@dataclass(frozen=True)
class WorkloadSpec:
    """What workload a cell runs on, by name and shape.

    Attributes:
        population: Population preset name (a :data:`POPULATIONS` key).
        profile: ``"trial"`` (enriched mix via
            :func:`~repro.screening.workload.trial_workload`) or
            ``"field"`` (natural prevalence via
            :func:`~repro.screening.workload.field_workload`).
        num_cases: Workload size.
        cancer_fraction: Enrichment target (trial profile only).
        population_seed: Seed of the generating population model.
    """

    population: str
    profile: str = "trial"
    num_cases: int = 2000
    cancer_fraction: float = 0.5
    population_seed: int = 0

    def __post_init__(self) -> None:
        _name(self.population, "population", POPULATIONS)
        _name(self.profile, "profile", PROFILES)
        for name, check in (
            ("num_cases", _integer),
            ("cancer_fraction", _real),
            ("population_seed", _integer),
        ):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.num_cases < 1:
            raise SimulationError(
                f"num_cases must be >= 1, got {self.num_cases!r}"
            )
        if not 0.0 <= self.cancer_fraction <= 1.0:
            raise SimulationError(
                f"cancer_fraction must lie in [0, 1], got {self.cancer_fraction!r}"
            )
        if self.population_seed < 0:
            raise SimulationError(
                f"population_seed must be >= 0, got {self.population_seed!r}"
            )

    def key(self) -> str:
        """Stable identity of the workload this spec builds.

        Two specs with equal keys build identical case sequences, which
        is exactly the deduplication invariant the compiler relies on.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        return (
            f"{self.population}/{self.profile}"
            f"/n{self.num_cases}/cf{self.cancer_fraction:g}"
            f"/s{self.population_seed}"
        )

    def build(self) -> Workload:
        """Materialise the workload (deterministic in the spec)."""
        population = POPULATIONS[self.population](seed=self.population_seed)
        if self.profile == "field":
            return field_workload(population, self.num_cases, name=self.key())
        return trial_workload(
            population,
            self.num_cases,
            cancer_fraction=self.cancer_fraction,
            name=self.key(),
        )


@dataclass(frozen=True)
class SystemSpec:
    """What system a cell evaluates, by configuration.

    Attributes:
        kind: ``"unaided"`` or ``"assisted"`` (reader + CADT).
        bias: Automation-bias preset name (a :data:`BIASES` key).
        dynamics: Temporal regime — ``"none"`` (stateless batch path),
            ``"adaptive"`` (trust dynamics) or ``"fatigue"`` (vigilance
            decrement); the latter two run on the engine's ordered
            stream-carry path.
        operating_point: CADT threshold shift (logit scale); ignored for
            unaided systems.  It must be finite, and high enough that a
            case at the top distractor level keeps a false-prompt rate
            the sampler supports (at most
            :data:`~repro._numeric.MAX_POISSON_RATE`; below about -6.3
            it does not).
    """

    kind: str = "assisted"
    bias: str = "mild"
    dynamics: str = "none"
    operating_point: float = 0.0

    def __post_init__(self) -> None:
        _name(self.kind, "system kind", SYSTEM_KINDS)
        _name(self.bias, "bias", BIASES)
        _name(self.dynamics, "dynamics", DYNAMICS)
        object.__setattr__(
            self, "operating_point", _real(self.operating_point, "operating_point")
        )
        # The false-prompt rate build()'s CADT computes for a case at the
        # top distractor level (1.0), which bounds every case's rate.
        worst_rate = (
            DetectionAlgorithm.base_false_prompt_rate
            * (1.0 + DetectionAlgorithm.distractor_gain)
            * _exp(-self.operating_point)
        )
        if worst_rate > MAX_POISSON_RATE:
            raise SimulationError(
                f"operating_point {self.operating_point!r} is too low: its "
                f"worst-case false-prompt rate {worst_rate:.6g} exceeds the "
                f"supported maximum {MAX_POISSON_RATE:g}"
            )

    def label(self) -> str:
        """Stable human-readable identity of the configured system."""
        return self._label

    @cached_property
    def _label(self) -> str:
        parts = [self.kind, f"bias={self.bias}", f"dyn={self.dynamics}"]
        if self.kind == "assisted":
            parts.append(f"op={self.operating_point:+g}")
        return "/".join(parts)

    def build(self, seed: int) -> ScreeningSystem:
        """Construct a fresh system; every component seed derives from ``seed``.

        The reader, its temporal wrapper and the CADT get seeds 0, 1 and
        2 of ``SeedSequence(seed).spawn(3)``, each as
        ``SpawnedSeed(seed, i)``: the integer is derived, and the
        private generator created, only at the component's first private
        draw.  Seeded evaluation threads one shared generator through
        every decision and never makes one, but the seeds keep even
        unseeded use of a built system deterministic in ``(spec, seed)``.
        """
        reader_seed, wrapper_seed, cadt_seed = (SpawnedSeed(seed, i) for i in range(3))
        reader = ReaderModel(
            skill=ReaderSkill(),
            bias=BIASES[self.bias],
            name="reader",
            seed=reader_seed,
        )
        wrapped: Any = reader
        if self.dynamics == "adaptive":
            wrapped = AdaptiveReader(reader, seed=wrapper_seed)
        elif self.dynamics == "fatigue":
            wrapped = FatiguedReader(reader, seed=wrapper_seed)
        if self.kind == "unaided":
            return UnaidedReading(wrapped, name=self.label())
        cadt = Cadt(
            DetectionAlgorithm(threshold_shift=self.operating_point),
            seed=cadt_seed,
        )
        return AssistedReading(wrapped, cadt, name=self.label())


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the grid: a workload spec x a system spec x a replicate."""

    workload: WorkloadSpec
    system: SystemSpec
    replicate: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicate", _integer(self.replicate, "replicate"))
        if self.replicate < 0:
            raise SimulationError(
                f"replicate must be >= 0, got {self.replicate!r}"
            )

    @property
    def cell_id(self) -> str:
        """Stable identity used by journals, reports, and reproduction."""
        return self.format_id(self.workload.key(), self.system.label(), self.replicate)

    @staticmethod
    def format_id(workload_key: str, system_label: str, replicate: int) -> str:
        """The id of the cell with this workload key, system label and replicate."""
        return f"{workload_key}|{system_label}|rep={replicate}"


@dataclass(frozen=True)
class ScenarioGrid:
    """A named cartesian grid of scenario cells.

    Axis defaults make every axis optional in grid files: an empty grid
    file with just a name is one assisted-reading cell on the routine
    trial workload.

    Attributes:
        name: Grid label (lands in reports and journals).
        populations: Population preset names.
        profiles: Demand profiles (``"trial"``/``"field"``).
        num_cases: Cases per workload.
        cancer_fraction: Trial-profile enrichment target.
        population_seed: Seed for every workload's population model.
        systems: System kinds.
        biases: Automation-bias preset names.
        dynamics: Temporal regimes.
        operating_points: CADT threshold shifts.
        replicates: Seeded repetitions of every axis combination.
    """

    name: str
    populations: tuple[str, ...] = ("routine",)
    profiles: tuple[str, ...] = ("trial",)
    num_cases: int = 2000
    cancer_fraction: float = 0.5
    population_seed: int = 0
    systems: tuple[str, ...] = ("assisted",)
    biases: tuple[str, ...] = ("mild",)
    dynamics: tuple[str, ...] = ("none",)
    operating_points: tuple[float, ...] = (0.0,)
    replicates: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SimulationError("grid name must be a non-empty string")
        for axis in (
            "populations",
            "profiles",
            "systems",
            "biases",
            "dynamics",
            "operating_points",
        ):
            values = getattr(self, axis)
            if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
                raise SimulationError(
                    f"grid axis {axis!r} must be a list, got {type(values).__name__}"
                )
            values = tuple(values)
            if axis == "operating_points":
                values = tuple(_real(value, "operating point") for value in values)
            elif not all(isinstance(value, str) for value in values):
                raise SimulationError(f"grid axis {axis!r} must list names, got {values!r}")
            object.__setattr__(self, axis, values)
            if not values:
                raise SimulationError(f"grid axis {axis!r} must be non-empty")
            if len(set(values)) != len(values):
                raise SimulationError(f"grid axis {axis!r} has duplicate values")
        for name, check in (
            ("num_cases", _integer),
            ("cancer_fraction", _real),
            ("population_seed", _integer),
            ("replicates", _integer),
        ):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.replicates < 1:
            raise SimulationError(
                f"replicates must be >= 1, got {self.replicates!r}"
            )
        # Validate axis values eagerly by building every distinct spec.
        self.workload_specs()
        self.system_specs()

    def _points_for(self, kind: str) -> tuple[float, ...]:
        """The operating points the ``kind`` axis actually varies over.

        Unaided systems have no CADT, so the operating-point axis
        collapses to one canonical cell for them — the cross product
        would otherwise emit duplicate cells differing only in a
        parameter that cannot affect the result.
        """
        if kind == "unaided":
            return (0.0,)
        return self.operating_points

    def __len__(self) -> int:
        per_workload = sum(
            len(self._points_for(kind)) * len(self.biases) * len(self.dynamics)
            for kind in self.systems
        )
        return (
            len(self.populations)
            * len(self.profiles)
            * per_workload
            * self.replicates
        )

    def workload_specs(self) -> tuple[WorkloadSpec, ...]:
        """The grid's distinct workloads, population outermost."""
        return tuple(
            WorkloadSpec(
                population=population,
                profile=profile,
                num_cases=self.num_cases,
                cancer_fraction=self.cancer_fraction,
                population_seed=self.population_seed,
            )
            for population in self.populations
            for profile in self.profiles
        )

    def system_specs(self) -> tuple[SystemSpec, ...]:
        """The grid's distinct systems, kind outermost, operating point innermost."""
        return tuple(
            SystemSpec(kind=kind, bias=bias, dynamics=dyn, operating_point=point)
            for kind in self.systems
            for bias in self.biases
            for dyn in self.dynamics
            for point in self._points_for(kind)
        )

    def cells(self) -> Iterator[ScenarioCell]:
        """The grid's cells in canonical order.

        The order (population, profile, system, bias, dynamics,
        operating point, replicate — outermost first) is part of the
        plan fingerprint: cell indices, and therefore per-cell seeds,
        are stable across runs of one grid.  Every workload's cells are
        one contiguous run of that order.
        """
        systems = self.system_specs()
        for workload in self.workload_specs():
            for system in systems:
                for replicate in range(self.replicates):
                    yield ScenarioCell(workload=workload, system=system, replicate=replicate)

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (the grid-file format)."""
        return {
            "schema": GRID_SCHEMA_VERSION,
            "name": self.name,
            "workload": {
                "num_cases": self.num_cases,
                "cancer_fraction": self.cancer_fraction,
                "population_seed": self.population_seed,
            },
            "axes": {
                "populations": list(self.populations),
                "profiles": list(self.profiles),
                "systems": list(self.systems),
                "biases": list(self.biases),
                "dynamics": list(self.dynamics),
                "operating_points": list(self.operating_points),
                "replicates": self.replicates,
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioGrid":
        """Parse a grid from its JSON representation.

        Unknown keys are rejected loudly — a typoed axis name silently
        falling back to its default would sweep the wrong grid.
        """
        if not isinstance(payload, Mapping):
            raise SimulationError(
                f"grid must be a JSON object, got {type(payload).__name__}"
            )
        known_top = {"schema", "name", "workload", "axes"}
        unknown = set(payload) - known_top
        if unknown:
            raise SimulationError(
                f"unknown grid keys {sorted(unknown)}; expected {sorted(known_top)}"
            )
        schema = payload.get("schema", GRID_SCHEMA_VERSION)
        if schema != GRID_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported grid schema {schema!r}; "
                f"this build reads schema {GRID_SCHEMA_VERSION}"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise SimulationError("grid 'name' must be a non-empty string")
        workload = payload.get("workload", {})
        axes = payload.get("axes", {})
        for section, value in (("workload", workload), ("axes", axes)):
            if not isinstance(value, Mapping):
                raise SimulationError(
                    f"grid {section!r} must be a JSON object, got {type(value).__name__}"
                )
        known_workload = {"num_cases", "cancer_fraction", "population_seed"}
        unknown = set(workload) - known_workload
        if unknown:
            raise SimulationError(
                f"unknown workload keys {sorted(unknown)}; "
                f"expected {sorted(known_workload)}"
            )
        known_axes = {
            "populations",
            "profiles",
            "systems",
            "biases",
            "dynamics",
            "operating_points",
            "replicates",
        }
        unknown = set(axes) - known_axes
        if unknown:
            raise SimulationError(
                f"unknown axes {sorted(unknown)}; expected {sorted(known_axes)}"
            )
        # Values pass through as parsed: the constructor checks their types.
        defaults = {f.name: f.default for f in fields(cls)}
        return cls(
            name=name,
            **{key: workload.get(key, defaults[key]) for key in known_workload},
            **{key: axes.get(key, defaults[key]) for key in known_axes},
        )

    def to_file(self, path: str | Path) -> None:
        """Write the grid as a JSON grid file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioGrid":
        """Load a grid from a JSON grid file.

        Raises:
            SimulationError: on an unreadable file, invalid JSON, or an
                invalid grid.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise SimulationError(f"cannot read grid file {path}: {exc}") from exc
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SimulationError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload)
