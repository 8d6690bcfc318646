"""Workloads: concrete sequences of cases with known composition.

A :class:`Workload` is what actually gets fed to simulated systems and
trials — a finite sequence of cases plus bookkeeping, held as read-only
columns (a :class:`~repro.engine.arrays.CaseArrays`) that the batch
engine reads directly.  The two builders draw straight into columns and
mirror the paper's central contrast:

* :func:`field_workload` — cases drawn at the population's natural
  prevalence (cancers are rare, < 1%);
* :func:`trial_workload` — the enriched mix used in controlled trials,
  "chosen to have a much higher proportion of cancers ... to make the
  trial reasonably short".

:func:`empirical_profile` recovers the demand profile a classifier induces
over a workload's cancer cases, which is the ``p(x)`` the models consume.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .._numeric import exp as _exp
from .._validation import check_probability
from ..core.profile import DemandProfile
from ..exceptions import SimulationError
from .case import Case
from .classifier import CaseClassifier
from .population import _ROW, PopulationModel

if TYPE_CHECKING:
    from ..engine.arrays import CaseArrays

__all__ = ["Workload", "field_workload", "trial_workload", "empirical_profile"]

_SUBTLETY = _ROW.index("subtlety")


class Workload:
    """A named, finite sequence of screening cases, held as read-only columns.

    The columns are the content: :meth:`to_arrays` returns them as they
    are, and :meth:`fingerprint` digests them once.  :attr:`cases` and
    iteration materialise :class:`Case` objects on first use and cache
    them.  Two workloads are equal when their names and contents are.

    Args:
        name: Human-readable label (e.g. ``"field"``, ``"trial"``).
        cases: The cases, in presentation order: :class:`Case` objects
            (columnised once, here), or columns taken as they are and
            made read-only — they must pass :class:`Case`'s checks, as
            the population model's do.
    """

    def __init__(self, name: str, cases: Iterable[Case] | CaseArrays) -> None:
        # Imported lazily: the engine imports this module at load time.
        from ..engine.arrays import ARRAY_FIELDS, CaseArrays

        if not name:
            raise SimulationError("workload name must be non-empty")
        self._cases: tuple[Case, ...] | None = None
        if not isinstance(cases, CaseArrays):
            self._cases = tuple(cases)
            cases = CaseArrays.from_cases(self._cases)
        for column in ARRAY_FIELDS:
            getattr(cases, column).flags.writeable = False
        self._name = name
        self._arrays = cases
        self._fingerprint: str | None = None

    def __reduce__(self):
        return Workload, (self._name, self._arrays)

    @property
    def name(self) -> str:
        """The workload's label."""
        return self._name

    @property
    def cases(self) -> tuple[Case, ...]:
        """The cases, in presentation order (materialised on first use)."""
        if self._cases is None:
            self._cases = self._arrays.to_cases()
        return self._cases

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self) -> Iterator[Case]:
        return iter(self.cases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return self._name == other._name and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash((self._name, self.fingerprint()))

    def __repr__(self) -> str:
        return f"Workload(name={self._name!r}, cases={len(self)})"

    @property
    def cancer_cases(self) -> tuple[Case, ...]:
        """The subset of cases with cancer, in order."""
        return tuple(case for case in self.cases if case.has_cancer)

    @property
    def healthy_cases(self) -> tuple[Case, ...]:
        """The subset of cases without cancer, in order."""
        return tuple(case for case in self.cases if not case.has_cancer)

    @property
    def cancer_fraction(self) -> float:
        """Observed fraction of cancer cases (0 for an empty workload)."""
        if not len(self):
            return 0.0
        return int(np.count_nonzero(self._arrays.has_cancer)) / len(self)

    def split_by_truth(self) -> tuple["Workload", "Workload"]:
        """Split into (cancers, healthy) sub-workloads."""
        cancer = self._arrays.has_cancer
        return (
            Workload(f"{self.name}/cancers", self._arrays.take(cancer)),
            Workload(f"{self.name}/healthy", self._arrays.take(~cancer)),
        )

    def fingerprint(self) -> str:
        """Content digest of the columns, computed on first call.

        :meth:`~repro.engine.arrays.CaseArrays.digest` (sha1 over the
        length and every column): equal contents give equal
        fingerprints, and the read-only columns cannot change under it.
        Workload ``==`` and ``hash`` compare it.
        """
        if self._fingerprint is None:
            self._fingerprint = self._arrays.digest()
        return self._fingerprint

    def to_arrays(self) -> CaseArrays:
        """The workload as a struct of arrays for the batch engine.

        Returns the held read-only :class:`~repro.engine.arrays.CaseArrays`
        itself: no copy, no hash, no re-check.
        """
        return self._arrays


def field_workload(
    population: PopulationModel, num_cases: int, name: str = "field"
) -> Workload:
    """Cases at the population's natural prevalence.

    Args:
        population: The generating population model (carries its own RNG).
        num_cases: How many cases to draw.
        name: Workload label.
    """
    return Workload(name, population._draw(num_cases))


def trial_workload(
    population: PopulationModel,
    num_cases: int,
    cancer_fraction: float = 0.5,
    name: str = "trial",
    subtlety_enrichment: float = 0.0,
    selection_seed: int | None = None,
) -> Workload:
    """An enriched case mix, as used in controlled trials.

    The number of cancers is the expected count rounded to nearest, so the
    realised fraction matches ``cancer_fraction`` as closely as an integer
    split allows.  The population draws the cancers, then the healthy
    cases; they are then interleaved deterministically, so truth is not
    correlated with position.

    Besides enriching the cancer *fraction*, real trial case sets are also
    deliberately selected for composition — typically overweighting subtle
    presentations to stress the tool (the paper's Table 1 trial has twice
    the field's share of "difficult" cases).  ``subtlety_enrichment``
    models that selection: cancers are rejection-sampled with acceptance
    probability ``exp(subtlety_enrichment * (subtlety - 1))``, so positive
    values tilt the mix toward subtle (difficult) cancers while 0 keeps
    the population's natural cancer mix.  A rejected candidate still uses
    up its draws and its case id.

    Args:
        population: The generating population model.
        num_cases: Total number of cases.
        cancer_fraction: Target fraction of cancer cases (the paper's
            trials used a "much higher proportion of cancers" than <1%).
        name: Workload label.
        subtlety_enrichment: Strength (>= 0) of the selection bias toward
            subtle cancer presentations; 0 disables selection.
        selection_seed: Seed for the rejection-sampling draws (only used
            when ``subtlety_enrichment`` > 0).
    """
    cancer_fraction = check_probability(cancer_fraction, "cancer_fraction")
    if num_cases < 0:
        raise SimulationError(f"num_cases must be non-negative, got {num_cases!r}")
    if subtlety_enrichment < 0:
        raise SimulationError(
            f"subtlety_enrichment must be >= 0, got {subtlety_enrichment!r}"
        )
    num_cancers = round(num_cases * cancer_fraction)
    num_healthy = num_cases - num_cancers
    candidates = population._draws(cancer=True)
    if subtlety_enrichment > 0:
        selection_rng = np.random.default_rng(selection_seed)
        rows: list[tuple[float, ...]] = []
        cancers: list[int] = []
        max_attempts = max(1000, num_cancers * 200)
        while len(cancers) < num_cancers:
            if len(rows) >= max_attempts:
                raise SimulationError(
                    "subtlety enrichment rejection sampling did not converge; "
                    "lower subtlety_enrichment or check the population model"
                )
            rows.append(next(candidates))
            acceptance = _exp(subtlety_enrichment * (rows[-1][_SUBTLETY] - 1.0))
            if float(selection_rng.random()) < acceptance:
                cancers.append(len(rows) - 1)
    else:
        rows = list(islice(candidates, num_cancers))
        cancers = list(range(num_cancers))
    rows += islice(population._draws(cancer=False), num_healthy)
    # Interleave deterministically so truth is not correlated with position:
    # the credit loop picks each slot's truth, and the gather fills the
    # cancer slots with the kept candidates and the rest with the healthy.
    cancer_slots: list[bool] = []
    remaining_cancers, remaining_healthy = num_cancers, num_healthy
    credit = 0.0
    for _ in range(num_cases):
        take_cancer = remaining_cancers > 0 and (
            remaining_healthy == 0 or credit + cancer_fraction >= 1.0
        )
        cancer_slots.append(take_cancer)
        if take_cancer:
            remaining_cancers -= 1
            credit += cancer_fraction - 1.0
        else:
            remaining_healthy -= 1
            credit += cancer_fraction
    slots = np.array(cancer_slots, dtype=bool)
    order = np.empty(num_cases, dtype=np.intp)
    order[slots] = cancers
    order[~slots] = np.arange(len(rows) - num_healthy, len(rows))
    return Workload(name, population._columns(rows).take(order))


def empirical_profile(
    cases: Iterable[Case],
    classifier: CaseClassifier,
    cancers_only: bool = True,
) -> DemandProfile:
    """The demand profile a classifier induces over a set of cases.

    Args:
        cases: Cases to classify (a workload iterates as its cases).
        classifier: The classification criterion.
        cancers_only: Restrict to cancer cases (the false-negative model's
            demand space) — the default, matching the paper's Section 2.3
            restriction; set ``False`` for the false-positive side.

    Raises:
        SimulationError: if no (matching) cases are supplied.
    """
    counts: dict[str, int] = {}
    for case in cases:
        if cancers_only and not case.has_cancer:
            continue
        if not cancers_only and case.has_cancer:
            continue
        name = classifier.classify(case).name
        counts[name] = counts.get(name, 0) + 1
    if not counts:
        kind = "cancer" if cancers_only else "healthy"
        raise SimulationError(f"no {kind} cases supplied; cannot form a profile")
    return DemandProfile.from_counts(counts)
