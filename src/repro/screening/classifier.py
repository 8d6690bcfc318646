"""Criteria for dividing cases into classes of demands.

The paper's models require "a useful classification of the cases into
classes" using "characteristics that are easy to identify" (Section 4),
and its conclusions announce "selecting alternative criteria for dividing
the cases into classes" as ongoing work.  This module provides that menu
of criteria as interchangeable classifier objects: every classifier maps a
:class:`~repro.screening.case.Case` to a
:class:`~repro.core.case_class.CaseClass` using only *observable*
attributes (never the latent difficulties), exactly as a trial analyst
could.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

import numpy as np

from ..core.case_class import DIFFICULT, EASY, CaseClass
from ..exceptions import ParameterError
from .case import Case, LesionType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..engine.arrays import CaseArrays

__all__ = [
    "CaseClassifier",
    "DEFAULT_CLASSIFIER",
    "SingleClassClassifier",
    "SubtletyClassifier",
    "DensityBandClassifier",
    "LesionTypeClassifier",
    "CompositeClassifier",
    "FunctionClassifier",
]


class CaseClassifier(Protocol):
    """Anything that assigns a case class to a case.

    Implementations must be deterministic functions of observable case
    attributes, and must declare their full set of possible classes so
    estimators can report zero-count classes explicitly.
    """

    def classify(self, case: Case) -> CaseClass:
        """The class of ``case``."""
        ...

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        """Every class this classifier can emit."""
        ...


# Optional extension of the protocol (not required of third parties):
#
#     def classify_batch(self, arrays: CaseArrays) -> np.ndarray
#
# returns, for every case of the batch, the *index* of its class in
# ``self.classes`` as one ``int64[n]`` array — the same labels
# ``classify`` assigns case by case, computed vectorized.  The engine
# probes for it with ``getattr`` and falls back to the per-case loop
# when it is absent or raises ``NotImplementedError``, so classifiers
# that only implement ``classify`` keep working everywhere.


@dataclass(frozen=True)
class SingleClassClassifier:
    """The trivial classification: every case in one class.

    The degenerate end of the class-granularity ablation — using it turns
    the conditional model into the marginal model the paper warns about.
    """

    case_class: CaseClass = CaseClass("all")

    def classify(self, case: Case) -> CaseClass:
        return self.case_class

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Class indices of a whole batch (all zero: the single class)."""
        return np.zeros(len(arrays), dtype=np.int64)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return (self.case_class,)


#: The classifier every call given none uses: one shared instance, so the
#: class codes memoised per classifier object on a workload's arrays are
#: computed once for all such calls.
DEFAULT_CLASSIFIER = SingleClassClassifier()


class SubtletyClassifier:
    """The paper's two-class "easy"/"difficult" criterion.

    A cancer is "difficult" when its observable presentation score —
    subtlety plus a density contribution — exceeds a threshold.  Healthy
    cases are scored on distractor level and density instead (what makes a
    normal film hard is how much it *looks* abnormal).

    Args:
        threshold: Score above which a case is "difficult".
        density_weight: Contribution of breast density to the score.
    """

    def __init__(self, threshold: float = 0.55, density_weight: float = 0.3):
        if not 0.0 < threshold < 2.0:
            raise ParameterError(f"threshold must be in (0, 2), got {threshold!r}")
        if density_weight < 0:
            raise ParameterError(f"density_weight must be >= 0, got {density_weight!r}")
        self.threshold = float(threshold)
        self.density_weight = float(density_weight)

    def score(self, case: Case) -> float:
        """The observable presentation score used for thresholding."""
        if case.has_cancer:
            return case.subtlety + self.density_weight * case.breast_density
        return case.distractor_level + self.density_weight * case.breast_density

    def classify(self, case: Case) -> CaseClass:
        return DIFFICULT if self.score(case) > self.threshold else EASY

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Class indices of a whole batch; same scores, elementwise."""
        base = np.where(arrays.has_cancer, arrays.subtlety, arrays.distractor_level)
        scores = base + self.density_weight * arrays.breast_density
        return (scores > self.threshold).astype(np.int64)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return (EASY, DIFFICULT)


class DensityBandClassifier:
    """Classes by breast-density bands (a BI-RADS-like criterion).

    Args:
        boundaries: Increasing density cut points in ``(0, 1)``; ``n``
            boundaries produce ``n + 1`` bands named ``density_0`` (least
            dense) through ``density_n``.
    """

    def __init__(self, boundaries: Sequence[float] = (0.35, 0.65)):
        boundaries = tuple(float(b) for b in boundaries)
        if not boundaries:
            raise ParameterError("at least one density boundary is required")
        if list(boundaries) != sorted(set(boundaries)):
            raise ParameterError(f"boundaries must be strictly increasing, got {boundaries!r}")
        if boundaries[0] <= 0.0 or boundaries[-1] >= 1.0:
            raise ParameterError(f"boundaries must lie strictly inside (0, 1), got {boundaries!r}")
        self.boundaries = boundaries
        self._classes = tuple(
            CaseClass(f"density_{i}", f"breast density band {i}")
            for i in range(len(boundaries) + 1)
        )

    def classify(self, case: Case) -> CaseClass:
        band = sum(1 for b in self.boundaries if case.breast_density > b)
        return self._classes[band]

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Band indices of a whole batch.

        ``searchsorted(..., side="left")`` counts boundaries strictly
        below each density — the same strict ``>`` comparison
        :meth:`classify` applies, ties included.
        """
        return np.searchsorted(
            np.asarray(self.boundaries), arrays.breast_density, side="left"
        ).astype(np.int64)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return self._classes


class LesionTypeClassifier:
    """Classes by radiological lesion type; healthy cases get ``normal``."""

    def __init__(self) -> None:
        self._by_type = {
            lesion: CaseClass(lesion.value, f"cancers presenting as {lesion.value}")
            for lesion in LesionType
        }
        self._normal = CaseClass("normal", "cases without cancer")

    def classify(self, case: Case) -> CaseClass:
        if case.lesion_type is None:
            return self._normal
        return self._by_type[case.lesion_type]

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Class indices of a whole batch.

        ``CaseArrays.lesion_code`` already indexes
        :data:`~repro.engine.arrays.LESION_CODES` — the same
        ``LesionType`` order :attr:`classes` uses — so cancer codes map
        through unchanged and ``-1`` (healthy) maps to the trailing
        ``normal`` class.
        """
        codes = arrays.lesion_code.astype(np.int64)
        return np.where(codes < 0, np.int64(len(self._by_type)), codes)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return tuple(self._by_type[lesion] for lesion in LesionType) + (self._normal,)


class CompositeClassifier:
    """Cross-product of two classifiers (finer granularity).

    The emitted class names are ``"<first>/<second>"``; the class count is
    the product of the two underlying counts, which is how the
    class-granularity ablation refines a classification.
    """

    def __init__(self, first: CaseClassifier, second: CaseClassifier):
        self.first = first
        self.second = second
        self._classes = tuple(
            CaseClass(f"{a.name}/{b.name}", f"{a.description}; {b.description}")
            for a in first.classes
            for b in second.classes
        )

    def classify(self, case: Case) -> CaseClass:
        a = self.first.classify(case)
        b = self.second.classify(case)
        return CaseClass(f"{a.name}/{b.name}")

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Cross-product indices of a whole batch.

        :attr:`classes` enumerates the product with the second
        classifier's classes varying fastest, so the joint index is
        ``first * len(second.classes) + second``.

        Raises:
            NotImplementedError: when either underlying classifier lacks
                ``classify_batch``; callers then take the per-case path.
        """
        first_batch = getattr(self.first, "classify_batch", None)
        second_batch = getattr(self.second, "classify_batch", None)
        if first_batch is None or second_batch is None:
            raise NotImplementedError(
                "both underlying classifiers must support classify_batch"
            )
        first_codes = np.asarray(first_batch(arrays), dtype=np.int64)
        second_codes = np.asarray(second_batch(arrays), dtype=np.int64)
        return first_codes * np.int64(len(self.second.classes)) + second_codes

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return self._classes


class OracleDifficultyClassifier:
    """Classes by the *latent* per-case difficulty — unavailable in practice.

    An experimenter can only classify by observable characteristics; the
    latent difficulties that actually drive failures are hidden.  This
    oracle classifier thresholds the true latent difficulty directly, and
    exists to bound how much of the extrapolation error of a real
    classifier comes from imperfect observability (footnote 1's
    homogeneity condition): the oracle's classes are as homogeneous as a
    two-way split can be.

    Args:
        boundaries: Increasing cut points on the case's mean latent
            difficulty; ``n`` boundaries produce ``n + 1`` classes named
            ``oracle_0`` (easiest) through ``oracle_n``.
    """

    def __init__(self, boundaries: Sequence[float] = (0.25,)):
        boundaries = tuple(float(b) for b in boundaries)
        if not boundaries:
            raise ParameterError("at least one difficulty boundary is required")
        if list(boundaries) != sorted(set(boundaries)):
            raise ParameterError(
                f"boundaries must be strictly increasing, got {boundaries!r}"
            )
        if boundaries[0] <= 0.0 or boundaries[-1] >= 1.0:
            raise ParameterError(
                f"boundaries must lie strictly inside (0, 1), got {boundaries!r}"
            )
        self.boundaries = boundaries
        self._classes = tuple(
            CaseClass(f"oracle_{i}", f"latent difficulty band {i}")
            for i in range(len(boundaries) + 1)
        )

    def classify(self, case: Case) -> CaseClass:
        band = sum(1 for b in self.boundaries if case.overall_difficulty > b)
        return self._classes[band]

    def classify_batch(self, arrays: "CaseArrays") -> np.ndarray:
        """Band indices of a whole batch, from the same latent summary.

        Replays :attr:`~repro.screening.case.Case.overall_difficulty`
        elementwise (same operation order), then counts boundaries with
        the same strict comparison as :meth:`classify`.
        """
        difficulty = (
            arrays.machine_difficulty
            + arrays.human_detection_difficulty
            + arrays.human_classification_difficulty
        ) / 3.0
        return np.searchsorted(
            np.asarray(self.boundaries), difficulty, side="left"
        ).astype(np.int64)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return self._classes


class FunctionClassifier:
    """Adapter wrapping a plain function as a classifier.

    Args:
        function: Maps a case to one of ``classes``.
        classes: Every class the function can emit.
    """

    def __init__(self, function: Callable[[Case], CaseClass], classes: Iterable[CaseClass]):
        self._function = function
        self._classes = tuple(classes)
        if not self._classes:
            raise ParameterError("FunctionClassifier needs at least one class")

    def classify(self, case: Case) -> CaseClass:
        result = self._function(case)
        if result not in self._classes:
            raise ParameterError(
                f"classifier function returned undeclared class {result!r}"
            )
        return result

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        return self._classes
