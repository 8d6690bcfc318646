"""Synthetic screening-population generator.

Generates :class:`~repro.screening.case.Case` streams with the statistical
structure the paper's analysis depends on:

* low cancer prevalence in the field (< 1% in the paper's screened
  population), with enriched sampling available for trials;
* per-case difficulty that varies systematically with observable features
  (lesion type, subtlety, breast density);
* a controllable *correlation* between difficulty-for-the-machine and
  difficulty-for-the-reader — the knob behind all the diversity analysis:
  at high correlation the two components fail on the same cases
  (common-mode weakness), at zero they fail diversely.

Difficulties are produced by a logistic transform of a linear latent
model: a shared standard-normal factor (weighted by
``difficulty_correlation``) plus independent component-specific noise,
shifted by lesion-type base levels and the observable covariates.  The
logistic keeps every per-case probability in ``(0, 1)`` smoothly.

Cases are drawn straight into columns (a
:class:`~repro.engine.arrays.CaseArrays`, which workloads hold): each
case's draws come off the model's one generator in a fixed per-case
order, and the difficulties are then computed column-wise.  So a seed
fixes every workload byte for byte, and the ``generate*`` methods and
:meth:`PopulationModel.stream` return :class:`Case` objects materialised
from the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .._numeric import sigmoid as _sigmoid
from .._numeric import sqrt as _sqrt
from .._validation import PROBABILITY_ATOL, check_probability
from ..exceptions import SimulationError
from .case import Case, LesionType

if TYPE_CHECKING:
    from ..engine.arrays import CaseArrays

__all__ = ["LesionProfile", "PopulationModel", "DEFAULT_LESION_PROFILES"]

#: Layout of one raw row of :meth:`PopulationModel._draws`.
_ROW = (
    "case_id", "has_cancer", "profile_uniform", "breast_density", "subtlety",
    "shared", "machine_noise", "human_noise", "distractor_level",
)


@dataclass(frozen=True)
class LesionProfile:
    """Base difficulty signature of one lesion type.

    The values are logits: 0 maps to difficulty 0.5, -2 to ~0.12, +2 to
    ~0.88.  Covariate effects are added on top before the logistic.

    Attributes:
        lesion_type: The lesion category this profile describes.
        frequency: Relative frequency of this lesion type among cancers.
        machine_base: Base logit of the CADT's per-case miss probability.
        human_detection_base: Base logit of the reader's unaided miss
            probability.
        human_classification_base: Base logit of the reader's
            misclassification probability once features are seen.
    """

    lesion_type: LesionType
    frequency: float
    machine_base: float
    human_detection_base: float
    human_classification_base: float

    def __post_init__(self) -> None:
        if self.frequency < 0:
            raise SimulationError(
                f"lesion frequency must be non-negative, got {self.frequency!r}"
            )


#: Literature-flavoured default mix: CADTs excel at microcalcifications,
#: struggle with distortions; readers are the other way around for
#: classification.  Frequencies are a plausible screening mix.
DEFAULT_LESION_PROFILES: tuple[LesionProfile, ...] = (
    LesionProfile(LesionType.MICROCALCIFICATION, 0.30, -3.2, -1.6, -2.2),
    LesionProfile(LesionType.MASS, 0.45, -2.0, -1.9, -2.0),
    LesionProfile(LesionType.ARCHITECTURAL_DISTORTION, 0.15, -0.6, -1.0, -1.4),
    LesionProfile(LesionType.ASYMMETRY, 0.10, -0.9, -1.2, -1.6),
)


class PopulationModel:
    """Generator of synthetic screening cases.

    Args:
        prevalence: Fraction of screened patients with cancer (the paper
            cites < 1%; default 0.006).
        lesion_profiles: Difficulty signatures and mix of lesion types.
        difficulty_correlation: Weight in ``[0, 1]`` of the latent factor
            shared between machine and reader detection difficulty; 0 makes
            the components' per-case difficulties (conditionally on the
            covariates) independent, 1 makes them move together.
        subtlety_spread: Scale of the subtlety effect on detection logits.
        density_spread: Scale of the breast-density effect.
        noise_scale: Scale of the component-specific latent noise.
        seed: Seed for the internal random generator (streams are
            reproducible per seed).
    """

    def __init__(
        self,
        prevalence: float = 0.006,
        lesion_profiles: Sequence[LesionProfile] = DEFAULT_LESION_PROFILES,
        difficulty_correlation: float = 0.5,
        subtlety_spread: float = 3.0,
        density_spread: float = 1.2,
        noise_scale: float = 0.6,
        seed: int | None = None,
    ):
        self.prevalence = check_probability(prevalence, "prevalence")
        if not lesion_profiles:
            raise SimulationError("at least one lesion profile is required")
        total_frequency = math.fsum(p.frequency for p in lesion_profiles)
        if total_frequency <= 0:
            raise SimulationError("lesion frequencies must have a positive sum")
        self.lesion_profiles = tuple(lesion_profiles)
        self._lesion_weights = np.array(
            [p.frequency / total_frequency for p in lesion_profiles]
        )
        self.difficulty_correlation = check_probability(
            difficulty_correlation, "difficulty_correlation"
        )
        if subtlety_spread < 0 or density_spread < 0 or noise_scale < 0:
            raise SimulationError("spread and noise parameters must be non-negative")
        self.subtlety_spread = float(subtlety_spread)
        self.density_spread = float(density_spread)
        self.noise_scale = float(noise_scale)
        self._rng = np.random.default_rng(seed)
        self._next_id = 0

    # -- the draw routine ---------------------------------------------------------

    def _draws(self, cancer: bool | None = None) -> Iterator[tuple[float, ...]]:
        """Endless raw draws on the model's one generator, one row per case.

        The one implementation of the per-case draw order.  ``cancer``
        fixes every case's truth; ``None`` first draws it at the
        prevalence (one uniform).  A cancer then draws its lesion-profile
        uniform, density, subtlety, the shared, machine and human latent
        normals and its distractor level; a healthy case draws its
        density, distractor level and one noise normal.  Rows follow
        :data:`_ROW` (a healthy row's normal sits in the ``shared`` slot,
        its unused slots hold 0.0); each row uses up one case id.
        """
        random, beta, normal = self._rng.random, self._rng.beta, self._rng.normal
        while True:
            case_id = self._next_id
            self._next_id += 1
            has_cancer = random() < self.prevalence if cancer is None else cancer
            if has_cancer:
                # Density ~ Beta(2.2, 2.8): most women mid-density, tails in
                # both directions.  Subtlety ~ Beta(1.8, 2.4): most
                # screening-detected cancers are moderately subtle; frank
                # cancers are commoner than invisible ones.
                yield (
                    case_id, True, random(), beta(2.2, 2.8), beta(1.8, 2.4),
                    normal(), normal(), normal(), beta(2.0, 5.0),
                )
            else:
                density, distractors = beta(2.2, 2.8), beta(2.0, 4.0)
                yield (case_id, False, 0.0, density, 0.0, normal(), 0.0, 0.0, distractors)

    def _columns(self, rows: Sequence[tuple[float, ...]]) -> CaseArrays:
        """Rows of :meth:`_draws` as validated case columns, in row order.

        The lesion profile is ``rng.choice``'s own inversion of its one
        uniform (``searchsorted`` on the normalised cdf).  Difficulties
        are computed column-wise through :mod:`repro._numeric` in the
        per-case formulas' operation order, so every element has the bits
        a scalar evaluation gives.  Healthy cases carry a classification
        difficulty (the probability an average reader finds their benign
        features suspicious) and zero detection difficulties, since there
        is nothing to detect.  :class:`Case`'s checks then run over whole
        columns.
        """
        # Imported lazily: the engine imports this package at load time.
        from ..engine.arrays import LESION_CODES, CaseArrays

        n = len(rows)
        table = np.fromiter(chain.from_iterable(rows), np.float64, n * len(_ROW))
        (case_id, truth, uniform, density, subtlety, shared, machine_noise,
         human_noise, distractors) = table.reshape(n, len(_ROW)).T.copy()
        cancer = truth.astype(bool)
        healthy = ~cancer
        cdf = self._lesion_weights.cumsum()
        cdf /= cdf[-1]
        profile = cdf.searchsorted(uniform[cancer], side="right")

        def per_profile(values: list) -> np.ndarray:
            return np.array(values)[profile]

        profiles = self.lesion_profiles
        lesion_code = np.full(n, -1, dtype=np.int8)
        lesion_code[cancer] = per_profile([LESION_CODES.index(p.lesion_type) for p in profiles])

        rho = self.difficulty_correlation
        idiosyncratic = _sqrt(1.0 - rho * rho)
        machine_latent = rho * shared[cancer] + idiosyncratic * machine_noise[cancer]
        human_latent = rho * shared[cancer] + idiosyncratic * human_noise[cancer]
        covariates = self.subtlety_spread * (subtlety[cancer] - 0.5) + self.density_spread * (
            density[cancer] - 0.5
        )
        machine = np.zeros(n)
        machine[cancer] = _sigmoid(
            per_profile([p.machine_base for p in profiles])
            + covariates
            + self.noise_scale * machine_latent
        )
        detection = np.zeros(n)
        detection[cancer] = _sigmoid(
            per_profile([p.human_detection_base for p in profiles])
            + covariates
            + self.noise_scale * human_latent
        )
        classification = np.empty(n)
        classification[cancer] = _sigmoid(
            per_profile([p.human_classification_base for p in profiles])
            + 0.5 * covariates
            + self.noise_scale * 0.5 * human_latent
        )
        classification[healthy] = _sigmoid(
            -3.0 + 2.2 * distractors[healthy] + 1.0 * (density[healthy] - 0.5)
            + self.noise_scale * shared[healthy]
        )
        if np.any((lesion_code < 0) == cancer):
            raise ValueError("a cancer case lacks a lesion type or a healthy case has one")
        return CaseArrays(
            case_id=case_id.astype(np.int64),
            has_cancer=cancer,
            lesion_code=lesion_code,
            **_checked_probabilities(
                {
                    "breast_density": density,
                    "subtlety": subtlety,
                    "machine_difficulty": machine,
                    "human_detection_difficulty": detection,
                    "human_classification_difficulty": classification,
                    "distractor_level": distractors,
                }
            ),
        )

    def _draw(self, num_cases: int, cancer: bool | None = None) -> CaseArrays:
        """``num_cases`` consecutive cases as columns (see :meth:`_draws`)."""
        if num_cases < 0:
            raise SimulationError(f"num_cases must be non-negative, got {num_cases!r}")
        return self._columns(list(islice(self._draws(cancer), num_cases)))

    # -- case objects ---------------------------------------------------------------

    def generate_cancer_case(self) -> Case:
        """Generate one case that truly has cancer."""
        return self._draw(1, cancer=True).to_cases()[0]

    def generate_healthy_case(self) -> Case:
        """Generate one case without cancer.

        Healthy cases carry a ``distractor_level`` (benign features that
        attract false prompts and false recalls) and a classification
        difficulty (the probability an average reader finds the benign
        features suspicious); detection difficulties are zero by
        convention since there is nothing to detect.
        """
        return self._draw(1, cancer=False).to_cases()[0]

    def generate_case(self) -> Case:
        """Generate one case with cancer at the model's prevalence."""
        return self._draw(1).to_cases()[0]

    def generate(self, num_cases: int) -> list[Case]:
        """Generate ``num_cases`` cases at the field prevalence."""
        return list(self._draw(num_cases).to_cases())

    def generate_cancers(self, num_cases: int) -> list[Case]:
        """Generate ``num_cases`` cancer cases (for enriched trial sets)."""
        return list(self._draw(num_cases, cancer=True).to_cases())

    def generate_healthy(self, num_cases: int) -> list[Case]:
        """Generate ``num_cases`` healthy cases."""
        return list(self._draw(num_cases, cancer=False).to_cases())

    def stream(self) -> Iterator[Case]:
        """Endless stream of cases at the field prevalence."""
        for row in self._draws():
            yield self._columns([row]).to_cases()[0]


def _checked_probabilities(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """:func:`~repro._validation.check_probability` over whole columns.

    Raises the error :class:`Case` raises for the first bad value (case
    by case, fields in order), and clips values within tolerance of
    ``[0, 1]`` onto it.  Returns the columns as rows of one new block.
    """
    block = np.array(list(columns.values()))
    bad = ~np.isfinite(block) | (block < -PROBABILITY_ATOL) | (block > 1.0 + PROBABILITY_ATOL)
    if bad.any():
        case, field = np.argwhere(bad.T)[0]
        check_probability(float(block[field, case]), list(columns)[field])
    block[block < 0.0] = 0.0
    block[block > 1.0] = 1.0
    return dict(zip(columns, block))
