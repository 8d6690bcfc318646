"""Synthetic screening-population substrate.

Replaces the clinical case sets the paper's trials used (which cannot be
shipped) with a generator whose latent structure exercises the same code
paths: rare cancers, observable covariates, and correlated per-case
difficulty for the machine and the reader.  See DESIGN.md for the
substitution rationale.
"""

from .case import Case, LesionType
from .classifier import (
    DEFAULT_CLASSIFIER,
    CaseClassifier,
    CompositeClassifier,
    DensityBandClassifier,
    FunctionClassifier,
    LesionTypeClassifier,
    OracleDifficultyClassifier,
    SingleClassClassifier,
    SubtletyClassifier,
)
from .presets import (
    low_correlation_population,
    routine_screening_population,
    symptomatic_clinic_population,
    young_cohort_population,
)
from .population import DEFAULT_LESION_PROFILES, LesionProfile, PopulationModel
from .workload import Workload, empirical_profile, field_workload, trial_workload

__all__ = [
    "Case",
    "LesionType",
    "LesionProfile",
    "PopulationModel",
    "DEFAULT_LESION_PROFILES",
    "CaseClassifier",
    "DEFAULT_CLASSIFIER",
    "SingleClassClassifier",
    "SubtletyClassifier",
    "DensityBandClassifier",
    "LesionTypeClassifier",
    "CompositeClassifier",
    "FunctionClassifier",
    "OracleDifficultyClassifier",
    "Workload",
    "field_workload",
    "trial_workload",
    "empirical_profile",
    "routine_screening_population",
    "young_cohort_population",
    "symptomatic_clinic_population",
    "low_correlation_population",
]
