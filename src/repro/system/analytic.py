"""Deriving sequential-model parameters analytically from the simulators.

The reader and CADT simulators expose exact per-case conditional
probabilities; this module aggregates them into the class-level parameter
tables the paper's models consume — the "ground truth" against which trial
estimates and simulations can both be checked, and the bridge that lets a
designer evaluate a (reader, algorithm) configuration without running a
single sampled trial.

The aggregation follows the definition of the class-level conditionals:

* ``PMf(x)`` is the mean per-case miss probability over the class;
* ``PHf|Mf(x)`` is ``E[pMf(c)·pHf|Mf(c)] / E[pMf(c)]`` — each case's
  conditional weighted by how often that case *produces* a machine
  failure (cases where the machine fails more often contribute more to
  the conditioning event);
* ``PHf|Ms(x)`` analogously with machine successes.

The same construction yields the false-positive side (healthy cases,
Poisson false prompts) for the Section 7 trade-off analysis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .._numeric import exp as _exp
from ..cadt.algorithm import DetectionAlgorithm
from ..core.case_class import CaseClass
from ..core.parameters import ClassParameters, ModelParameters
from ..core.profile import DemandProfile
from ..core.sequential import SequentialModel
from ..core.tradeoff import SystemOperatingPoint, TwoSidedModel
from ..exceptions import SimulationError
from ..reader.reader import ReaderModel
from ..screening.case import Case
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier

__all__ = [
    "derive_class_parameters",
    "derive_model",
    "derive_false_positive_class_parameters",
    "derive_two_sided_model",
    "derive_operating_point",
]

#: Truncation bound for the Poisson false-prompt expectation; the tail
#: beyond this count is negligible for realistic prompt rates.
_MAX_FALSE_PROMPTS = 40


def derive_class_parameters(
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cases: Sequence[Case],
) -> ClassParameters:
    """Exact class-level (PMf, PHf|Mf, PHf|Ms) for a set of cancer cases.

    Args:
        reader: The reader model (its analytic conditionals are used).
        algorithm: The detection algorithm at its configured threshold.
        cases: The cancer cases forming the class.

    Raises:
        SimulationError: if ``cases`` is empty or contains healthy cases.
    """
    if not cases:
        raise SimulationError("derive_class_parameters needs at least one case")
    if any(not case.has_cancer for case in cases):
        raise SimulationError(
            "derive_class_parameters expects cancer cases only; use "
            "derive_false_positive_class_parameters for the healthy side"
        )
    p_mf = np.array([algorithm.miss_probability(c) for c in cases])
    p_hf_given_mf = np.array([reader.p_false_negative(c, False) for c in cases])
    p_hf_given_ms = np.array([reader.p_false_negative(c, True) for c in cases])

    mean_mf = float(np.mean(p_mf))
    joint_mf = float(np.mean(p_mf * p_hf_given_mf))
    joint_ms = float(np.mean((1.0 - p_mf) * p_hf_given_ms))
    if mean_mf > 0.0:
        conditional_mf = joint_mf / mean_mf
    else:
        conditional_mf = float(np.mean(p_hf_given_mf))
    if mean_mf < 1.0:
        conditional_ms = joint_ms / (1.0 - mean_mf)
    else:
        conditional_ms = float(np.mean(p_hf_given_ms))
    return ClassParameters(
        p_machine_failure=mean_mf,
        p_human_failure_given_machine_failure=conditional_mf,
        p_human_failure_given_machine_success=conditional_ms,
    )


def derive_model(
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cases: Iterable[Case],
    classifier: CaseClassifier | None = None,
) -> tuple[SequentialModel, DemandProfile]:
    """Exact sequential model and empirical profile for a cancer case set.

    Groups ``cases`` by the classifier, derives each class's parameters,
    and returns the model together with the case set's demand profile —
    everything needed to evaluate equation (8) with zero sampling noise.

    Args:
        reader: The reader model.
        algorithm: The detection algorithm.
        cases: Cancer cases (healthy cases are rejected).
        classifier: Classification criterion; single-class when omitted.
    """
    classifier = classifier if classifier is not None else DEFAULT_CLASSIFIER
    by_class: dict[CaseClass, list[Case]] = {}
    for case in cases:
        if not case.has_cancer:
            raise SimulationError("derive_model expects cancer cases only")
        by_class.setdefault(classifier.classify(case), []).append(case)
    if not by_class:
        raise SimulationError("derive_model needs at least one case")
    parameters = ModelParameters(
        {
            cls: derive_class_parameters(reader, algorithm, members)
            for cls, members in by_class.items()
        }
    )
    profile = DemandProfile.from_counts(
        {cls.name: len(members) for cls, members in by_class.items()}
    )
    return SequentialModel(parameters), profile


def derive_false_positive_class_parameters(
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cases: Sequence[Case],
) -> ClassParameters:
    """Exact false-positive-side parameters for a set of healthy cases.

    On the healthy side, "machine failure" means at least one false prompt
    and "human failure" means an unnecessary recall.  The reader's recall
    probability is averaged over the Poisson false-prompt count,
    conditioned on zero prompts (machine success) or at least one
    (machine failure).
    """
    if not cases:
        raise SimulationError(
            "derive_false_positive_class_parameters needs at least one case"
        )
    if any(case.has_cancer for case in cases):
        raise SimulationError(
            "derive_false_positive_class_parameters expects healthy cases only"
        )
    p_fp = []
    recall_given_prompted = []
    recall_given_clean = []
    for case in cases:
        rate = algorithm.false_prompt_rate(case)
        p_zero = _exp(-rate)
        p_fp.append(1.0 - p_zero)
        recall_given_clean.append(reader.p_false_positive(case, 0))
        if rate > 0.0 and p_zero < 1.0:
            # E[recall | K >= 1] via the truncated Poisson distribution.
            expectation = 0.0
            p_k = p_zero
            for k in range(1, _MAX_FALSE_PROMPTS + 1):
                p_k = p_k * rate / k
                expectation += p_k * reader.p_false_positive(case, k)
            recall_given_prompted.append(expectation / (1.0 - p_zero))
        else:
            recall_given_prompted.append(reader.p_false_positive(case, 1))

    p_fp_array = np.array(p_fp)
    prompted = np.array(recall_given_prompted)
    clean = np.array(recall_given_clean)
    mean_fp = float(np.mean(p_fp_array))
    joint_prompted = float(np.mean(p_fp_array * prompted))
    joint_clean = float(np.mean((1.0 - p_fp_array) * clean))
    return ClassParameters(
        p_machine_failure=mean_fp,
        p_human_failure_given_machine_failure=(
            joint_prompted / mean_fp if mean_fp > 0 else float(np.mean(prompted))
        ),
        p_human_failure_given_machine_success=(
            joint_clean / (1.0 - mean_fp) if mean_fp < 1 else float(np.mean(clean))
        ),
    )


def derive_two_sided_model(
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cancer_cases: Sequence[Case],
    healthy_cases: Sequence[Case],
    classifier: CaseClassifier | None = None,
) -> TwoSidedModel:
    """Exact FN and FP sequential models for one (reader, algorithm) pair.

    The cancer side uses the false-negative conditionals, the healthy side
    the false-positive ones; each side gets its own empirical profile over
    the classifier's classes.
    """
    classifier = classifier if classifier is not None else DEFAULT_CLASSIFIER
    fn_model, cancer_profile = derive_model(
        reader, algorithm, cancer_cases, classifier
    )

    by_class: dict[CaseClass, list[Case]] = {}
    for case in healthy_cases:
        if case.has_cancer:
            raise SimulationError("healthy_cases must not contain cancers")
        by_class.setdefault(classifier.classify(case), []).append(case)
    if not by_class:
        raise SimulationError("derive_two_sided_model needs healthy cases")
    fp_parameters = ModelParameters(
        {
            cls: derive_false_positive_class_parameters(reader, algorithm, members)
            for cls, members in by_class.items()
        }
    )
    healthy_profile = DemandProfile.from_counts(
        {cls.name: len(members) for cls, members in by_class.items()}
    )
    return TwoSidedModel(
        false_negative_model=fn_model,
        false_positive_model=SequentialModel(fp_parameters),
        cancer_profile=cancer_profile,
        healthy_profile=healthy_profile,
    )


def derive_operating_point(
    label: str,
    reader: ReaderModel,
    algorithm: DetectionAlgorithm,
    cancer_cases: Sequence[Case],
    healthy_cases: Sequence[Case],
) -> SystemOperatingPoint:
    """Exact system-level (FN, FP) rates for one machine setting.

    Convenience wrapper for trade-off sweeps: derive the two-sided model
    and collapse it into an operating point.
    """
    model = derive_two_sided_model(reader, algorithm, cancer_cases, healthy_cases)
    return model.operating_point(label)
