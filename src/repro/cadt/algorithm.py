"""The simulated pattern-recognition core of the CADT.

The paper treats the CADT as a component that, per case, either prompts
the features indicating cancer or fails to (a false negative), and that
may also place prompts on films of healthy patients (false positives).
The real tool's pattern-matching internals are proprietary; this simulator
reproduces the tool's *statistical interface*:

* per-case miss probability driven by the case's latent machine
  difficulty, modulated by a tunable **operating threshold** — the knob
  behind the paper's Section 7 trade-off programme ("PMf is small by
  design, at the cost of relatively frequent false positive failures");
* false prompts arriving as a Poisson count whose rate grows with the
  case's distractor level and falls as the threshold is raised.

The threshold acts on the *logit* of the miss probability, so sweeping it
traces a proper ROC curve over any population of cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .._numeric import (
    PoissonRates,
    float_key,
    poisson_counts,
    poisson_from_uniform,
    poisson_rates,
    read_only,
)
from .._numeric import exp as _exp
from .._numeric import logit as _logit
from .._numeric import sigmoid as _sigmoid
from ..exceptions import SimulationError
from ..screening.case import Case

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays

__all__ = ["CadtOutput", "CadtBatchOutput", "CadtTable", "DetectionAlgorithm"]

#: Rows of each case's false-prompt CDF a :class:`CadtTable` keeps (8
#: bytes a case each): at the paper's tunings few counts reach 5.
PROMPT_CDF_ROWS = 5


@dataclass(frozen=True)
class CadtOutput:
    """What the CADT puts on one case's films.

    Attributes:
        case_id: The processed case.
        prompted_relevant: Whether the prompts cover the features that
            indicate cancer; always ``False`` for healthy cases (there are
            no relevant features to prompt).
        num_false_prompts: Count of prompts on irrelevant (benign or
            empty) features.
    """

    case_id: int
    prompted_relevant: bool
    num_false_prompts: int

    def __post_init__(self) -> None:
        if self.num_false_prompts < 0:
            raise SimulationError(
                f"num_false_prompts must be non-negative, got {self.num_false_prompts!r}"
            )

    @property
    def has_any_prompt(self) -> bool:
        """Whether the reader sees any prompt at all on this case."""
        return self.prompted_relevant or self.num_false_prompts > 0

    def is_false_negative(self, case: Case) -> bool:
        """Machine false negative: a cancer case without relevant prompts."""
        return case.has_cancer and not self.prompted_relevant

    def is_false_positive(self, case: Case) -> bool:
        """Machine false positive: any prompt on a healthy case."""
        return (not case.has_cancer) and self.num_false_prompts > 0


@dataclass(frozen=True)
class CadtBatchOutput:
    """The CADT's annotations over a whole batch of cases (struct of arrays).

    The batch analogue of :class:`CadtOutput`: element ``i`` of every
    array describes the machine's behaviour on case ``i`` of the batch.

    Attributes:
        case_id: Case identifiers, ``int64[n]``.
        prompted_relevant: Whether the relevant features were prompted;
            always ``False`` on healthy cases.
        num_false_prompts: Count of prompts on irrelevant features.
    """

    case_id: np.ndarray
    prompted_relevant: np.ndarray
    num_false_prompts: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.case_id) == len(self.prompted_relevant) == len(self.num_false_prompts)
        ):
            raise SimulationError("CadtBatchOutput arrays must have equal length")
        if self.num_false_prompts.size and int(self.num_false_prompts.min()) < 0:
            raise SimulationError("num_false_prompts must be non-negative")

    def __len__(self) -> int:
        return len(self.case_id)

    def machine_failed(self, has_cancer: np.ndarray) -> np.ndarray:
        """Per-case machine failure: FN on cancers, any false prompt on healthy."""
        return np.where(
            has_cancer, ~self.prompted_relevant, self.num_false_prompts > 0
        )


class CadtTable(NamedTuple):
    """A detection algorithm's seed-independent probabilities on one chunk.

    Built by :meth:`DetectionAlgorithm.probability_table` on first use
    and memoised on the chunk; every array is read-only.

    Attributes:
        miss: ``pMf(x)`` per case, ``float64[n]``; 0 on healthy cases.
        prompts: The validated false-prompt rates and the first
            :data:`PROMPT_CDF_ROWS` rows of their CDFs.
    """

    miss: np.ndarray
    prompts: PoissonRates


@dataclass(frozen=True)
class DetectionAlgorithm:
    """A tunable, simulated detection algorithm.

    Attributes:
        threshold_shift: Logit-scale shift of the per-case miss
            probability.  0 is the nominal tuning; positive values make the
            algorithm more conservative (more misses, fewer false prompts),
            negative values more aggressive.
        base_false_prompt_rate: Expected false prompts per case at nominal
            tuning on a case with zero distractors.
        distractor_gain: Multiplicative sensitivity of the false-prompt
            rate to the case's distractor level.
        version: Identifier recorded in trial logs (changes with retuning).
    """

    threshold_shift: float = 0.0
    base_false_prompt_rate: float = 0.6
    distractor_gain: float = 2.0
    version: str = "sim-1.0"

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold_shift):
            raise SimulationError(f"threshold_shift must be finite, got {self.threshold_shift!r}")
        if self.base_false_prompt_rate < 0:
            raise SimulationError(
                f"base_false_prompt_rate must be >= 0, got {self.base_false_prompt_rate!r}"
            )
        if self.distractor_gain < 0:
            raise SimulationError(
                f"distractor_gain must be >= 0, got {self.distractor_gain!r}"
            )

    # -- exact per-case probabilities (used by analytics and tests) ------------

    def miss_probability(self, case: Case) -> float:
        """``pMf(x)``: probability of missing this cancer case's features.

        Zero for healthy cases (nothing to miss).
        """
        if not case.has_cancer:
            return 0.0
        return _sigmoid(_logit(case.machine_difficulty) + self.threshold_shift)

    def false_prompt_rate(self, case: Case) -> float:
        """Expected number of false prompts on this case (Poisson rate)."""
        rate = self.base_false_prompt_rate * (
            1.0 + self.distractor_gain * case.distractor_level
        )
        # Raising the threshold suppresses false prompts exponentially.
        # _numeric.exp, never math.exp: the batch kernel must see the
        # same bits (replint REP002).
        return rate * _exp(-self.threshold_shift)

    def false_positive_probability(self, case: Case) -> float:
        """Probability of at least one false prompt on this case."""
        return 1.0 - _exp(-self.false_prompt_rate(case))

    # -- sampling ---------------------------------------------------------------
    #
    # The scalar and batch samplers share one fixed randomness layout:
    # every case consumes exactly two uniforms -- [u_miss, u_prompts] --
    # regardless of ground truth, and the false-prompt count comes from
    # Poisson inversion of the second uniform.  A per-case loop and a
    # single ``rng.random((n, 2))`` draw therefore consume the generator
    # stream identically, which is what makes the batch engine's results
    # bit-identical to the scalar loop's.

    def process(self, case: Case, rng: np.random.Generator) -> CadtOutput:
        """Run the algorithm on one case, sampling its stochastic behaviour."""
        u_miss, u_prompts = rng.random(2)
        prompted_relevant = bool(
            case.has_cancer and float(u_miss) >= self.miss_probability(case)
        )
        num_false = poisson_from_uniform(float(u_prompts), self.false_prompt_rate(case))
        return CadtOutput(
            case_id=case.case_id,
            prompted_relevant=prompted_relevant,
            num_false_prompts=num_false,
        )

    # -- batch counterparts (the vectorized hot path) ---------------------------

    def probability_table(self, arrays: "CaseArrays") -> CadtTable:
        """This algorithm's :class:`CadtTable` on ``arrays``, memoised on it.

        Keyed by the exact bits of ``(threshold_shift,
        base_false_prompt_rate, distractor_gain)``, so every tool at one
        tuning shares one table per chunk (at most
        :data:`~repro.engine.arrays.ENTRIES_PER_KIND` tunings are kept).
        Computing it validates the rates, once per table.
        """
        key = (
            float_key(self.threshold_shift),
            float_key(self.base_false_prompt_rate),
            float_key(self.distractor_gain),
        )
        return arrays.bounded("cadt_table", key, lambda: self._probability_table(arrays))

    def _probability_table(self, arrays: "CaseArrays") -> CadtTable:
        missed = _sigmoid(arrays.machine_difficulty_logit + self.threshold_shift)
        rate = self.base_false_prompt_rate * (
            1.0 + self.distractor_gain * arrays.distractor_level
        )
        prompts = poisson_rates(rate * _exp(-self.threshold_shift), PROMPT_CDF_ROWS)
        for array in (prompts.rate, prompts.cdf, prompts.pmf):
            read_only(array)
        return CadtTable(
            miss=read_only(np.where(arrays.has_cancer, missed, 0.0)), prompts=prompts
        )

    def process_batch(self, arrays: "CaseArrays", u: np.ndarray) -> CadtBatchOutput:
        """Run the algorithm over a batch, consuming pre-drawn uniforms.

        Reads this tuning's :meth:`probability_table`; only the draws'
        comparisons against it, and the Poisson inversion's steps past
        the table's CDF rows, run per call.

        Args:
            arrays: The batch, as a struct of arrays.
            u: Uniform variates of shape ``(n, 2)`` — per case
                ``[u_miss, u_prompts]``, the same layout :meth:`process`
                consumes from its generator.
        """
        if u.shape != (len(arrays), 2):
            raise SimulationError(
                f"expected uniforms of shape {(len(arrays), 2)!r}, got {u.shape!r}"
            )
        table = self.probability_table(arrays)
        return CadtBatchOutput(
            case_id=arrays.case_id,
            prompted_relevant=arrays.has_cancer & (u[:, 0] >= table.miss),
            num_false_prompts=poisson_counts(u[:, 1], table.prompts),
        )

    # -- retuning ---------------------------------------------------------------

    def with_threshold_shift(self, threshold_shift: float) -> "DetectionAlgorithm":
        """A retuned copy at a different operating threshold."""
        return replace(
            self,
            threshold_shift=float(threshold_shift),
            version=f"{self.version.split('@')[0]}@{threshold_shift:+.3f}",
        )

    def improved(self, logit_gain: float) -> "DetectionAlgorithm":
        """A uniformly better algorithm (both error kinds reduced).

        Unlike :meth:`with_threshold_shift`, which trades one failure kind
        for the other, this models genuine design improvement: the miss
        logit drops by ``logit_gain`` *and* the false-prompt rate drops by
        the same exponential factor.
        """
        if logit_gain < 0:
            raise SimulationError(f"logit_gain must be >= 0, got {logit_gain!r}")
        return replace(
            self,
            threshold_shift=self.threshold_shift - logit_gain,
            base_false_prompt_rate=self.base_false_prompt_rate
            * _exp(-2.0 * logit_gain),
            version=f"{self.version.split('@')[0]}-improved{logit_gain:.2f}",
        )
