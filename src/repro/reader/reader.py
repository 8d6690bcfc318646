"""The stochastic human reader model.

A :class:`ReaderModel` produces recall/no-recall decisions on screening
cases, with or without CADT support, through an explicit two-stage
cognitive process (detection, then classification) whose conditional
probabilities are available *analytically* as well as by sampling.  The
analytic side is what lets the test suite verify that simulated trials
estimate exactly the probabilities the model defines.

For a cancer case the reader:

1. may suffer an attention lapse (misses regardless of skill);
2. otherwise notices the relevant features with a probability set by the
   case's latent human detection difficulty, the reader's detection skill,
   and — when reading with the CADT — the bias effects: prompted features
   are found almost surely (``prompt_effectiveness``), unprompted ones are
   missed more often under complacency;
3. if the features are noticed, classifies them correctly with a
   probability set by the case's classification difficulty, the reader's
   classification skill, and prompt persuasion.

For a healthy case the reader recalls (false positive) with a probability
set by the case's benign "suspiciousness", the reader's specificity skill,
and false-prompt persuasion per false prompt shown.

The reading *procedure* (Section 3 vs Section 4 of the paper) is a
behavioural switch: under :attr:`ReadingProcedure.PARALLEL` the reader
first reads unaided and only then looks at prompts — so complacency and
persuasion cannot act (the parallel-detection model's premise); under
:attr:`ReadingProcedure.SEQUENTIAL` the reader sees the prompted films
directly and all bias effects apply.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Hashable

import numpy as np

from .._numeric import PrivateGenerator, float_key, read_only
from .._numeric import logit as _logit
from .._numeric import sigmoid as _sigmoid
from .._validation import check_probability
from ..cadt.algorithm import CadtBatchOutput, CadtOutput
from ..exceptions import ParameterError, SimulationError
from ..screening.case import Case
from .bias import NO_BIAS, AutomationBiasProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays, ReaderRoles

__all__ = ["ReadingProcedure", "ReaderSkill", "ReaderDecision", "ReaderTable", "ReaderModel"]


class ReadingProcedure(enum.Enum):
    """How the reader combines their own reading with the CADT's output."""

    #: Read unaided first, then review the prompts (the tool's intended
    #: procedure; bias effects are structurally impossible).
    PARALLEL = "parallel"
    #: Read the prompted films directly (faster, and the realistic default;
    #: bias effects apply).
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class ReaderSkill:
    """A reader's ability, as logit shifts against case difficulty.

    All skills default to 0 (the "average reader" the case difficulties
    are calibrated against); positive values reduce the corresponding
    error probability.

    Attributes:
        detection: Reduces the miss probability on relevant features.
        classification: Reduces the misclassification probability.
        specificity: Reduces false recalls of healthy cases.
        lapse_rate: Probability of an attention lapse per case (a lapse
            misses the relevant features regardless of skill) — the failure
            mode the CADT was designed to compensate ("e.g. for lapses of
            attention").
    """

    detection: float = 0.0
    classification: float = 0.0
    specificity: float = 0.0
    lapse_rate: float = 0.02

    def __post_init__(self) -> None:
        for name in ("detection", "classification", "specificity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"skill {name} must be finite, got {value!r}")
        object.__setattr__(
            self, "lapse_rate", check_probability(self.lapse_rate, "lapse_rate")
        )


@dataclass(frozen=True)
class ReaderDecision:
    """The reader's output on one case, with process annotations.

    Attributes:
        case_id: The decided case.
        recall: The 1-bit system output: recall the patient or not.
        noticed_relevant: Whether the relevant features were noticed
            (``None`` for healthy cases, which have none).
        lapsed: Whether an attention lapse occurred.
    """

    case_id: int
    recall: bool
    noticed_relevant: bool | None
    lapsed: bool


class _SkillTable:
    """The arrays of a :class:`ReaderTable` no bias enters: every bias at
    one skill and decrement path shares them on a chunk."""

    def __init__(
        self,
        arrays: "CaseArrays",
        skill: ReaderSkill,
        decrement: np.ndarray | None,
    ):
        # Columns and index sets, not the chunk itself: the table lives
        # in the chunk's memo, and must not refer back to it.
        self._cancers = arrays.cancer_index
        self._healthy = arrays.healthy_index
        self._detection_logit = arrays.human_detection_difficulty_logit
        self._classification_logit = arrays.human_classification_difficulty_logit
        self._skill = skill
        self._decrement = decrement

    def _miss(self, shift: float) -> np.ndarray:
        detection: Any = self._skill.detection
        if self._decrement is not None:
            detection = detection - self._decrement[self._cancers]
        return read_only(
            _sigmoid(self._detection_logit[self._cancers] - detection + shift)
        )

    def _misclassify(self, persuasion: float) -> np.ndarray:
        return read_only(
            _sigmoid(
                self._classification_logit[self._cancers]
                - self._skill.classification
                - persuasion
            )
        )

    @cached_property
    def attentive_miss(self) -> np.ndarray:
        return self._miss(0.0)

    @cached_property
    def misclassify(self) -> np.ndarray:
        return self._misclassify(0.0)

    @cached_property
    def healthy_logit(self) -> np.ndarray:
        specificity: Any = self._skill.specificity
        if self._decrement is not None:
            specificity = specificity - self._decrement[self._healthy]
        return read_only(self._classification_logit[self._healthy] - specificity)

    @cached_property
    def unaided_recall(self) -> np.ndarray:
        return read_only(_sigmoid(self.healthy_logit))


class ReaderTable:
    """A reader configuration's seed-independent probabilities on one chunk.

    Built by :meth:`ReaderModel.probability_table` and memoised on the
    chunk.  Each array is computed on first use and is read-only; the
    cancer arrays follow the chunk's ``cancer_index`` order, the healthy
    ones its ``healthy_index`` order.  A fatigued reader's table carries
    its per-case vigilance decrement path, which subtracts from the
    detection and specificity skills per case before the logit
    subtraction (the float-op order of the scalar snapshot reader); a
    rested reader's has none.  ``bias`` is the bias in force when
    reading aided; the arrays it does not enter are read from the
    table every bias at the same skill and path shares.

    Attributes:
        attentive_miss: Attentive-miss probability on each cancer, with
            no complacency shift (unaided, or a prompted case).
        complacent_miss: The same with the complacency shift (a case the
            machine failed to prompt).
        misclassify: Misclassification probability on each cancer, with
            no prompt persuasion.
        persuaded_misclassify: The same with prompt persuasion (a
            prompted case).
        unaided_recall: Recall probability of each healthy case read
            unaided.
        healthy_logit: Each healthy case's recall logit before prompts.
    """

    def __init__(self, shared: _SkillTable, bias: AutomationBiasProfile):
        self._shared = shared
        self._bias = bias

    def __getattr__(self, name: str) -> np.ndarray:
        # attentive_miss, misclassify, unaided_recall and healthy_logit.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._shared, name)

    @cached_property
    def complacent_miss(self) -> np.ndarray:
        return self._shared._miss(self._bias.complacency_shift)

    @cached_property
    def persuaded_misclassify(self) -> np.ndarray:
        return self._shared._misclassify(self._bias.prompt_persuasion)


def check_chunk_outputs(arrays: "CaseArrays", cadt_output: CadtBatchOutput | None) -> None:
    """Reject batch CADT annotations made for another batch of cases."""
    if (
        cadt_output is not None
        and cadt_output.case_id is not arrays.case_id
        and not np.array_equal(cadt_output.case_id, arrays.case_id)
    ):
        raise SimulationError("CADT batch output does not match the case batch")


def draw_roles(
    arrays: "CaseArrays", u: np.ndarray, roles: "ReaderRoles | None"
) -> "ReaderRoles":
    """Where a reader's uniforms sit in ``u``: ``roles``, else the reader
    layout's (``u`` checked to be a flat draw in that layout)."""
    if roles is not None:
        return roles
    total = arrays.reader_total
    if u.shape != (total,):
        raise SimulationError(
            f"expected a flat array of {total} uniforms, got shape {u.shape!r}"
        )
    return arrays.reader_roles


class ReaderModel:
    """A stochastic reader with analytic conditional failure probabilities.

    Args:
        skill: The reader's ability profile.
        bias: Automation-bias strengths; ignored under the parallel
            procedure and for unaided reading.
        procedure: Reading procedure (sequential by default).
        prompt_effectiveness: Probability in ``[0, 1]`` that a prompt on
            the relevant features makes the reader examine them regardless
            of unaided detection — the design goal of the CADT ("to aid the
            reader to notice all the features ... that ought to be
            examined").
        name: Identifier used in trial records.
        seed: Seed for the reader's private random generator, which is
            created on its first draw (see
            :class:`~repro._numeric.PrivateGenerator`); ``None`` seeds it
            from OS entropy at construction.
    """

    def __init__(
        self,
        skill: ReaderSkill | None = None,
        bias: AutomationBiasProfile = NO_BIAS,
        procedure: ReadingProcedure = ReadingProcedure.SEQUENTIAL,
        prompt_effectiveness: float = 0.9,
        name: str = "reader",
        seed: int | None = None,
    ):
        self.skill = skill if skill is not None else ReaderSkill()
        if not isinstance(bias, AutomationBiasProfile):
            raise ParameterError(f"bias must be an AutomationBiasProfile, got {bias!r}")
        self.bias = bias
        self.procedure = ReadingProcedure(procedure)
        self.prompt_effectiveness = check_probability(
            prompt_effectiveness, "prompt_effectiveness"
        )
        if not name:
            raise ParameterError("reader name must be non-empty")
        self.name = name
        self._rng = PrivateGenerator(seed)

    # -- effective bias -----------------------------------------------------------

    def _active_bias(self, aided: bool) -> AutomationBiasProfile:
        """The bias actually in force for a reading mode."""
        if not aided or self.procedure is ReadingProcedure.PARALLEL:
            return NO_BIAS
        return self.bias

    # -- analytic probabilities: cancer cases ---------------------------------------

    def p_miss_unaided(self, case: Case) -> float:
        """Probability of failing to notice the relevant features, unaided."""
        if not case.has_cancer:
            raise SimulationError("p_miss_unaided is defined for cancer cases only")
        attentive_miss = _sigmoid(
            _logit(case.human_detection_difficulty) - self.skill.detection
        )
        return self.skill.lapse_rate + (1.0 - self.skill.lapse_rate) * attentive_miss

    def p_miss_aided(self, case: Case, machine_prompted_relevant: bool) -> float:
        """Probability of failing to notice the features, reading with the CADT.

        Args:
            case: A cancer case.
            machine_prompted_relevant: Whether the CADT prompted the
                relevant features (machine success) or not (machine
                failure).
        """
        if not case.has_cancer:
            raise SimulationError("p_miss_aided is defined for cancer cases only")
        bias = self._active_bias(aided=True)
        if machine_prompted_relevant:
            # The prompt drags attention to the features; residual misses
            # happen when the prompt fails to register AND the reader's own
            # reading (possibly lapsed) also misses them.
            return (1.0 - self.prompt_effectiveness) * self.p_miss_unaided(case)
        # Machine failure: no prompt on the features; complacency makes the
        # unprompted film less scrutinised than unaided reading would.
        attentive_miss = _sigmoid(
            _logit(case.human_detection_difficulty)
            - self.skill.detection
            + bias.complacency_shift
        )
        return self.skill.lapse_rate + (1.0 - self.skill.lapse_rate) * attentive_miss

    def p_misclassify(self, case: Case, feature_prompted: bool, aided: bool) -> float:
        """Probability of a wrong decision once the features are noticed."""
        if not case.has_cancer:
            raise SimulationError("p_misclassify is defined for cancer cases only")
        bias = self._active_bias(aided)
        persuasion = bias.prompt_persuasion if feature_prompted else 0.0
        return _sigmoid(
            _logit(case.human_classification_difficulty)
            - self.skill.classification
            - persuasion
        )

    def p_false_negative(
        self, case: Case, machine_prompted_relevant: bool | None
    ) -> float:
        """Overall probability of a false-negative decision on a cancer case.

        Args:
            case: A cancer case.
            machine_prompted_relevant: ``True``/``False`` for aided reading
                with machine success/failure; ``None`` for unaided reading.

        This is the reader-level realisation of the paper's ``PHf|Ms(x)``
        (``True``), ``PHf|Mf(x)`` (``False``) and the unaided baseline
        (``None``), evaluated per case rather than per class.
        """
        if not case.has_cancer:
            raise SimulationError("p_false_negative is defined for cancer cases only")
        if machine_prompted_relevant is None:
            p_miss = self.p_miss_unaided(case)
            p_misclass = self.p_misclassify(case, feature_prompted=False, aided=False)
        else:
            p_miss = self.p_miss_aided(case, machine_prompted_relevant)
            p_misclass = self.p_misclassify(
                case, feature_prompted=machine_prompted_relevant, aided=True
            )
        return p_miss + (1.0 - p_miss) * p_misclass

    # -- analytic probabilities: healthy cases ----------------------------------------

    def p_false_positive(self, case: Case, num_false_prompts: int | None) -> float:
        """Probability of recalling a healthy case.

        Args:
            case: A healthy case.
            num_false_prompts: False prompts shown (aided reading), or
                ``None`` for unaided reading.
        """
        if case.has_cancer:
            raise SimulationError("p_false_positive is defined for healthy cases only")
        logit = _logit(case.human_classification_difficulty) - self.skill.specificity
        if num_false_prompts is not None:
            if num_false_prompts < 0:
                raise SimulationError(
                    f"num_false_prompts must be >= 0, got {num_false_prompts!r}"
                )
            bias = self._active_bias(aided=True)
            logit += bias.false_prompt_persuasion * num_false_prompts
        return _sigmoid(logit)

    # -- sampling -----------------------------------------------------------------------
    #
    # The scalar and batch samplers share one fixed randomness layout: a
    # cancer case consumes exactly four uniforms -- [u_lapse, u_prompt,
    # u_detect, u_classify] -- whether or not every branch needs its
    # draw, and a healthy case consumes exactly one.  Because the layout
    # depends only on the case's ground truth (known before sampling), a
    # per-case loop and one flat ``rng.random(total)`` draw consume the
    # generator stream identically, which is what makes the batch
    # engine's results bit-identical to the scalar loop's.

    def decide(
        self,
        case: Case,
        cadt_output: CadtOutput | None = None,
        rng: np.random.Generator | None = None,
    ) -> ReaderDecision:
        """Produce a recall decision on one case.

        Args:
            case: The case under review.
            cadt_output: The CADT's annotations, or ``None`` for unaided
                reading.
            rng: Random generator; the reader's private one when omitted.
        """
        if cadt_output is not None and cadt_output.case_id != case.case_id:
            raise SimulationError(
                f"CADT output is for case {cadt_output.case_id}, not {case.case_id}"
            )
        rng = rng if rng is not None else self._rng()

        if not case.has_cancer:
            prompts = cadt_output.num_false_prompts if cadt_output is not None else None
            p_recall = self.p_false_positive(case, prompts)
            return ReaderDecision(
                case_id=case.case_id,
                recall=bool(rng.random() < p_recall),
                noticed_relevant=None,
                lapsed=False,
            )

        u_lapse, u_prompt, u_detect, u_classify = rng.random(4)
        aided = cadt_output is not None
        prompted = cadt_output.prompted_relevant if aided else None
        lapsed = bool(u_lapse < self.skill.lapse_rate)
        bias = self._active_bias(aided)
        if aided and not prompted:
            # Machine failure: complacency makes the unprompted film less
            # scrutinised.  (A registering prompt instead drags attention
            # straight to the features; the fallback reading of the
            # original films is plain unaided detection.)
            detection_shift = bias.complacency_shift
        else:
            detection_shift = 0.0
        attentive_miss = _sigmoid(
            _logit(case.human_detection_difficulty)
            - self.skill.detection
            + detection_shift
        )
        registered = bool(prompted) and bool(u_prompt < self.prompt_effectiveness)
        noticed = registered or (not lapsed and bool(u_detect >= attentive_miss))

        if not noticed:
            return ReaderDecision(
                case_id=case.case_id, recall=False, noticed_relevant=False, lapsed=lapsed
            )
        p_misclass = self.p_misclassify(
            case, feature_prompted=bool(prompted), aided=aided
        )
        return ReaderDecision(
            case_id=case.case_id,
            recall=bool(u_classify >= p_misclass),
            noticed_relevant=True,
            lapsed=lapsed,
        )

    def decide_batch(
        self,
        arrays: "CaseArrays",
        cadt_output: CadtBatchOutput | None = None,
        u: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        roles: "ReaderRoles | None" = None,
    ) -> np.ndarray:
        """Vectorized :meth:`decide` over a whole batch of cases.

        Args:
            arrays: The batch, as a struct of arrays.
            cadt_output: Batch CADT annotations, or ``None`` for unaided
                reading.
            u: Pre-drawn flat uniforms in the fixed layout (four per
                cancer case, one per healthy case, in case order); drawn
                from ``rng`` (or the reader's private generator) when
                omitted.
            rng: Random generator used when ``u`` is omitted.
            roles: Where this reader's uniforms sit in ``u``, when ``u``
                is a draw the reader shares with other components
                (:attr:`~repro.engine.arrays.SharedLayout.reader_roles`).

        Returns:
            Boolean recall decisions, one per case.
        """
        check_chunk_outputs(arrays, cadt_output)
        if u is None:
            u = (rng if rng is not None else self._rng()).random(arrays.reader_total)
        roles = draw_roles(arrays, u, roles)
        return self.decide_chunk(arrays, cadt_output, u, roles, self.probability_table(arrays))

    def probability_table(
        self,
        arrays: "CaseArrays",
        decrement: tuple[Hashable, np.ndarray] | None = None,
    ) -> ReaderTable:
        """This reader's :class:`ReaderTable` on ``arrays``, memoised on it.

        Keyed by the exact bits of the skills and aided-bias strengths
        the table reads; ``decrement`` is a fatigued reader's decrement
        path on this chunk with its memo key, ``(key, path)``, and the
        key joins the table's.  The arrays no bias enters are memoised
        once per skill and path, for every bias's table.  At most
        :data:`~repro.engine.arrays.ENTRIES_PER_KIND` of each are kept
        per chunk.
        """
        skill = self.skill
        bias = self._active_bias(aided=True)
        path_key, path = (None, None) if decrement is None else decrement
        skill_key = (
            float_key(skill.detection),
            float_key(skill.classification),
            float_key(skill.specificity),
            path_key,
        )
        key = (*skill_key, float_key(bias.complacency_shift), float_key(bias.prompt_persuasion))

        def table() -> ReaderTable:
            shared = arrays.bounded(
                "reader_skill_table", skill_key, lambda: _SkillTable(arrays, skill, path)
            )
            return ReaderTable(shared, bias)

        return arrays.bounded("reader_table", key, table)

    def decide_chunk(
        self,
        arrays: "CaseArrays",
        cadt_output: CadtBatchOutput | None,
        u: np.ndarray,
        roles: "ReaderRoles",
        table: ReaderTable,
    ) -> np.ndarray:
        """The decision body of a rested or fatigued reader on one chunk.

        Gathers each role's uniforms from ``u`` through ``roles`` and
        compares them against ``table``, picking each cancer's branch
        by the seeded prompt outcome; only the aided healthy recall
        probability, which depends on the seeded false-prompt count, is
        computed here.
        """
        recall = np.zeros(len(arrays), dtype=bool)

        healthy = arrays.healthy_index
        if healthy.size:
            if cadt_output is None:
                p_recall = table.unaided_recall
            else:
                persuasion = self._active_bias(aided=True).false_prompt_persuasion
                p_recall = _sigmoid(
                    table.healthy_logit
                    + persuasion * cadt_output.num_false_prompts[healthy]
                )
            recall[healthy] = u[roles.recall] < p_recall

        cancers = arrays.cancer_index
        if cancers.size:
            lapsed = u[roles.lapse] < self.skill.lapse_rate
            if cadt_output is None:
                noticed = ~lapsed & (u[roles.detect] >= table.attentive_miss)
                p_misclass = table.misclassify
            else:
                prompted = cadt_output.prompted_relevant[cancers]
                attentive_miss = np.where(
                    prompted, table.attentive_miss, table.complacent_miss
                )
                registered = prompted & (u[roles.prompt] < self.prompt_effectiveness)
                noticed = registered | (~lapsed & (u[roles.detect] >= attentive_miss))
                p_misclass = np.where(
                    prompted, table.persuaded_misclassify, table.misclassify
                )
            recall[cancers] = noticed & (u[roles.classify] >= p_misclass)
        return recall

    # -- variants --------------------------------------------------------------------------

    def with_bias(self, bias: AutomationBiasProfile) -> "ReaderModel":
        """A copy of this reader with a different bias profile (fresh RNG)."""
        return ReaderModel(
            skill=self.skill,
            bias=bias,
            procedure=self.procedure,
            prompt_effectiveness=self.prompt_effectiveness,
            name=self.name,
        )

    def with_procedure(self, procedure: ReadingProcedure) -> "ReaderModel":
        """A copy of this reader using a different reading procedure."""
        return ReaderModel(
            skill=self.skill,
            bias=self.bias,
            procedure=procedure,
            prompt_effectiveness=self.prompt_effectiveness,
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"ReaderModel(name={self.name!r}, procedure={self.procedure.value!r}, "
            f"skill=({self.skill.detection:+.2f}, {self.skill.classification:+.2f}, "
            f"{self.skill.specificity:+.2f}), lapse={self.skill.lapse_rate:.3f})"
        )
