"""Time-on-task effects: vigilance decrement within a reading session.

Screening readers work through long lists of films in one sitting, and
detection vigilance is known to decay with time on task.  This is one of
the "indirect effects" family of Section 5: like trust drift, it changes
the reader's conditional failure probabilities between the conditions
parameters were measured in and the conditions they are applied to — a
trial with short sessions underestimates the failure probabilities of
marathon clinic sessions.

:class:`FatigueModel` is a small state machine (decrement per case,
saturating at a maximum, reset by a break); :class:`FatiguedReader` wraps
a :class:`~repro.reader.reader.ReaderModel`, applying the current
decrement to its detection and specificity skills before each decision.

The wrapper also implements the vectorized stream-carry protocol
(``stream_state`` / ``advance_stream`` / ``commit_state``) so the engine
can advance whole chunks through
:func:`repro.reader.dynamics.advance_fatigued_chunk` bit-identically to
the per-case loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .._numeric import PrivateGenerator, float_key, read_only
from ..cadt.algorithm import CadtBatchOutput, CadtOutput
from ..exceptions import ParameterError
from ..screening.case import Case
from .dynamics import advance_fatigued_chunk
from .reader import ReaderDecision, ReaderModel, ReaderSkill
from .state import STATE_FIELDS, ReaderStateVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays, ReaderRoles

__all__ = ["FatigueModel", "FatiguedReader"]

#: A rested reader's state, read-only: a value every carry may share.
_RESTED = ReaderStateVector.fresh(1)
for _column in STATE_FIELDS:
    read_only(getattr(_RESTED, _column))


class FatigueModel:
    """Saturating vigilance decrement with break recovery.

    The decrement (a logit penalty applied to detection and specificity
    skill) approaches ``max_decrement`` exponentially: after each case it
    moves a fraction ``rate`` of the remaining distance.  A break resets
    it to zero.

    When ``cases_per_session`` is set, a break happens automatically
    after every that-many cases: the *N*-th case of a session is still
    decided at the pre-break decrement, and the reset applies once it is
    registered.  The schedule is counted in cases, never in chunks — a
    chunk boundary that lands exactly on the break carries the
    already-rested state, identically to a break falling mid-chunk.

    Args:
        rate: Fractional step toward ``max_decrement`` per case (in
            ``[0, 1]``; 0 disables fatigue).
        max_decrement: Asymptotic logit penalty (>= 0).
        cases_per_session: Automatic session length in cases (``None``
            disables automatic breaks; otherwise an int >= 1).
    """

    def __init__(
        self,
        rate: float = 0.01,
        max_decrement: float = 0.8,
        cases_per_session: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ParameterError(f"rate must be in [0, 1], got {rate!r}")
        if not (math.isfinite(max_decrement) and max_decrement >= 0.0):
            raise ParameterError(
                f"max_decrement must be finite and >= 0, got {max_decrement!r}"
            )
        if cases_per_session is not None and (
            not isinstance(cases_per_session, int) or cases_per_session < 1
        ):
            raise ParameterError(
                f"cases_per_session must be None or an int >= 1, "
                f"got {cases_per_session!r}"
            )
        self.rate = float(rate)
        self.max_decrement = float(max_decrement)
        self.cases_per_session = cases_per_session
        self._decrement = 0.0
        self._cases_this_session = 0

    @property
    def decrement(self) -> float:
        """The current logit penalty."""
        return self._decrement

    @property
    def cases_this_session(self) -> int:
        """Cases read since the last break."""
        return self._cases_this_session

    def advance(self) -> None:
        """Register one more case read (resting if the session is over)."""
        self._decrement += self.rate * (self.max_decrement - self._decrement)
        self._cases_this_session += 1
        if (
            self.cases_per_session is not None
            and self._cases_this_session >= self.cases_per_session
        ):
            self.rest()

    def rest(self) -> None:
        """Take a break: vigilance fully recovers."""
        self._decrement = 0.0
        self._cases_this_session = 0

    def _restore(self, decrement: float, cases_this_session: int) -> None:
        """Overwrite the mutable state (stream-carry commit path)."""
        self._decrement = float(decrement)
        self._cases_this_session = int(cases_this_session)


class FatiguedReader:
    """A reader whose vigilance decays over a session.

    Args:
        reader: The rested baseline reader.
        fatigue: Fatigue dynamics (a default instance when omitted).
        seed: Seed for this wrapper's private random generator, created
            on its first draw (``None``: OS entropy, at construction).
    """

    def __init__(
        self,
        reader: ReaderModel,
        fatigue: FatigueModel | None = None,
        seed: int | None = None,
    ):
        self._base_reader = reader
        self.fatigue = fatigue if fatigue is not None else FatigueModel()
        self._rng = PrivateGenerator(seed)

    @property
    def name(self) -> str:
        """The wrapped reader's name."""
        return self._base_reader.name

    @property
    def base_reader(self) -> ReaderModel:
        """The rested baseline reader."""
        return self._base_reader

    def current_reader(self) -> ReaderModel:
        """A snapshot reader at the current fatigue level.

        The decrement subtracts from detection and specificity skill
        (vigilance tasks); classification skill — a judgement task — is
        left untouched, consistent with the vigilance-decrement
        literature's focus on detection.
        """
        decrement = self.fatigue.decrement
        if decrement == 0.0:
            return self._base_reader
        skill = self._base_reader.skill
        tired_skill = ReaderSkill(
            detection=skill.detection - decrement,
            classification=skill.classification,
            specificity=skill.specificity - decrement,
            lapse_rate=skill.lapse_rate,
        )
        return ReaderModel(
            skill=tired_skill,
            bias=self._base_reader.bias,
            procedure=self._base_reader.procedure,
            prompt_effectiveness=self._base_reader.prompt_effectiveness,
            name=self._base_reader.name,
        )

    def decide(
        self,
        case: Case,
        cadt_output: CadtOutput | None = None,
        rng: np.random.Generator | None = None,
    ) -> ReaderDecision:
        """Decide one case at the current fatigue, then tire a little more."""
        decision = self.current_reader().decide(
            case, cadt_output, rng if rng is not None else self._rng()
        )
        self.fatigue.advance()
        return decision

    def take_break(self) -> None:
        """Rest: vigilance recovers fully."""
        self.fatigue.rest()

    @property
    def supports_stream(self) -> bool:
        """Whether chunked stream advancement is available (vectorizable base)."""
        return isinstance(self._base_reader, ReaderModel)

    def stream_state(self) -> ReaderStateVector:
        """The current state as a carryable vector (one reader slot); a
        rested reader's is one shared read-only vector."""
        decrement = self.fatigue.decrement
        count = self.fatigue.cases_this_session
        if count == 0 and float_key(decrement) == float_key(0.0):
            return _RESTED
        return _RESTED.replace(
            decrement=np.array([decrement]),
            cases_this_session=np.array([count], dtype=np.int64),
        )

    def commit_state(self, state: ReaderStateVector) -> None:
        """Adopt a carried state vector as this wrapper's mutable state."""
        self.fatigue._restore(
            float(state.decrement[0]), int(state.cases_this_session[0])
        )

    def advance_stream(
        self,
        arrays: "CaseArrays",
        cadt_output: CadtBatchOutput | None,
        state: ReaderStateVector,
        u: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        roles: "ReaderRoles | None" = None,
    ) -> tuple[np.ndarray, ReaderStateVector]:
        """Decide one chunk from a carried state; never mutates ``self``.

        Consumes the same per-case uniforms as the scalar loop (four per
        cancer case, one per healthy case).  When ``u`` is omitted they
        are drawn from ``rng`` (or this wrapper's private generator), so
        an unseeded serial stream is bit-identical to calling
        :meth:`decide` case by case.  ``roles`` says where the reader's
        uniforms sit in a ``u`` shared with other components.
        """
        if u is None:
            u = (rng if rng is not None else self._rng()).random(arrays.reader_total)
        return advance_fatigued_chunk(
            self._base_reader, self.fatigue, arrays, cadt_output, state, u, roles
        )

    def __repr__(self) -> str:
        return (
            f"FatiguedReader({self._base_reader!r}, "
            f"decrement={self.fatigue.decrement:.3f}, "
            f"session={self.fatigue.cases_this_session})"
        )
