"""Reader adaptation over time: trust dynamics and automation bias drift.

Section 5 (item 3) notes that reader behaviour "will evolve over time as
they learn more about the behaviour of the CADT, e.g., becoming more
complacent about relying on its prompts, or more skilled in detecting its
failures"; Section 6.1 adds the key asymmetry — machine false negatives
are so rare that "readers may not usually see enough of them" to
recalibrate.

:class:`AdaptiveTrust` implements that asymmetric learning: trust climbs
slowly with each apparently successful machine output and drops sharply on
the rare occasions the reader *catches* the machine failing (notices a
cancer the machine did not prompt).  Crucially, machine failures the
reader does not catch teach the reader nothing — which is exactly why
complacency is self-reinforcing.

:class:`AdaptiveReader` wraps a :class:`~repro.reader.reader.ReaderModel`,
scaling its automation-bias profile by the current trust before every
decision and updating trust from what the reader could actually observe.

The wrapper also implements the vectorized stream-carry protocol
(``stream_state`` / ``advance_stream`` / ``commit_state``) so the engine
can advance whole chunks through
:func:`repro.reader.dynamics.advance_adaptive_chunk` bit-identically to
the per-case loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .._numeric import PrivateGenerator
from .._validation import check_probability
from ..cadt.algorithm import CadtBatchOutput, CadtOutput
from ..exceptions import ParameterError, SimulationError
from ..screening.case import Case
from .bias import AutomationBiasProfile
from .dynamics import advance_adaptive_chunk
from .reader import ReaderDecision, ReaderModel
from .state import ReaderStateVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays, ReaderRoles

__all__ = ["AdaptiveTrust", "AdaptiveReader"]


class AdaptiveTrust:
    """Asymmetric trust dynamics in ``[0, max_trust]``.

    Trust acts as a multiplier on the reader's base automation-bias
    profile: 1.0 reproduces the base profile, 0 disables all bias (a
    vigilant reader), values above 1 amplify reliance.

    Args:
        initial_trust: Starting multiplier (default 1.0).
        growth_rate: Fractional step toward ``max_trust`` per observed
            machine success.
        failure_penalty: Multiplier applied on each *caught* machine
            failure (< 1 cuts trust).
        max_trust: Upper bound of the multiplier.
    """

    def __init__(
        self,
        initial_trust: float = 1.0,
        growth_rate: float = 0.01,
        failure_penalty: float = 0.5,
        max_trust: float = 2.0,
    ):
        if not (math.isfinite(max_trust) and max_trust > 0):
            raise ParameterError(f"max_trust must be positive, got {max_trust!r}")
        if not 0.0 <= initial_trust <= max_trust:
            raise ParameterError(
                f"initial_trust must be in [0, {max_trust}], got {initial_trust!r}"
            )
        self.growth_rate = check_probability(growth_rate, "growth_rate")
        self.failure_penalty = check_probability(failure_penalty, "failure_penalty")
        self.max_trust = float(max_trust)
        self._trust = float(initial_trust)
        self._observed_successes = 0
        self._caught_failures = 0

    @property
    def trust(self) -> float:
        """The current trust multiplier."""
        return self._trust

    @property
    def observed_successes(self) -> int:
        """Machine outputs the reader experienced as helpful/benign."""
        return self._observed_successes

    @property
    def caught_failures(self) -> int:
        """Machine misses the reader actually noticed."""
        return self._caught_failures

    def observe_success(self) -> None:
        """Record an apparently correct machine output; trust creeps up."""
        self._observed_successes += 1
        # The exponential approach can overshoot max_trust by one ulp in
        # float arithmetic (growth_rate ~ 1); clamp to keep the invariant.
        self._trust = min(
            self._trust + self.growth_rate * (self.max_trust - self._trust),
            self.max_trust,
        )

    def observe_caught_failure(self) -> None:
        """Record a machine miss the reader caught; trust drops sharply."""
        self._caught_failures += 1
        self._trust *= self.failure_penalty

    def _restore(
        self, trust: float, observed_successes: int, caught_failures: int
    ) -> None:
        """Overwrite the mutable state (stream-carry commit path)."""
        self._trust = float(trust)
        self._observed_successes = int(observed_successes)
        self._caught_failures = int(caught_failures)


class AdaptiveReader:
    """A reader whose automation bias scales with evolving trust.

    Args:
        reader: The base reader model; its ``bias`` is the profile at
            trust 1.0.
        trust: Trust dynamics (a fresh default instance when omitted).
        seed: Seed for this wrapper's private random generator, created
            on its first draw (``None``: OS entropy, at construction).
    """

    def __init__(
        self,
        reader: ReaderModel,
        trust: AdaptiveTrust | None = None,
        seed: int | None = None,
    ):
        self._base_reader = reader
        self.trust = trust if trust is not None else AdaptiveTrust()
        self._rng = PrivateGenerator(seed)

    @property
    def name(self) -> str:
        """The wrapped reader's name."""
        return self._base_reader.name

    @property
    def base_reader(self) -> ReaderModel:
        """The underlying reader model (bias at trust 1.0)."""
        return self._base_reader

    def current_bias(self) -> AutomationBiasProfile:
        """The bias profile in force at the current trust level."""
        return self._base_reader.bias.scaled(self.trust.trust)

    def current_reader(self) -> ReaderModel:
        """A snapshot reader model with the current effective bias."""
        return self._base_reader.with_bias(self.current_bias())

    def decide(
        self,
        case: Case,
        cadt_output: CadtOutput | None = None,
        rng: np.random.Generator | None = None,
    ) -> ReaderDecision:
        """Decide one case at current trust, then update trust from it.

        The trust update uses only what the reader can observe:

        * the reader catches a machine failure when the case shows a
          prompt-less area they themselves judged cancerous (they noticed
          relevant features the machine did not prompt);
        * otherwise, an output with prompts that "made sense" (relevant
          prompts the reader confirmed, or a clean film the reader also
          cleared) counts as a success observation.

        Ground truth never enters the update — in screening practice the
        reader gets no immediate feedback on missed cancers.
        """
        decision = self.current_reader().decide(
            case, cadt_output, rng if rng is not None else self._rng()
        )
        if cadt_output is not None:
            caught_failure = (
                case.has_cancer
                and not cadt_output.prompted_relevant
                and decision.noticed_relevant is True
                and decision.recall
            )
            if caught_failure:
                self.trust.observe_caught_failure()
            else:
                self.trust.observe_success()
        return decision

    @property
    def supports_stream(self) -> bool:
        """Whether chunked stream advancement is available (vectorizable base)."""
        return isinstance(self._base_reader, ReaderModel)

    def stream_state(self) -> ReaderStateVector:
        """The current state as a carryable vector (one reader slot)."""
        state = ReaderStateVector.fresh(1)
        return state.replace(
            trust=np.array([self.trust.trust]),
            observed_successes=np.array(
                [self.trust.observed_successes], dtype=np.int64
            ),
            caught_failures=np.array(
                [self.trust.caught_failures], dtype=np.int64
            ),
        )

    def commit_state(self, state: ReaderStateVector) -> None:
        """Adopt a carried state vector as this wrapper's mutable state."""
        self.trust._restore(
            float(state.trust[0]),
            int(state.observed_successes[0]),
            int(state.caught_failures[0]),
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
        return advance_adaptive_chunk(
            self._base_reader, self.trust, arrays, cadt_output, state, u, roles
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveReader({self._base_reader!r}, trust={self.trust.trust:.3f}, "
            f"caught={self.trust.caught_failures})"
        )


def simulate_trust_trajectory(
    adaptive_reader: AdaptiveReader,
    cases: "list[Case]",
    cadt: "object",
) -> list[float]:
    """Trust level after each case of a workload read with a CADT.

    Args:
        adaptive_reader: The reader whose trust evolves.
        cases: Cases in reading order.
        cadt: Any object with a ``process(case) -> CadtOutput`` method
            (typically :class:`repro.cadt.Cadt`).

    Returns:
        The trust multiplier after each case, ``len(cases)`` values.
    """
    trajectory: list[float] = []
    for case in cases:
        output = cadt.process(case)
        if not isinstance(output, CadtOutput):
            raise SimulationError(
                f"cadt.process must return CadtOutput, got {type(output).__name__}"
            )
        adaptive_reader.decide(case, output)
        trajectory.append(adaptive_reader.trust.trust)
    return trajectory


__all__.append("simulate_trust_trajectory")
