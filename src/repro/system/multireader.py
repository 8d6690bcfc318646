"""Multi-reader screening configurations (Section 7's extensions).

The paper's conclusions point at "more complex combinations ... e.g. with
two readers assisted by a CADT, or less qualified readers assisted by
CADTs", against the U.K. practice baseline of double reading.  This module
implements those configurations over the same reader/CADT substrates:

* :class:`DoubleReading` — two unaided readers with a recall policy;
* :class:`AssistedDoubleReading` — two readers who both see the same
  CADT output for each case (the films are processed once);
* recall policies: recall if *either* recalls (maximises sensitivity),
  only if *both* agree (maximises specificity), or *arbitration* by a
  third reader on disagreements (common U.K. practice).

Both systems run on the vectorized engine like the single-reader ones.
Every case has a fixed randomness layout: the CADT's two uniforms (when
there is a tool), then each member's reader uniforms in reading order —
first reader, second reader, and under :attr:`RecallPolicy.ARBITRATION`
the arbiter, who reads every case and is *used* only where the readers
disagree.  So the scalar :meth:`~DoubleReading.decide` loop and
:meth:`~DoubleReading.decide_batch` consume a shared generator
identically (see ``docs/engine.md``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence, TypeVar

import numpy as np

from ..cadt.tool import Cadt
from ..exceptions import SimulationError
from ..reader.reader import ReaderModel
from ..screening.case import Case
from .single import BatchDecisions, SystemDecision, _split_shared_uniforms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays

__all__ = ["RecallPolicy", "DoubleReading", "AssistedDoubleReading"]

_Recall = TypeVar("_Recall", bool, np.ndarray)


class RecallPolicy(enum.Enum):
    """How two readers' decisions combine into the system decision."""

    #: Recall if either reader recalls (1-out-of-2 on detection of cancer).
    EITHER = "either"
    #: Recall only if both readers recall (2-out-of-2).
    UNANIMOUS = "unanimous"
    #: On disagreement, a third reader (the arbiter) decides.
    ARBITRATION = "arbitration"


def _combine(
    policy: RecallPolicy, first: _Recall, second: _Recall, arbiter: _Recall | None = None
) -> _Recall:
    """The system recall from the members' recalls (bools or bool arrays).

    Arbitration takes the readers' common decision where they agree and
    the arbiter's where they disagree — the majority of the three.
    """
    if policy is RecallPolicy.EITHER:
        return first | second
    if policy is RecallPolicy.UNANIMOUS:
        return first & second
    return (first & second) | (arbiter & (first | second))


class _PairedReading:
    """Two readers, an optional arbiter and an optional shared CADT."""

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        cadt: Cadt | None,
        policy: RecallPolicy,
        arbiter: ReaderModel | None,
        name: str,
    ):
        if len(readers) != 2:
            raise SimulationError(f"double reading needs exactly 2 readers, got {len(readers)}")
        self.readers = tuple(readers)
        self.cadt = cadt
        self.policy = RecallPolicy(policy)
        if self.policy is RecallPolicy.ARBITRATION and arbiter is None:
            raise SimulationError("the arbitration policy requires an arbiter reader")
        self.arbiter = arbiter
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    @property
    def _members(self) -> tuple[ReaderModel, ...]:
        """Everyone who reads each case, in reading order."""
        if self.policy is RecallPolicy.ARBITRATION:
            return (*self.readers, self.arbiter)
        return self.readers

    @property
    def supports_batch(self) -> bool:
        """Whether :meth:`decide_batch` is available.

        Requires every member to be a distinct plain reader and the tool
        (if any) to be drift-free, as
        :class:`~repro.system.single.AssistedReading` does.  A reader
        listed twice draws two segments per case from one private
        generator, which only the scalar loop reproduces unseeded.
        """
        members = self._members
        return (
            all(isinstance(member, ReaderModel) for member in members)
            and len({id(member) for member in members}) == len(members)
            and (self.cadt is None or self.cadt.drift_per_case == 0.0)
        )

    def decide(
        self, case: Case, rng: np.random.Generator | None = None
    ) -> SystemDecision:
        output = None if self.cadt is None else self.cadt.process(case, rng)
        recalls = [member.decide(case, output, rng).recall for member in self._members]
        if output is None:
            machine_failed = None
        elif case.has_cancer:
            machine_failed = output.is_false_negative(case)
        else:
            machine_failed = output.is_false_positive(case)
        return SystemDecision(
            case_id=case.case_id,
            recall=_combine(self.policy, *recalls),
            machine_failed=machine_failed,
        )

    def decide_batch(
        self, arrays: "CaseArrays", rng: np.random.Generator | None = None
    ) -> BatchDecisions:
        """Vectorized :meth:`decide` over a batch of cases.

        With ``rng`` omitted, the CADT and every member draw from their
        private generators; with a shared ``rng``, one flat draw is split
        per case into the tool's ``[u_miss, u_prompts]`` and the members'
        segments in reading order.  Either way the results are
        bit-identical to calling :meth:`decide` case by case.
        """
        if not self.supports_batch:
            raise SimulationError(
                f"system {self.name!r} has stateful or repeated members or a "
                "drifting tool; use the scalar path"
            )
        members = self._members
        cadt_u, uniforms = None, [None] * len(members)
        if rng is not None:
            cadt_u, uniforms = _split_shared_uniforms(
                arrays, rng, readers=len(members), cadt=self.cadt is not None
            )
        output = None if self.cadt is None else self.cadt.process_batch(arrays, u=cadt_u)
        recalls = [
            member.decide_batch(arrays, output, u=u) for member, u in zip(members, uniforms)
        ]
        return BatchDecisions(
            case_id=arrays.case_id,
            recall=_combine(self.policy, *recalls),
            machine_failed=None if output is None else output.machine_failed(arrays.has_cancer),
        )


class DoubleReading(_PairedReading):
    """Two unaided readers with a recall policy (U.K. practice baseline).

    Args:
        readers: Exactly two reader models.
        policy: How the two decisions combine.
        arbiter: Third reader deciding disagreements; required for the
            arbitration policy, ignored otherwise.
        name: Evaluation label.
    """

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        policy: RecallPolicy = RecallPolicy.EITHER,
        arbiter: ReaderModel | None = None,
        name: str | None = None,
    ):
        policy = RecallPolicy(policy)
        super().__init__(
            readers, None, policy, arbiter, name if name is not None else f"double_{policy.value}"
        )


class AssistedDoubleReading(_PairedReading):
    """Two readers, each seeing the same CADT output, with a recall policy.

    The CADT processes each case once; both readers review the same
    prompted films — so the machine's failures are a *common* influence on
    both readers, the system-level analogue of common-mode failure.

    Args:
        readers: Exactly two reader models.
        cadt: The shared advisory tool.
        policy: How the two decisions combine.
        arbiter: Third reader for the arbitration policy; the arbiter also
            sees the CADT output.
        name: Evaluation label.
    """

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        cadt: Cadt,
        policy: RecallPolicy = RecallPolicy.EITHER,
        arbiter: ReaderModel | None = None,
        name: str | None = None,
    ):
        policy = RecallPolicy(policy)
        super().__init__(
            readers,
            cadt,
            policy,
            arbiter,
            name if name is not None else f"assisted_double_{policy.value}",
        )
