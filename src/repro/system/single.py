"""Single-reader screening systems (Figure 1's composite system).

A *screening system* is anything that turns a case into the 1-bit
recall/no-recall decision.  The two basic configurations are the unaided
reader and the paper's subject — a reader assisted by a CADT, where "the
reader's decision is the output of the whole system".

Every system exposes ``decide(case) -> SystemDecision``; the decision
carries the machine's behaviour on the case (when a machine was involved)
so evaluations can condition on machine failure exactly as the sequential
model does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..cadt.algorithm import CadtBatchOutput
from ..cadt.tool import Cadt
from ..exceptions import SimulationError
from ..reader.reader import ReaderModel
from ..reader.state import ReaderStateVector
from ..screening.case import Case

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays

__all__ = [
    "SystemDecision",
    "BatchDecisions",
    "ScreeningSystem",
    "UnaidedReading",
    "AssistedReading",
]


@dataclass(frozen=True)
class SystemDecision:
    """A screening system's output on one case.

    Attributes:
        case_id: The decided case.
        recall: The system's 1-bit decision.
        machine_failed: Whether the machine component failed on the case
            (false negative on cancers, false prompt on healthy cases);
            ``None`` for systems without a machine.
    """

    case_id: int
    recall: bool
    machine_failed: bool | None

    def is_failure(self, case: Case) -> bool:
        """Whether the decision is wrong for the case's ground truth."""
        if case.case_id != self.case_id:
            raise SimulationError(
                f"decision for case {self.case_id} checked against case {case.case_id}"
            )
        return self.recall != case.has_cancer


@dataclass(frozen=True)
class BatchDecisions:
    """A screening system's output over a whole batch (struct of arrays).

    The batch analogue of :class:`SystemDecision`: element ``i`` of every
    array describes the system's behaviour on case ``i`` of the batch.

    Attributes:
        case_id: Case identifiers, ``int64[n]``.
        recall: The system's 1-bit decisions.
        machine: The tool's annotations and the cases' ground truth, from
            which :attr:`machine_failed` is computed on first read
            (``None`` for systems without a machine component).
    """

    case_id: np.ndarray
    recall: np.ndarray
    machine: tuple[CadtBatchOutput, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.case_id)

    @cached_property
    def machine_failed(self) -> np.ndarray | None:
        """Per-case machine failure (``None`` for systems without a machine)."""
        if self.machine is None:
            return None
        output, has_cancer = self.machine
        return output.machine_failed(has_cancer)

    def failures(self, has_cancer: np.ndarray) -> np.ndarray:
        """Per-case system failure against ground truth."""
        if len(has_cancer) != len(self.recall):
            raise SimulationError(
                f"ground truth for {len(has_cancer)} cases checked against "
                f"{len(self.recall)} decisions"
            )
        return self.recall != has_cancer


class ScreeningSystem(Protocol):
    """Anything that produces recall decisions on screening cases."""

    @property
    def name(self) -> str:
        """Identifier used in evaluations."""
        ...

    def decide(
        self, case: Case, rng: np.random.Generator | None = None
    ) -> SystemDecision:
        """Decide one case.

        Args:
            case: The case under review.
            rng: Random generator for every stochastic component of the
                decision; each component's private generator when omitted.
                Threading an explicit generator is what makes seeded
                common-random-number comparisons possible (see
                :func:`repro.system.simulate.compare_systems`).
        """
        ...


class UnaidedReading:
    """A single reader with no computer support (the historical baseline).

    Args:
        reader: The reader model.
        name: Evaluation label (defaults to ``unaided(<reader>)``).
    """

    def __init__(self, reader: ReaderModel, name: str | None = None):
        self.reader = reader
        self._name = name if name is not None else f"unaided({reader.name})"

    @property
    def name(self) -> str:
        return self._name

    @property
    def supports_batch(self) -> bool:
        """Whether :meth:`decide_batch` is available (stateless reader)."""
        return isinstance(self.reader, ReaderModel)

    def decide(
        self, case: Case, rng: np.random.Generator | None = None
    ) -> SystemDecision:
        decision = self.reader.decide(case, None, rng)
        return SystemDecision(
            case_id=case.case_id, recall=decision.recall, machine_failed=None
        )

    def decide_batch(
        self, arrays: "CaseArrays", rng: np.random.Generator | None = None
    ) -> BatchDecisions:
        """Vectorized :meth:`decide` over a batch of cases.

        With ``rng`` omitted, draws from the reader's private generator in
        the same fixed layout the scalar loop consumes — so the results
        are bit-identical to calling :meth:`decide` case by case.
        """
        if not self.supports_batch:
            raise SimulationError(
                f"system {self.name!r} wraps a stateful reader "
                f"({type(self.reader).__name__}); use the scalar path"
            )
        recall = self.reader.decide_batch(arrays, None, rng=rng)
        return BatchDecisions(case_id=arrays.case_id, recall=recall)

    @property
    def supports_stream(self) -> bool:
        """Whether :meth:`advance_stream` is available.

        True for temporal reader wrappers (:class:`FatiguedReader`,
        :class:`AdaptiveReader`) around a vectorizable base reader.
        """
        return bool(getattr(self.reader, "supports_stream", False))

    def stream_state(self) -> ReaderStateVector:
        """The reader's current temporal state as a carryable vector."""
        return self.reader.stream_state()

    def commit_stream(self, state: ReaderStateVector) -> None:
        """Adopt a carried state vector as the reader's mutable state."""
        self.reader.commit_state(state)

    def advance_stream(
        self,
        arrays: "CaseArrays",
        state: ReaderStateVector,
        rng: np.random.Generator | None = None,
    ) -> tuple[BatchDecisions, ReaderStateVector]:
        """Decide one chunk of the stream from a carried state.

        The chunked analogue of :meth:`decide_batch` for temporal
        readers: the state enters explicitly and the successor state is
        returned, so in-order chunks reproduce the scalar loop exactly
        at any chunk size (see ``docs/engine.md``).
        """
        if not self.supports_stream:
            raise SimulationError(
                f"system {self.name!r} does not support stream advancement "
                f"(reader={type(self.reader).__name__})"
            )
        recall, next_state = self.reader.advance_stream(arrays, None, state, rng=rng)
        return BatchDecisions(case_id=arrays.case_id, recall=recall), next_state


class AssistedReading:
    """The paper's system: one reader assisted by a CADT.

    The machine processes the films first; the reader decides from the
    original and prompted films (the "sequential operation" of Section 4 —
    or, if the reader's procedure is
    :attr:`~repro.reader.reader.ReadingProcedure.PARALLEL`, the intended
    Section 3 procedure).

    Args:
        reader: The reader model.
        cadt: The advisory tool.
        name: Evaluation label (defaults to ``assisted(<reader>)``).
    """

    def __init__(self, reader: ReaderModel, cadt: Cadt, name: str | None = None):
        self.reader = reader
        self.cadt = cadt
        self._name = name if name is not None else f"assisted({reader.name})"

    @property
    def name(self) -> str:
        return self._name

    @property
    def supports_batch(self) -> bool:
        """Whether :meth:`decide_batch` is available.

        Requires a stateless reader and a drift-free tool; a drifting
        CADT or a fatigued/adapting reader is order-dependent and must go
        through the scalar loop.
        """
        return isinstance(self.reader, ReaderModel) and self.cadt.drift_per_case == 0.0

    def decide(
        self, case: Case, rng: np.random.Generator | None = None
    ) -> SystemDecision:
        output = self.cadt.process(case, rng)
        machine_failed = (
            output.is_false_negative(case)
            if case.has_cancer
            else output.is_false_positive(case)
        )
        decision = self.reader.decide(case, output, rng)
        return SystemDecision(
            case_id=case.case_id, recall=decision.recall, machine_failed=machine_failed
        )

    def decide_batch(
        self, arrays: "CaseArrays", rng: np.random.Generator | None = None
    ) -> BatchDecisions:
        """Vectorized :meth:`decide` over a batch of cases.

        With ``rng`` omitted, the CADT and the reader draw from their own
        private generators in the same fixed layouts the scalar loop
        consumes, so the results are bit-identical to calling
        :meth:`decide` case by case.  With a shared ``rng``, one flat
        draw is split per case into ``[u_miss, u_prompts]`` for the tool
        followed by the reader's uniforms — the same interleaving
        :meth:`decide` consumes from a shared generator.
        """
        if not self.supports_batch:
            raise SimulationError(
                f"system {self.name!r} has stateful components "
                f"(reader={type(self.reader).__name__}, "
                f"drift={self.cadt.drift_per_case!r}); use the scalar path"
            )
        if rng is None:
            output = self.cadt.process_batch(arrays)
            recall = self.reader.decide_batch(arrays, output)
        else:
            layout = arrays.shared_layout(1, True)
            flat = rng.random(layout.total)
            output = self.cadt.process_batch(arrays, u=flat[layout.cadt_index])
            recall = self.reader.decide_batch(
                arrays, output, u=flat, roles=layout.reader_roles[0]
            )
        return BatchDecisions(arrays.case_id, recall, (output, arrays.has_cancer))

    @property
    def supports_stream(self) -> bool:
        """Whether :meth:`advance_stream` is available.

        Requires a temporal reader wrapper around a vectorizable base
        reader and a drift-free tool; a drifting CADT is stateful in a
        way the reader-state carry does not capture, so it stays on the
        scalar path.
        """
        return (
            bool(getattr(self.reader, "supports_stream", False))
            and self.cadt.drift_per_case == 0.0
        )

    def stream_state(self) -> ReaderStateVector:
        """The reader's current temporal state as a carryable vector."""
        return self.reader.stream_state()

    def commit_stream(self, state: ReaderStateVector) -> None:
        """Adopt a carried state vector as the reader's mutable state."""
        self.reader.commit_state(state)

    def advance_stream(
        self,
        arrays: "CaseArrays",
        state: ReaderStateVector,
        rng: np.random.Generator | None = None,
    ) -> tuple[BatchDecisions, ReaderStateVector]:
        """Decide one chunk of the stream from a carried state.

        The chunked analogue of :meth:`decide_batch` for temporal
        readers.  With ``rng`` omitted, the CADT and the reader draw
        from their own private generators; with a shared ``rng``, the
        flat draw is split per case exactly as :meth:`decide` consumes
        it, so seeded streams reproduce the scalar loop bit for bit.
        """
        if not self.supports_stream:
            raise SimulationError(
                f"system {self.name!r} does not support stream advancement "
                f"(reader={type(self.reader).__name__}, "
                f"drift={self.cadt.drift_per_case!r})"
            )
        if rng is None:
            output = self.cadt.process_batch(arrays)
            recall, next_state = self.reader.advance_stream(arrays, output, state)
        else:
            layout = arrays.shared_layout(1, True)
            flat = rng.random(layout.total)
            output = self.cadt.process_batch(arrays, u=flat[layout.cadt_index])
            recall, next_state = self.reader.advance_stream(
                arrays, output, state, u=flat, roles=layout.reader_roles[0]
            )
        decisions = BatchDecisions(arrays.case_id, recall, (output, arrays.has_cancer))
        return decisions, next_state
