"""Chunk-advance kernels for the temporal reader dynamics.

These kernels run :class:`~repro.reader.adaptation.AdaptiveReader` and
:class:`~repro.reader.fatigue.FatiguedReader` semantics over whole
chunks of cases, bit-identically to the scalar per-case loops, carrying
a :class:`~repro.reader.state.ReaderStateVector` across chunk
boundaries.  Two observations make exact vectorization possible:

* **Fatigue is outcome-independent.**  The vigilance decrement is a
  deterministic recurrence in the case index (``d += rate * (max - d)``,
  reset on session breaks), so the whole per-case decrement path of a
  chunk is computable up front — :func:`fatigue_decrement_path` — and
  the decisions then vectorize with per-case effective skills.
* **Trust is deterministic between caught failures, and few cases can
  be one.**  Between the cases where the reader catches a machine miss,
  trust follows the pure success recurrence — :func:`trust_growth_path`.
  A catch needs an unprompted cancer, unlapsed, whose classification
  draw passes a probability no trust enters, so those candidates are
  known up front; trust decides only their detection tests.
  :func:`advance_adaptive_chunk` therefore walks the chunk once,
  stepping the recurrence and testing each candidate at the trust then
  in force, and then decides every case from the per-case trust.

Both recurrences are evaluated with the scalar classes' Python-float
arithmetic, so the state values match them to the last bit.  Each
path steps one case at a time only until the float recurrence reaches
its fixed point (``d + rate * (max - d) == d``, after 3,233 cases at
the default fatigue rate) and fills the rest of the run with that
value; :func:`chunk_decrement_path` memoises each decrement path on its
chunk, so every system deciding a chunk from one state steps it once.
A fatigued reader then decides through the rested
reader's own body (:meth:`~repro.reader.reader.ReaderModel.decide_chunk`)
over the probability table of its path, memoised on the chunk as well;
the adaptive kernel vectorizes its per-case decision work (sigmoids,
uniform comparisons) over the chunk's role indices, index sets and
difficulty logits (:class:`~repro.engine.arrays.CaseArrays`).  Every
expression reproduces the scalar operation order exactly (see
``docs/engine.md``).

The kernels never draw randomness: callers pass the chunk's flat
uniforms ``u`` in the fixed layout the scalar loop consumes (four per
cancer case, one per healthy case, in case order), or a shared draw
with the reader's :class:`~repro.engine.arrays.ReaderRoles` in it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from .._numeric import float_key, read_only
from .._numeric import sigmoid as _sigmoid
from ..cadt.algorithm import CadtBatchOutput
from ..exceptions import SimulationError
from .reader import ReaderModel, check_chunk_outputs, draw_roles
from .state import ReaderStateVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays, ReaderRoles
    from .adaptation import AdaptiveTrust
    from .fatigue import FatigueModel

__all__ = [
    "trust_growth_path",
    "fatigue_decrement_path",
    "chunk_decrement_path",
    "advance_adaptive_chunk",
    "advance_fatigued_chunk",
]


def trust_growth_path(
    trust: float, growth_rate: float, max_trust: float, num_cases: int
) -> np.ndarray:
    """Trust trajectory over ``num_cases`` consecutive observed successes.

    Element ``i`` is the trust *in force* for the ``i``-th case (the
    value before its success is observed); the final element — index
    ``num_cases`` — is the trust after all successes.  Computed with the
    exact Python-float recurrence of
    :meth:`~repro.reader.adaptation.AdaptiveTrust.observe_success`:
    ``t = min(t + growth_rate * (max_trust - t), max_trust)``, stepped
    only until it reaches its float fixed point, as
    :func:`fatigue_decrement_path` does.
    """
    if num_cases < 0:
        raise SimulationError(f"num_cases must be >= 0, got {num_cases!r}")
    path = np.empty(num_cases + 1)
    t = float(trust)
    for i in range(num_cases):
        path[i] = t
        nxt = min(t + growth_rate * (max_trust - t), max_trust)
        if nxt == t:
            # A fixed point: one step from an equal value is bitwise
            # idempotent (even from -0.0, which steps to +0.0).
            path[i + 1 :] = nxt
            return path
        t = nxt
    path[num_cases] = t
    return path


def fatigue_decrement_path(
    decrement: float,
    cases_this_session: int,
    rate: float,
    max_decrement: float,
    cases_per_session: int | None,
    num_cases: int,
) -> tuple[np.ndarray, float, int]:
    """Per-case vigilance decrements over ``num_cases`` consecutive cases.

    Element ``i`` is the decrement *in force* for the ``i``-th case (the
    value before :meth:`~repro.reader.fatigue.FatigueModel.advance`
    registers it); returns ``(path, final_decrement,
    final_cases_this_session)`` where the finals are the post-chunk
    carry state.  Replicates ``advance()`` exactly, including the
    automatic session break after ``cases_per_session`` cases — so a
    chunk boundary landing on a break carries the already-rested state.
    Within a session the recurrence stops at its float fixed point, so
    a path costs at most that many Python steps per session.
    """
    if num_cases < 0:
        raise SimulationError(f"num_cases must be >= 0, got {num_cases!r}")
    path = np.empty(num_cases)
    d = float(decrement)
    count = int(cases_this_session)
    i = 0
    while i < num_cases:
        # One run: the cases up to the next automatic break (at least
        # one, as advance() breaks after any case that reaches the
        # session length) or the end of the chunk.
        run = num_cases - i
        if cases_per_session is not None:
            run = min(run, max(cases_per_session - count, 1))
        end = i + run
        while i < end:
            path[i] = d
            i += 1
            nxt = d + rate * (max_decrement - d)
            if nxt == d:
                # A fixed point: one step from an equal value is bitwise
                # idempotent (even from -0.0, which steps to +0.0).
                path[i:end] = nxt
                i = end
            d = nxt
        count += run
        if cases_per_session is not None and count >= cases_per_session:
            d = 0.0
            count = 0
    return path, d, count


def chunk_decrement_path(
    arrays: "CaseArrays",
    decrement: float,
    cases_this_session: int,
    rate: float,
    max_decrement: float,
    cases_per_session: int | None,
) -> tuple[np.ndarray, float, int]:
    """:func:`fatigue_decrement_path` over one chunk, memoised on it.

    The path is a pure function of its arguments, so every fatigued
    system that enters ``arrays`` in the same state with the same
    parameters shares one computation.  The key is the full argument
    tuple with floats keyed by their bits; the returned path is
    read-only, and a chunk keeps at most
    :data:`~repro.engine.arrays.ENTRIES_PER_KIND` paths (a chunk sees
    one per entry state and fatigue parameters, and those repeat: fresh
    readers enter every evaluation at the same states).
    """
    args = (decrement, cases_this_session, rate, max_decrement, cases_per_session)
    return _decrement_path(arrays, args)[1]


def _decrement_path(
    arrays: "CaseArrays", args: tuple
) -> tuple[Hashable, tuple[np.ndarray, float, int]]:
    """:func:`chunk_decrement_path` of ``args``, with its memo key."""
    decrement, cases_this_session, rate, max_decrement, cases_per_session = args
    key = (
        float_key(decrement),
        int(cases_this_session),
        float_key(rate),
        float_key(max_decrement),
        cases_per_session,
        len(arrays),
    )

    def compute() -> tuple[np.ndarray, float, int]:
        path, final_decrement, final_count = fatigue_decrement_path(*args, len(arrays))
        return read_only(path), final_decrement, final_count

    return key, arrays.bounded("fatigue_decrement_paths", key, compute)


def _chunk_roles(
    arrays: "CaseArrays",
    cadt_output: CadtBatchOutput | None,
    state: ReaderStateVector,
    u: np.ndarray,
    roles: "ReaderRoles | None",
) -> "ReaderRoles":
    """Check a chunk kernel's inputs; where the reader's uniforms sit in ``u``."""
    if len(state) != 1:
        raise SimulationError(
            f"chunk kernels carry single-reader state, got {len(state)} slots"
        )
    check_chunk_outputs(arrays, cadt_output)
    return draw_roles(arrays, u, roles)


def advance_fatigued_chunk(
    reader: ReaderModel,
    fatigue: "FatigueModel",
    arrays: "CaseArrays",
    cadt_output: CadtBatchOutput | None,
    state: ReaderStateVector,
    u: np.ndarray,
    roles: "ReaderRoles | None" = None,
) -> tuple[np.ndarray, ReaderStateVector]:
    """One chunk of :class:`~repro.reader.fatigue.FatiguedReader` decisions.

    The rested reader's decision body
    (:meth:`~repro.reader.reader.ReaderModel.decide_chunk`) over the
    probability table of the reader at this chunk's decrement path.

    Args:
        reader: The rested baseline reader (provides skills and bias).
        fatigue: The fatigue dynamics (provides the recurrence
            parameters; its mutable state is *not* read — the carried
            ``state`` is authoritative).
        arrays: The chunk, as a struct of arrays.
        cadt_output: Batch CADT annotations, or ``None`` for unaided
            reading.
        state: Carried state entering the chunk (``decrement`` and
            ``cases_this_session`` columns are used).
        u: Flat uniforms in the fixed layout (four per cancer case, one
            per healthy case).
        roles: Where the reader's uniforms sit in a shared ``u``.

    Returns:
        ``(recall, next_state)``: boolean decisions per case and the
        state to carry into the next chunk.
    """
    roles = _chunk_roles(arrays, cadt_output, state, u, roles)
    key, (d_path, d_final, count_final) = _decrement_path(
        arrays,
        (
            float(state.decrement[0]),
            int(state.cases_this_session[0]),
            fatigue.rate,
            fatigue.max_decrement,
            fatigue.cases_per_session,
        ),
    )
    table = reader.probability_table(arrays, decrement=(key, d_path))
    recall = reader.decide_chunk(arrays, cadt_output, u, roles, table)
    next_state = state.replace(
        decrement=np.array([d_final]),
        cases_this_session=np.array([count_final], dtype=np.int64),
    )
    return recall, next_state


def advance_adaptive_chunk(
    reader: ReaderModel,
    trust: "AdaptiveTrust",
    arrays: "CaseArrays",
    cadt_output: CadtBatchOutput | None,
    state: ReaderStateVector,
    u: np.ndarray,
    roles: "ReaderRoles | None" = None,
) -> tuple[np.ndarray, ReaderStateVector]:
    """One chunk of :class:`~repro.reader.adaptation.AdaptiveReader` decisions.

    Linear in the chunk.  Trust falls only on a caught machine failure,
    a recalled unprompted cancer, and follows the success recurrence on
    every other case.  Without a prompt no trust enters the
    misclassification probability, so only the unlapsed unprompted
    cancers whose classification draw passes it can be caught, whatever
    the trust: the *candidates*.  The kernel steps the success
    recurrence case by case (:func:`trust_growth_path`, which stops at
    its fixed point), tests each candidate's detection draw against its
    attentive miss at the trust then in force, and applies the failure
    penalty on a catch.  Then every case is decided once from the
    per-case trust, with the expressions the walk's tests used, so the
    decisions are the scalar loop's.

    Args:
        reader: The base reader model (bias at trust 1.0).
        trust: The trust dynamics (recurrence parameters; its mutable
            state is *not* read — the carried ``state`` is
            authoritative).
        arrays: The chunk, as a struct of arrays.
        cadt_output: Batch CADT annotations, or ``None`` for unaided
            reading (no trust influence, no trust updates).
        state: Carried state entering the chunk (``trust``,
            ``observed_successes``, ``caught_failures`` columns).
        u: Flat uniforms in the fixed layout.
        roles: Where the reader's uniforms sit in a shared ``u``.

    Returns:
        ``(recall, next_state)``.
    """
    roles = _chunk_roles(arrays, cadt_output, state, u, roles)
    if cadt_output is None:
        # Unaided reading: the scaled bias is structurally inert and the
        # trust update needs a machine output it never gets, so the
        # decisions are exactly the base reader's and the state carries
        # through unchanged.
        return reader.decide_batch(arrays, None, u=u, roles=roles), state

    skill = reader.skill
    bias = reader._active_bias(aided=True)
    growth = trust.growth_rate
    max_trust = trust.max_trust
    n = len(arrays)
    healthy = arrays.healthy_index
    cancers = arrays.cancer_index
    logit_hcd = arrays.human_classification_difficulty_logit
    prompted = cadt_output.prompted_relevant[cancers]
    u_recall, u_lapse, u_prompt, u_detect, u_classify = (u[index] for index in roles)

    # The terms no trust enters, once per chunk.
    detection_logit = arrays.human_detection_difficulty_logit[cancers] - skill.detection
    classification_logit = logit_hcd[cancers] - skill.classification
    lapsed = u_lapse < skill.lapse_rate
    registered = prompted & (u_prompt < reader.prompt_effectiveness)
    # An unprompted cancer's misclassification probability (no
    # persuasion: ``x - 0.0`` is ``x``) decides whether it can be caught.
    candidates = np.flatnonzero(
        ~prompted & ~lapsed & (u_classify >= _sigmoid(classification_logit))
    )

    # The trust in force for every case: successes between candidates,
    # a test at each.  A candidate that is not caught is the first
    # success of the next stretch.
    trust_path = np.empty(n)
    t = float(state.trust[0])
    pos = caught = 0
    for case, logit, draw in zip(
        cancers[candidates].tolist(),
        detection_logit[candidates].tolist(),
        u_detect[candidates].tolist(),
    ):
        stretch = trust_growth_path(t, growth, max_trust, case - pos)
        trust_path[pos : case + 1] = stretch
        t = float(stretch[-1])
        if draw >= _sigmoid(logit + bias.complacency_shift * t):
            caught += 1
            t *= trust.failure_penalty
            pos = case + 1
        else:
            pos = case
    stretch = trust_growth_path(t, growth, max_trust, n - pos)
    trust_path[pos:] = stretch[:-1]
    t = float(stretch[-1])

    t_h = trust_path[healthy]
    recall_logit = logit_hcd[healthy] - skill.specificity
    recall_logit = recall_logit + (
        (bias.false_prompt_persuasion * t_h) * cadt_output.num_false_prompts[healthy]
    )
    t_c = trust_path[cancers]
    attentive_miss = _sigmoid(
        detection_logit + np.where(prompted, 0.0, bias.complacency_shift * t_c)
    )
    noticed = registered | (~lapsed & (u_detect >= attentive_miss))
    p_misclass = _sigmoid(
        classification_logit - np.where(prompted, bias.prompt_persuasion * t_c, 0.0)
    )
    recall = np.empty(n, dtype=bool)
    recall[healthy] = u_recall < _sigmoid(recall_logit)
    recall[cancers] = noticed & (u_classify >= p_misclass)
    successes = int(state.observed_successes[0]) + n - caught
    caught_total = int(state.caught_failures[0]) + caught

    next_state = state.replace(
        trust=np.array([t]),
        observed_successes=np.array([successes], dtype=np.int64),
        caught_failures=np.array([caught_total], dtype=np.int64),
    )
    return recall, next_state
