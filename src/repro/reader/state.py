"""Array-backed temporal reader state: the chunk-carry protocol's payload.

The temporal reader dynamics — :class:`~repro.reader.adaptation.AdaptiveTrust`
and :class:`~repro.reader.fatigue.FatigueModel` — were born as scalar
state machines: one Python float mutated per case.  That shape forces
every long-horizon workload through the per-case scalar loop.  The
vectorized stream path instead carries the *same* state as a
:class:`ReaderStateVector`: contiguous NumPy arrays holding the trust
multipliers, fatigue decrements, and per-reader counters, advanced one
chunk at a time by the kernels in :mod:`repro.reader.dynamics`.

A state vector is a **value**: ``advance_*`` kernels take one and return
the next, never mutating their input, so a chunk can be re-run (e.g.
after a broken worker pool) from its carried state and produce identical
results.  The scalar classes remain the reference implementation;
``stream_state()`` / ``commit_state()`` on the wrappers convert between
the two representations losslessly.

The vector holds one slot per reader stream.  Single-reader systems use
``num_readers == 1``; the layout generalises to per-reader panels
without changing the carry protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError, SimulationError

__all__ = ["STATE_FIELDS", "ReaderStateVector"]

#: Each state column's dtype, in declaration order (mirrors ``ReaderStateVector``).
_FIELD_DTYPES = {
    "trust": np.float64,
    "observed_successes": np.int64,
    "caught_failures": np.int64,
    "decrement": np.float64,
    "cases_this_session": np.int64,
}

#: The state columns, in declaration order.
STATE_FIELDS = tuple(_FIELD_DTYPES)


@dataclass(frozen=True)
class ReaderStateVector:
    """Per-reader temporal state as contiguous arrays (one slot per reader).

    Carries *all* temporal reader state in one structure; dynamics that a
    given reader does not use simply keep their columns at the fresh
    values (trust 1.0, everything else 0).

    Attributes:
        trust: Trust multipliers, ``float64[k]``
            (:class:`~repro.reader.adaptation.AdaptiveTrust`).
        observed_successes: Machine outputs experienced as helpful,
            ``int64[k]``.
        caught_failures: Machine misses the reader noticed, ``int64[k]``.
        decrement: Vigilance decrements (logit penalty), ``float64[k]``
            (:class:`~repro.reader.fatigue.FatigueModel`).
        cases_this_session: Cases read since the last break, ``int64[k]``.
    """

    trust: np.ndarray
    observed_successes: np.ndarray
    caught_failures: np.ndarray
    decrement: np.ndarray
    cases_this_session: np.ndarray

    def __post_init__(self) -> None:
        length: int | None = None
        for name, dtype in _FIELD_DTYPES.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if column.ndim != 1:
                raise SimulationError(
                    f"state column {name!r} must be 1-D, "
                    f"got shape {column.shape!r}"
                )
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise SimulationError(
                    f"state column {name!r} has {len(column)} slots, "
                    f"expected {length}"
                )
            object.__setattr__(self, name, column)

    @classmethod
    def fresh(cls, num_readers: int = 1, initial_trust: float = 1.0) -> "ReaderStateVector":
        """The state of ``num_readers`` fresh readers (start of stream)."""
        if num_readers < 1:
            raise ParameterError(
                f"num_readers must be >= 1, got {num_readers!r}"
            )
        return cls(
            trust=np.full(num_readers, float(initial_trust)),
            observed_successes=np.zeros(num_readers, dtype=np.int64),
            caught_failures=np.zeros(num_readers, dtype=np.int64),
            decrement=np.zeros(num_readers),
            cases_this_session=np.zeros(num_readers, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.trust)

    def clone(self) -> "ReaderStateVector":
        """An independent copy (mutating neither affects the other)."""
        return ReaderStateVector(
            **{name: getattr(self, name).copy() for name in STATE_FIELDS}
        )

    def replace(self, **columns: np.ndarray) -> "ReaderStateVector":
        """A new state with the named columns replaced, the rest shared."""
        merged = {name: getattr(self, name) for name in STATE_FIELDS}
        for name in columns:
            if name not in merged:
                raise SimulationError(f"unknown state column {name!r}")
        merged.update(columns)
        return ReaderStateVector(**merged)

    def __repr__(self) -> str:
        if len(self) == 1:
            return (
                f"ReaderStateVector(trust={self.trust[0]:.4f}, "
                f"decrement={self.decrement[0]:.4f}, "
                f"session={int(self.cases_this_session[0])}, "
                f"successes={int(self.observed_successes[0])}, "
                f"caught={int(self.caught_failures[0])})"
            )
        return f"ReaderStateVector(num_readers={len(self)})"
