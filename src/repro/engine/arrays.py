"""Struct-of-arrays form of a workload (the batch engine's case format.)

The scalar simulators consume :class:`~repro.screening.case.Case` objects
one at a time; the vectorized engine consumes the same information as one
NumPy array per attribute.  :class:`CaseArrays` is that columnar form and
the content a :class:`~repro.screening.workload.Workload` holds: the
population model draws straight into it, :meth:`CaseArrays.from_cases`
columnises existing cases, :meth:`CaseArrays.to_cases` materialises them
back, and the executor slices it into chunks without copying.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .._numeric import logit as _logit
from .._numeric import read_only as _read_only
from ..exceptions import SimulationError
from ..screening.case import Case, LesionType

__all__ = [
    "CaseArrays", "ReaderRoles", "SharedLayout", "LESION_CODES", "ARRAY_FIELDS", "ENTRIES_PER_KIND"
]

_T = TypeVar("_T")

#: Stable integer coding of lesion types (index into this tuple);
#: ``-1`` codes "no lesion" (healthy cases).
LESION_CODES: tuple[LesionType, ...] = tuple(LesionType)

_LESION_INDEX = {lesion: code for code, lesion in enumerate(LESION_CODES)}

_FLOAT_FIELDS = (
    "breast_density",
    "subtlety",
    "machine_difficulty",
    "human_detection_difficulty",
    "human_classification_difficulty",
    "distractor_level",
)

#: Every column of a :class:`CaseArrays`, in the canonical order used by
#: the shared-memory workload plane (:mod:`repro.engine.runtime`).
ARRAY_FIELDS: tuple[str, ...] = ("case_id", "has_cancer", "lesion_code", *_FLOAT_FIELDS)

#: Uniforms one reader consumes per case: ``[u_lapse, u_prompt,
#: u_detect, u_classify]`` on a cancer, ``[u_recall]`` on a healthy case.
_CANCER_DRAWS, _HEALTHY_DRAWS = 4, 1

#: Uniforms a CADT consumes per case, ``[u_miss, u_prompts]``.
_CADT_DRAWS = 2

#: Entries :meth:`CaseArrays.bounded` keeps per kind; the oldest is
#: dropped first.  A chunk sees one entry per component configuration
#: (or fatigue state) that decides it, and callers may choose those
#: freely, so the memo must not grow with them.
ENTRIES_PER_KIND = 8


def _column_logit(column: np.ndarray) -> np.ndarray:
    """Read-only ``logit(column)``, through :mod:`repro._numeric`."""
    return _read_only(np.asarray(_logit(column)))


class ReaderRoles(NamedTuple):
    """Where one reader's uniforms sit in a draw, one index array per role:
    ``recall`` in :attr:`CaseArrays.healthy_index` order, the cancer roles
    (in the order a cancer consumes them) in ``cancer_index`` order."""

    recall: np.ndarray
    lapse: np.ndarray
    prompt: np.ndarray
    detect: np.ndarray
    classify: np.ndarray


@dataclass(frozen=True)
class SharedLayout:
    """Where each component's uniforms sit in one shared flat draw.

    A system whose components share one generator consumes, per case,
    the CADT's ``[u_miss, u_prompts]`` (when there is a tool) and then
    each reader's segment in reading order.  One ``rng.random(total)``
    draw gathered through these indices gives every component the
    uniforms it would have drawn itself.

    Attributes:
        total: Uniforms in the flat draw.
        cadt_index: ``int64[n, 2]`` positions of each case's CADT pair;
            ``None`` without a tool.
        reader_roles: Per reader, in reading order, where its uniforms
            sit in the flat draw, by role (:class:`ReaderRoles`).
    """

    total: int
    cadt_index: np.ndarray | None
    reader_roles: tuple[ReaderRoles, ...]


@dataclass(frozen=True)
class CaseArrays:
    """A batch of screening cases as a struct of arrays.

    Element ``i`` of every array describes case ``i`` of the batch, in
    presentation order.  All arrays share one length.

    Attributes:
        case_id: Case identifiers, ``int64[n]``.
        has_cancer: Ground truth, ``bool[n]``.
        lesion_code: Index of the cancer's lesion type in
            :data:`LESION_CODES`, ``int8[n]``; ``-1`` for healthy cases.
        breast_density: Observable tissue density, ``float64[n]``.
        subtlety: Faintness of the cancer's signs, ``float64[n]``.
        machine_difficulty: Per-case CADT miss probability, ``float64[n]``.
        human_detection_difficulty: Per-case unaided miss probability,
            ``float64[n]``.
        human_classification_difficulty: Per-case misclassification
            probability, ``float64[n]``.
        distractor_level: Benign-feature density, ``float64[n]``.

    Everything else a decide kernel needs that depends on the columns
    alone — the reader layout, the shared-draw layouts, the cancer and
    healthy index sets, the difficulty logits, memoised chunk views —
    is derived on first use, read-only, and kept for the object's
    lifetime; what also depends on a component's configuration (its
    probability table, a fatigue decrement path, a classifier's
    cancer-class codes) is kept in a bounded memo (:meth:`bounded`).
    Pickling carries the columns only, so nothing derived crosses a
    process boundary.
    """

    case_id: np.ndarray
    has_cancer: np.ndarray
    lesion_code: np.ndarray
    breast_density: np.ndarray
    subtlety: np.ndarray
    machine_difficulty: np.ndarray
    human_detection_difficulty: np.ndarray
    human_classification_difficulty: np.ndarray
    distractor_level: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.case_id)
        for name in ("has_cancer", "lesion_code", *_FLOAT_FIELDS):
            if len(getattr(self, name)) != n:
                raise SimulationError(
                    f"CaseArrays field {name!r} has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )

    def __len__(self) -> int:
        return len(self.case_id)

    def __reduce__(self) -> tuple[type, tuple[np.ndarray, ...]]:
        return CaseArrays, tuple(getattr(self, name) for name in ARRAY_FIELDS)

    def digest(self) -> str:
        """Content digest: sha1 over the length and every column's bytes.

        The one content key of a workload (its
        :meth:`~repro.screening.workload.Workload.fingerprint`, behind
        workload ``==`` and ``hash``).
        """
        digest = hashlib.sha1()
        digest.update(str(len(self)).encode())
        for name in ARRAY_FIELDS:
            column = np.ascontiguousarray(getattr(self, name))
            digest.update(name.encode())
            digest.update(column.tobytes())
        return digest.hexdigest()

    @classmethod
    def from_cases(cls, cases: Iterable[Case]) -> "CaseArrays":
        """Columnise a sequence of cases (one pass, one copy)."""
        cases = tuple(cases)
        return cls(
            case_id=np.fromiter(
                (c.case_id for c in cases), dtype=np.int64, count=len(cases)
            ),
            has_cancer=np.fromiter(
                (c.has_cancer for c in cases), dtype=bool, count=len(cases)
            ),
            lesion_code=np.fromiter(
                (
                    -1 if c.lesion_type is None else _LESION_INDEX[c.lesion_type]
                    for c in cases
                ),
                dtype=np.int8,
                count=len(cases),
            ),
            **{
                name: np.fromiter(
                    (getattr(c, name) for c in cases),
                    dtype=np.float64,
                    count=len(cases),
                )
                for name in _FLOAT_FIELDS
            },
        )

    def to_cases(self) -> tuple[Case, ...]:
        """One validated :class:`Case` per row (the inverse of :meth:`from_cases`)."""
        columns = [getattr(self, name).tolist() for name in _FLOAT_FIELDS]
        return tuple(
            # Case's fields run in ARRAY_FIELDS order, lesion decoded.
            Case(case_id, has_cancer, lesion, *floats)
            for case_id, has_cancer, lesion, *floats in zip(
                self.case_id.tolist(),
                self.has_cancer.tolist(),
                self.lesion_types(),
                *columns,
            )
        )

    def take(self, index: np.ndarray) -> "CaseArrays":
        """The rows at ``index``, in that order (every column gathered)."""
        return CaseArrays(**{name: getattr(self, name)[index] for name in ARRAY_FIELDS})

    def chunk(self, start: int, stop: int) -> "CaseArrays":
        """The sub-batch ``[start, stop)`` (array views, no copying).

        Memoised: the same range returns the same object, and the full
        range returns this one — so every system that decides a chunk
        shares its derived arrays.
        """
        if not 0 <= start <= stop <= len(self):
            raise SimulationError(
                f"chunk [{start}, {stop}) out of bounds for {len(self)} cases"
            )
        if start == 0 and stop == len(self):
            return self
        return self.derived(
            ("chunk", start, stop),
            lambda: CaseArrays(
                **{name: getattr(self, name)[start:stop] for name in ARRAY_FIELDS}
            ),
        )

    # -- derived, seed-independent state ------------------------------------------

    @cached_property
    def _memo(self) -> dict[Hashable, Any]:
        return {}

    def derived(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, memoised on this object under ``key``.

        For values that depend on the columns and ``key`` alone (never on
        a seed or on mutable state): they live as long as this object and
        are shared by everything that reads it.  Arrays returned must be
        read-only.
        """
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute()
            return value

    def bounded(self, kind: str, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, memoised under ``(kind, key)`` among at most
        :data:`ENTRIES_PER_KIND` entries of ``kind``, oldest out.

        For per-configuration values (probability tables, decrement
        paths, class codes): the same rules as :meth:`derived`, with a
        bound.
        """
        entries: dict = self.derived(kind, dict)
        try:
            return entries[key]
        except KeyError:
            value = entries[key] = compute()
            if len(entries) > ENTRIES_PER_KIND:
                del entries[next(iter(entries))]
            return value

    @cached_property
    def cancer_index(self) -> np.ndarray:
        """Sorted positions of the cancer cases, ``int64``."""
        return _read_only(np.flatnonzero(self.has_cancer))

    @cached_property
    def healthy_index(self) -> np.ndarray:
        """Sorted positions of the healthy cases, ``int64``."""
        return _read_only(np.flatnonzero(~self.has_cancer))

    @cached_property
    def reader_offsets(self) -> np.ndarray:
        """Where each case's uniforms start in one reader's flat draw.

        The reader layout: four uniforms per cancer case and one per
        healthy case, in case order; this is its exclusive prefix sum,
        ``int64[n]``.
        """
        counts = np.where(self.has_cancer, _CANCER_DRAWS, _HEALTHY_DRAWS)
        return _read_only(np.cumsum(counts) - counts)

    @cached_property
    def reader_total(self) -> int:
        """Uniforms one reader consumes over the whole batch."""
        cancers = len(self.cancer_index)
        return _CANCER_DRAWS * cancers + _HEALTHY_DRAWS * (len(self) - cancers)

    def shared_layout(self, readers: int, cadt: bool) -> SharedLayout:
        """The :class:`SharedLayout` of ``readers`` readers, after a tool if ``cadt``."""
        if readers < 1:
            raise SimulationError(f"readers must be >= 1, got {readers!r}")
        return self.derived(
            ("shared_layout", readers, cadt), lambda: self._shared_layout(readers, cadt)
        )

    def _shared_layout(self, readers: int, cadt: bool) -> SharedLayout:
        head = _CADT_DRAWS if cadt else 0
        per_reader = np.where(self.has_cancer, _CANCER_DRAWS, _HEALTHY_DRAWS)
        counts = head + readers * per_reader
        offsets = np.cumsum(counts) - counts  # exclusive prefix sum
        cadt_index = None
        if cadt:
            # Column-major, so each column the tool reads of its gathered
            # pairs is contiguous.
            cadt_index = _read_only(np.stack((offsets, offsets + 1)).T)
        # Reader k's segment of case i starts at offsets[i] + head + k * per_reader[i].
        return SharedLayout(
            total=int(counts.sum()),
            cadt_index=cadt_index,
            reader_roles=tuple(
                self._roles(offsets + head + k * per_reader) for k in range(readers)
            ),
        )

    @cached_property
    def reader_roles(self) -> ReaderRoles:
        """A reader's :class:`ReaderRoles` in its own draw (the reader layout)."""
        return self._roles(self.reader_offsets)

    def _roles(self, segment: np.ndarray) -> ReaderRoles:
        """The roles of a reader whose segment of case ``i`` starts at ``segment[i]``."""
        start = segment[self.cancer_index]
        return ReaderRoles(
            _read_only(segment[self.healthy_index]),
            *(_read_only(start + role) for role in range(_CANCER_DRAWS)),
        )

    @cached_property
    def machine_difficulty_logit(self) -> np.ndarray:
        """``logit(machine_difficulty)``, ``float64[n]``."""
        return _column_logit(self.machine_difficulty)

    @cached_property
    def human_detection_difficulty_logit(self) -> np.ndarray:
        """``logit(human_detection_difficulty)``, ``float64[n]``."""
        return _column_logit(self.human_detection_difficulty)

    @cached_property
    def human_classification_difficulty_logit(self) -> np.ndarray:
        """``logit(human_classification_difficulty)``, ``float64[n]``."""
        return _column_logit(self.human_classification_difficulty)

    def lesion_types(self) -> Sequence[LesionType | None]:
        """Decode :attr:`lesion_code` back to lesion types."""
        return [
            None if code < 0 else LESION_CODES[code]
            for code in self.lesion_code.tolist()
        ]
