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
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import SimulationError
from ..screening.case import Case, LesionType

__all__ = ["CaseArrays", "LESION_CODES", "ARRAY_FIELDS"]

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

    @property
    def bytes_per_case(self) -> int:
        """Bytes one case occupies across all columns (chunk budgeting)."""
        return int(sum(getattr(self, name).dtype.itemsize for name in ARRAY_FIELDS))

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the batch (shared-memory sizing)."""
        return len(self) * self.bytes_per_case

    def digest(self) -> str:
        """Content digest: sha1 over the length and every column's bytes.

        The one content key of a workload (its
        :meth:`~repro.screening.workload.Workload.fingerprint`, which the
        runtime's workload cache is keyed by).
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
        """The sub-batch ``[start, stop)`` (array views, no copying)."""
        if not 0 <= start <= stop <= len(self):
            raise SimulationError(
                f"chunk [{start}, {stop}) out of bounds for {len(self)} cases"
            )
        return CaseArrays(
            case_id=self.case_id[start:stop],
            has_cancer=self.has_cancer[start:stop],
            lesion_code=self.lesion_code[start:stop],
            **{
                name: getattr(self, name)[start:stop] for name in _FLOAT_FIELDS
            },
        )

    def lesion_types(self) -> Sequence[LesionType | None]:
        """Decode :attr:`lesion_code` back to lesion types."""
        return [
            None if code < 0 else LESION_CODES[code]
            for code in self.lesion_code.tolist()
        ]
