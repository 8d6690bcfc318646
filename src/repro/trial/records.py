"""Per-decision records collected by simulated trials.

A :class:`CaseRecord` is one (case, reader) reading event with everything
an analyst is allowed to see: the case's observable class, ground truth
(known in a trial's case set), the machine's behaviour on the case, and
the reader's decision.  :class:`TrialRecords` is the queryable collection
the estimators consume; :class:`RecordBatch` holds the same events field
by field, the shape the streaming monitor folds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from ..core.case_class import CaseClass
from ..exceptions import EstimationError

__all__ = ["CaseRecord", "RecordBatch", "TrialRecords"]

#: The largest false-prompt count a record may carry: the streaming
#: monitor folds the counts into float moments, which hold every integer
#: up to ``2**53`` exactly and overflow on one past the float range.
MAX_FALSE_PROMPTS = 2**53


@dataclass(frozen=True)
class CaseRecord:
    """One reading event in a trial.

    Attributes:
        case_id: The case read.
        reader_name: Which reader read it.
        case_class: The observable class assigned by the trial's
            classification criterion.
        has_cancer: Ground truth for the case.
        aided: Whether the reader saw the CADT's output.
        machine_failed: For aided cancer cases, whether the CADT failed to
            prompt the relevant features (``Mf``); for aided healthy cases,
            whether it placed any false prompt (machine false positive);
            ``None`` for unaided reading.
        machine_false_prompts: Number of false prompts shown (``None``
            unaided).
        recalled: The reader's decision: recall the patient or not.
    """

    case_id: int
    reader_name: str
    case_class: CaseClass
    has_cancer: bool
    aided: bool
    machine_failed: bool | None
    machine_false_prompts: int | None
    recalled: bool

    def __post_init__(self) -> None:
        if self.aided and self.machine_failed is None:
            raise EstimationError(
                f"aided record for case {self.case_id} must report machine_failed"
            )
        if not self.aided and self.machine_failed is not None:
            raise EstimationError(
                f"unaided record for case {self.case_id} must not report machine_failed"
            )
        prompts = self.machine_false_prompts
        if prompts is not None and prompts < 0:
            raise EstimationError(f"machine_false_prompts must be >= 0, got {prompts!r}")
        if prompts is not None and prompts > MAX_FALSE_PROMPTS:
            raise EstimationError(
                f"machine_false_prompts must be at most 2**53, got {prompts!r}"
            )

    @property
    def human_failed(self) -> bool:
        """Reader failure: missed cancer, or recalled a healthy patient.

        Reader failures and system failures coincide (the reader's decision
        is the system's output).
        """
        if self.has_cancer:
            return not self.recalled
        return self.recalled

    @property
    def system_failed(self) -> bool:
        """Alias of :attr:`human_failed`, in the paper's system terms."""
        return self.human_failed


#: Each :class:`RecordBatch` column's getter on a record, in column
#: order (the class read by name).
_COLUMN_GETTERS = tuple(
    attrgetter(name)
    for name in (
        "case_id",
        "reader_name",
        "case_class.name",
        "has_cancer",
        "aided",
        "machine_failed",
        "machine_false_prompts",
        "recalled",
    )
)


@dataclass(frozen=True)
class RecordBatch:
    """Reading events held field by field: one tuple per field, one
    position per record.

    The columns carry :class:`CaseRecord`'s fields, the class by name;
    every position holds what a valid :class:`CaseRecord` would: build
    one with :meth:`from_records`, from records, or with
    :func:`repro.trial.storage.records_from_entries`, which checks the
    entries once per batch.  ``len()`` is the record count.
    """

    case_id: tuple[int, ...]
    reader_name: tuple[str, ...]
    case_class: tuple[str, ...]
    has_cancer: tuple[bool, ...]
    aided: tuple[bool, ...]
    machine_failed: tuple[bool | None, ...]
    machine_false_prompts: tuple[int | None, ...]
    recalled: tuple[bool, ...]

    def __post_init__(self) -> None:
        lengths = {len(getattr(self, field.name)) for field in fields(self)}
        if len(lengths) > 1:
            raise EstimationError(f"record batch columns differ in length: {sorted(lengths)}")

    @classmethod
    def from_records(cls, records: Iterable[CaseRecord]) -> "RecordBatch":
        """The batch of ``records``, in order.

        Raises:
            EstimationError: if any item is not a :class:`CaseRecord`.
        """
        records = records if isinstance(records, (list, tuple)) else list(records)
        if not all(map(isinstance, records, repeat(CaseRecord))):
            stray = next(r for r in records if not isinstance(r, CaseRecord))
            raise EstimationError(f"expected CaseRecord, got {type(stray).__name__}")
        # Column by column: no per-record tuple to allocate (and collect).
        return cls(*(tuple(map(getter, records)) for getter in _COLUMN_GETTERS))

    def __len__(self) -> int:
        return len(self.case_id)


class TrialRecords:
    """A queryable collection of reading-event records.

    Args:
        records: The reading events, in any order.
    """

    def __init__(self, records: Iterable[CaseRecord] = ()):
        self._records: list[CaseRecord] = list(records)

    def append(self, record: CaseRecord) -> None:
        """Add one record."""
        if not isinstance(record, CaseRecord):
            raise EstimationError(f"expected CaseRecord, got {type(record).__name__}")
        self._records.append(record)

    def extend(self, records: Iterable[CaseRecord]) -> None:
        """Add many records."""
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CaseRecord]:
        return iter(self._records)

    def __add__(self, other: "TrialRecords") -> "TrialRecords":
        if not isinstance(other, TrialRecords):
            return NotImplemented
        return TrialRecords(list(self._records) + list(other._records))

    # -- filtering -----------------------------------------------------------

    def filter(self, predicate: Callable[[CaseRecord], bool]) -> "TrialRecords":
        """Records satisfying an arbitrary predicate."""
        return TrialRecords(r for r in self._records if predicate(r))

    def cancers(self) -> "TrialRecords":
        """Records of cancer cases (the false-negative demand space)."""
        return self.filter(lambda r: r.has_cancer)

    def healthy(self) -> "TrialRecords":
        """Records of healthy cases (the false-positive demand space)."""
        return self.filter(lambda r: not r.has_cancer)

    def aided(self) -> "TrialRecords":
        """Records of CADT-assisted reading."""
        return self.filter(lambda r: r.aided)

    def unaided(self) -> "TrialRecords":
        """Records of unaided reading."""
        return self.filter(lambda r: not r.aided)

    def for_class(self, case_class: CaseClass | str) -> "TrialRecords":
        """Records of one case class."""
        name = case_class.name if isinstance(case_class, CaseClass) else case_class
        return self.filter(lambda r: r.case_class.name == name)

    def for_reader(self, reader_name: str) -> "TrialRecords":
        """Records of one reader."""
        return self.filter(lambda r: r.reader_name == reader_name)

    # -- summaries ------------------------------------------------------------

    @property
    def case_classes(self) -> tuple[CaseClass, ...]:
        """Distinct case classes appearing in the records, sorted."""
        return tuple(sorted({r.case_class for r in self._records}))

    @property
    def reader_names(self) -> tuple[str, ...]:
        """Distinct reader names appearing in the records, sorted."""
        return tuple(sorted({r.reader_name for r in self._records}))

    def count(self, predicate: Callable[[CaseRecord], bool] | None = None) -> int:
        """Number of records (matching ``predicate`` when given)."""
        if predicate is None:
            return len(self._records)
        return sum(1 for r in self._records if predicate(r))

    def failure_rate(self) -> float:
        """Fraction of records where the system failed.

        Raises:
            EstimationError: on an empty collection.
        """
        if not self._records:
            raise EstimationError("cannot compute a failure rate from zero records")
        return self.count(lambda r: r.system_failed) / len(self._records)

    def class_counts(self) -> dict[CaseClass, int]:
        """Number of records per case class."""
        counts: dict[CaseClass, int] = {}
        for record in self._records:
            counts[record.case_class] = counts.get(record.case_class, 0) + 1
        return counts
