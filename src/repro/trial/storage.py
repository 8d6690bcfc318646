"""Persistence for trial records and long-running computation journals.

Trial data outlives analysis sessions and moves between tools; records
round-trip through a plain CSV with a fixed header, one reading event per
row.  Booleans are stored as ``0``/``1`` and the nullable machine columns
as empty cells, so the files load cleanly in any spreadsheet or dataframe
library.

The journal helpers serve interruptible computations (the sweep engine's
shard checkpoints): append-only JSONL, flushed and fsynced per append so
a killed process loses at most the line it was writing, and a loader
that tolerates exactly that — a truncated or garbled *final* line — while
still failing loudly on corruption anywhere else.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections.abc import Mapping
from functools import partial
from itertools import repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

from ..core.case_class import CaseClass
from ..exceptions import EstimationError
from .records import MAX_FALSE_PROMPTS, CaseRecord, RecordBatch, TrialRecords

__all__ = [
    "dump_records_csv",
    "load_records_csv",
    "follow_records_csv",
    "follow_journal_records",
    "CSV_COLUMNS",
    "append_journal_entries",
    "load_journal_entries",
    "record_to_entry",
    "record_from_entry",
    "records_from_entries",
]

PathLike = str | Path

#: Column order of the CSV format (also its implicit version).
CSV_COLUMNS = (
    "case_id",
    "reader_name",
    "case_class",
    "has_cancer",
    "aided",
    "machine_failed",
    "machine_false_prompts",
    "recalled",
)


def append_journal_entries(
    path: PathLike, entries: Iterable[Mapping[str, Any]]
) -> None:
    """Append JSON-object entries to a JSONL journal, durably.

    Each entry becomes one line.  The whole batch is written, flushed,
    and fsynced in a single append so a crash between calls never leaves
    a partial *batch* — at worst the final line of the last batch is
    truncated, which :func:`load_journal_entries` tolerates.  Every
    append starts on a fresh line: a torn final line is cut first, and
    a complete one that lost its newline is terminated.

    Raises:
        EstimationError: if an entry is not a JSON object, or the file
            cannot be written.
    """
    lines: list[str] = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise EstimationError(
                f"journal entries must be JSON objects, got {type(entry).__name__}"
            )
        lines.append(json.dumps(dict(entry), sort_keys=True))
    if not lines:
        return
    try:
        with open(path, "a+b") as handle:
            _start_fresh_line(handle)
            handle.write(("\n".join(lines) + "\n").encode())
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise EstimationError(f"cannot append to journal {path}: {exc}") from exc


def _start_fresh_line(handle: BinaryIO) -> None:
    """Cut a torn final line, or terminate a complete one, before an append.

    A final line that does not parse is what a mid-write kill leaves
    (:func:`load_journal_entries` drops it); an append glued onto it
    would turn it into a malformed line in the middle of the journal.
    """
    end = handle.seek(0, os.SEEK_END)
    if end == 0:
        return
    handle.seek(end - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)
    data = handle.read()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        handle.truncate(start)
    else:
        handle.write(b"\n")


def _undecodable(path: PathLike, exc: UnicodeDecodeError) -> EstimationError:
    return EstimationError(
        f"{path}: undecodable byte {exc.object[exc.start]:#04x} (not UTF-8 text)"
    )


def _decode(data: bytes, path: PathLike) -> str:
    """``data`` as UTF-8 text; an undecodable byte is an EstimationError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def load_journal_entries(path: PathLike) -> list[dict[str, Any]]:
    """Read a JSONL journal written by :func:`append_journal_entries`.

    A missing file is an empty journal.  A garbled *final* line is
    dropped silently — that is what a mid-write kill leaves behind, and
    dropping it simply re-runs the work it described.  Garbage anywhere
    earlier raises: that is corruption, not interruption.  So does a
    byte that is not UTF-8 anywhere: the writer emits ASCII JSON, so no
    interrupted write leaves one.

    Raises:
        EstimationError: on an unreadable or undecodable file or a
            malformed non-final line.
    """
    try:
        text = _decode(Path(path).read_bytes(), path)
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise EstimationError(f"cannot read journal {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    entries: list[dict[str, Any]] = []
    last = len(lines) - 1
    for number, line in enumerate(lines):
        try:
            entry = json.loads(line)
        except ValueError:
            if number == last:
                break  # truncated tail from a mid-write kill
            raise EstimationError(
                f"{path}: malformed journal line {number + 1}: {line[:80]!r}"
            ) from None
        if not isinstance(entry, dict):
            raise EstimationError(
                f"{path}: journal line {number + 1} is not a JSON object"
            )
        entries.append(entry)
    return entries


def record_to_entry(record: CaseRecord) -> dict[str, Any]:
    """One record as a JSON-ready object (the JSONL/wire twin of a CSV row).

    The key set equals :data:`CSV_COLUMNS`; nullable machine fields stay
    ``None`` instead of the CSV's empty cell.  Round-trips exactly through
    :func:`record_from_entry`, which makes the entries safe to carry in
    journals and ingest requests.
    """
    return {
        "case_id": record.case_id,
        "reader_name": record.reader_name,
        "case_class": record.case_class.name,
        "has_cancer": record.has_cancer,
        "aided": record.aided,
        "machine_failed": record.machine_failed,
        "machine_false_prompts": record.machine_false_prompts,
        "recalled": record.recalled,
    }


#: The keys a record entry may carry.
_ENTRY_KEYS = frozenset(CSV_COLUMNS)


def _entry_bool(entry: Mapping[str, Any], key: str) -> bool:
    value = entry.get(key)
    if value is not True and value is not False:
        raise EstimationError(f"record field {key!r} must be a boolean, got {value!r}")
    return value


def record_from_entry(
    entry: Mapping[str, Any], classes: dict[str, CaseClass] | None = None
) -> CaseRecord:
    """Parse a JSON object written by :func:`record_to_entry`.

    Strict in the journal's spirit: unknown keys and mistyped fields are
    rejected loudly rather than silently coerced — a record that only
    *almost* parses would silently corrupt every downstream estimate.
    Exact types (decoded JSON's ``dict``, ``int``, ``str``) are tested
    before ``isinstance``.  ``classes`` (name -> :class:`CaseClass`, one
    dict per batch, never kept: the names are the client's) builds each
    class once.

    Raises:
        EstimationError: on a non-object entry, unknown/missing keys, a
            mistyped field, or an internally inconsistent record (e.g.
            aided without ``machine_failed``).
    """
    if type(entry) is not dict and not isinstance(entry, Mapping):
        raise EstimationError(
            f"record entry must be a JSON object, got {type(entry).__name__}"
        )
    if not _ENTRY_KEYS.issuperset(entry):
        raise EstimationError(
            f"unknown record fields {sorted(set(entry) - _ENTRY_KEYS)}; "
            f"expected {list(CSV_COLUMNS)}"
        )
    get = entry.get
    case_id = get("case_id")
    if type(case_id) is not int and (not isinstance(case_id, int) or isinstance(case_id, bool)):
        raise EstimationError(
            f"record field 'case_id' must be an integer, got {case_id!r}"
        )
    reader_name = get("reader_name")
    if type(reader_name) is not str and not isinstance(reader_name, str):
        raise EstimationError(
            f"record field 'reader_name' must be a string, got {reader_name!r}"
        )
    class_name = get("case_class")
    if (type(class_name) is not str and not isinstance(class_name, str)) or not class_name:
        raise EstimationError(
            f"record field 'case_class' must be a non-empty string, got {class_name!r}"
        )
    machine_failed = get("machine_failed")
    if machine_failed is not None and machine_failed is not True and machine_failed is not False:
        raise EstimationError(
            f"record field 'machine_failed' must be a boolean or null, "
            f"got {machine_failed!r}"
        )
    false_prompts = get("machine_false_prompts")
    if false_prompts is not None and type(false_prompts) is not int and (
        not isinstance(false_prompts, int) or isinstance(false_prompts, bool)
    ):
        raise EstimationError(
            f"record field 'machine_false_prompts' must be an integer or null, "
            f"got {false_prompts!r}"
        )
    classes = {} if classes is None else classes
    case_class = classes.get(class_name) or classes.setdefault(class_name, CaseClass(class_name))
    return CaseRecord(
        case_id,
        reader_name,
        case_class,
        _entry_bool(entry, "has_cancer"),
        _entry_bool(entry, "aided"),
        machine_failed,
        false_prompts,
        _entry_bool(entry, "recalled"),
    )


#: One entry's values in :class:`RecordBatch` column order (a missing key
#: is a ``KeyError``).
_ENTRY_VALUES = itemgetter(*CSV_COLUMNS)
_INT, _STR, _BOOL = {int}, {str}, {bool}
_OPTIONAL_BOOL, _OPTIONAL_INT = {bool, type(None)}, {int, type(None)}
_not_none = partial(is_not, None)


def records_from_entries(entries: Sequence[Any]) -> RecordBatch:
    """Decode a list of :func:`record_to_entry` objects into one batch.

    Accepts exactly the lists whose every entry :func:`record_from_entry`
    accepts.  One screen over whole columns covers the shape decoded JSON
    takes: every entry a ``dict`` with the eight keys, every field of its
    exact type, non-empty class names, ``machine_failed`` set on exactly
    the aided records and prompt counts in ``[0, 2**53]``.  A list the screen
    does not pass, bad or merely uncommon (an omitted null field, an
    ``int`` subclass), goes through :func:`record_from_entry` entry by
    entry, so the first bad entry is named as that path names it.

    Raises:
        EstimationError: ``records[i]: <reason>`` for the first entry
            :func:`record_from_entry` rejects.
    """
    batch = _screen_entries(entries)
    if batch is not None:
        return batch
    classes: dict[str, CaseClass] = {}
    records = []
    for index, entry in enumerate(entries):
        try:
            records.append(record_from_entry(entry, classes))
        except EstimationError as exc:
            raise EstimationError(f"records[{index}]: {exc}") from exc
    return RecordBatch.from_records(records)


def _screen_entries(entries: Sequence[Any]) -> RecordBatch | None:
    """The batch of ``entries`` if every one has the common exact shape,
    else ``None``."""
    if set(map(type, entries)) != {dict} or set(map(len, entries)) != {len(CSV_COLUMNS)}:
        return None
    try:
        columns = tuple(zip(*map(_ENTRY_VALUES, entries)))
    except KeyError:
        return None
    case_id, reader_name, case_class, has_cancer, aided, machine_failed, prompts, recalled = (
        columns
    )
    if not (
        _INT.issuperset(map(type, case_id))
        and _STR.issuperset(map(type, reader_name))
        and _STR.issuperset(map(type, case_class))
        and all(case_class)
        and _BOOL.issuperset(map(type, has_cancer))
        and _BOOL.issuperset(map(type, aided))
        and _BOOL.issuperset(map(type, recalled))
        and _OPTIONAL_BOOL.issuperset(map(type, machine_failed))
        and _OPTIONAL_INT.issuperset(map(type, prompts))
        and aided == tuple(map(is_not, machine_failed, repeat(None)))
        and min(filter(_not_none, prompts), default=0) >= 0
        and max(filter(_not_none, prompts), default=0) <= MAX_FALSE_PROMPTS
    ):
        return None
    return RecordBatch(*columns)


def _bool_cell(value: bool) -> str:
    return "1" if value else "0"


def _parse_bool(cell: str, column: str, row_number: int) -> bool:
    if cell == "1":
        return True
    if cell == "0":
        return False
    raise EstimationError(
        f"row {row_number}: column {column!r} must be 0 or 1, got {cell!r}"
    )


def dump_records_csv(path: PathLike, records: TrialRecords) -> None:
    """Write trial records to a CSV file (header + one row per event)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    record.case_id,
                    record.reader_name,
                    record.case_class.name,
                    _bool_cell(record.has_cancer),
                    _bool_cell(record.aided),
                    "" if record.machine_failed is None else _bool_cell(record.machine_failed),
                    "" if record.machine_false_prompts is None else record.machine_false_prompts,
                    _bool_cell(record.recalled),
                ]
            )


def load_records_csv(path: PathLike) -> TrialRecords:
    """Read trial records from a CSV file written by :func:`dump_records_csv`.

    Raises:
        EstimationError: on an unreadable or undecodable file, a
            missing/garbled header or a malformed row.
    """
    records = TrialRecords()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise EstimationError(f"cannot read records file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise EstimationError(f"{path}: empty records file")
            if tuple(header) != CSV_COLUMNS:
                raise EstimationError(
                    f"{path}: unexpected header {header!r}; expected {list(CSV_COLUMNS)}"
                )
            for row_number, row in enumerate(reader, start=2):
                records.append(_parse_row(row, row_number))
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    return records


def _parse_row(row: list[str], row_number: int) -> CaseRecord:
    """Parse one CSV data row (shared by the loader and the follower)."""
    if len(row) != len(CSV_COLUMNS):
        raise EstimationError(
            f"row {row_number}: expected {len(CSV_COLUMNS)} cells, got {len(row)}"
        )
    (
        case_id,
        reader_name,
        class_name,
        has_cancer,
        aided,
        machine_failed,
        false_prompts,
        recalled,
    ) = row
    try:
        parsed_id = int(case_id)
    except ValueError:
        raise EstimationError(
            f"row {row_number}: case_id must be an integer, got {case_id!r}"
        ) from None
    try:
        parsed_prompts = None if false_prompts == "" else int(false_prompts)
    except ValueError:
        raise EstimationError(
            f"row {row_number}: machine_false_prompts must be an integer "
            f"or empty, got {false_prompts!r}"
        ) from None
    if parsed_prompts is not None and not 0 <= parsed_prompts <= MAX_FALSE_PROMPTS:
        raise EstimationError(
            f"row {row_number}: machine_false_prompts must be in [0, 2**53], "
            f"got {false_prompts!r}"
        )
    return CaseRecord(
        case_id=parsed_id,
        reader_name=reader_name,
        case_class=CaseClass(class_name),
        has_cancer=_parse_bool(has_cancer, "has_cancer", row_number),
        aided=_parse_bool(aided, "aided", row_number),
        machine_failed=(
            None
            if machine_failed == ""
            else _parse_bool(machine_failed, "machine_failed", row_number)
        ),
        machine_false_prompts=parsed_prompts,
        recalled=_parse_bool(recalled, "recalled", row_number),
    )


def _drain_complete_lines(
    path: PathLike, offset: int, carry: bytes
) -> tuple[list[str], int, bytes]:
    """Read bytes appended past ``offset``; return complete lines as text.

    Only lines terminated by a newline are returned — a half-written
    final line (even one cut inside a multi-byte character) stays in
    ``carry`` for the next poll, which is exactly what an appending
    writer leaves mid-row.  A complete line that is not UTF-8 is
    corruption.  A missing file counts as "nothing new yet".
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
            offset = handle.tell()
    except FileNotFoundError:
        return [], offset, carry
    except OSError as exc:
        raise EstimationError(f"cannot read records file {path}: {exc}") from exc
    lines = (carry + chunk).split(b"\n")
    carry = lines.pop()
    text = [_decode(line, path).rstrip("\r") for line in lines]
    return [line for line in text if line], offset, carry


def _follow_polls(
    poll_interval: float,
    max_idle_polls: int | None,
    sleep: Callable[[float], None] | None,
) -> Callable[[], None]:
    """Validate follow-mode knobs; return the sleeper (injectable)."""
    if poll_interval < 0:
        raise EstimationError(
            f"poll_interval must be non-negative, got {poll_interval!r}"
        )
    if max_idle_polls is not None and max_idle_polls < 1:
        raise EstimationError(
            f"max_idle_polls must be at least 1, got {max_idle_polls!r}"
        )
    sleeper = time.sleep if sleep is None else sleep
    return lambda: sleeper(poll_interval)


def follow_records_csv(
    path: PathLike,
    *,
    poll_interval: float = 1.0,
    max_idle_polls: int | None = None,
    sleep: Callable[[float], None] | None = None,
) -> Iterator[TrialRecords]:
    """Tail a growing records CSV, yielding each batch of appended rows.

    The streaming twin of :func:`load_records_csv` for live monitoring:
    each poll picks up newly appended *complete* rows (a half-written
    final line waits for the next poll), validates them with the same
    strict row parser, and yields the fresh records as one
    :class:`TrialRecords` batch.  A file that does not exist yet counts
    as an empty poll — the trial may simply not have started writing.

    Args:
        path: The records CSV being appended to.
        poll_interval: Seconds slept after a poll that found nothing.
        max_idle_polls: Stop after this many *consecutive* empty polls
            (``None``: follow until the consumer stops iterating).
        sleep: Sleep function, injectable for tests.

    Yields:
        Non-empty :class:`TrialRecords` batches, in file order.

    Raises:
        EstimationError: on a wrong header or a malformed or undecodable
            *complete* row — that is corruption, not an unfinished append.
    """
    wait = _follow_polls(poll_interval, max_idle_polls, sleep)
    offset, carry = 0, b""
    header_checked = False
    row_number = 1
    idle = 0
    while True:
        lines, offset, carry = _drain_complete_lines(path, offset, carry)
        if lines and not header_checked:
            header = next(csv.reader([lines[0]]))
            if tuple(header) != CSV_COLUMNS:
                raise EstimationError(
                    f"{path}: unexpected header {header!r}; "
                    f"expected {list(CSV_COLUMNS)}"
                )
            header_checked = True
            lines = lines[1:]
        batch = TrialRecords()
        for row in csv.reader(lines):
            row_number += 1
            batch.append(_parse_row(row, row_number))
        if len(batch):
            idle = 0
            yield batch
            continue
        idle += 1
        if max_idle_polls is not None and idle >= max_idle_polls:
            return
        wait()


def follow_journal_records(
    path: PathLike,
    *,
    poll_interval: float = 1.0,
    max_idle_polls: int | None = None,
    sleep: Callable[[float], None] | None = None,
) -> Iterator[TrialRecords]:
    """Tail a JSONL record journal, yielding batches of appended records.

    Same polling contract as :func:`follow_records_csv`, but each
    complete line is a :func:`record_to_entry` JSON object.  Because
    only newline-terminated lines are parsed, the truncated final line
    a mid-write kill leaves behind is simply not consumed yet; a
    *complete* line that fails to parse is corruption and raises.

    Raises:
        EstimationError: on a complete line that is not UTF-8, not valid
            JSON or not a valid record entry.
    """
    wait = _follow_polls(poll_interval, max_idle_polls, sleep)
    offset, carry = 0, b""
    line_number = 0
    idle = 0
    while True:
        lines, offset, carry = _drain_complete_lines(path, offset, carry)
        batch = TrialRecords()
        for line in lines:
            line_number += 1
            try:
                entry = json.loads(line)
            except ValueError:
                raise EstimationError(
                    f"{path}: malformed journal line {line_number}: {line[:80]!r}"
                ) from None
            try:
                batch.append(record_from_entry(entry))
            except EstimationError as exc:
                raise EstimationError(
                    f"{path}: journal line {line_number}: {exc}"
                ) from None
        if len(batch):
            idle = 0
            yield batch
            continue
        idle += 1
        if max_idle_polls is not None and idle >= max_idle_polls:
            return
        wait()
