"""A resumed sweep trusts nothing in its journal that the plan contradicts.

Every single-bit flip and every truncation of a small journal must
either resume to exactly the uninterrupted run — counts, evaluations and
the shard states' streaming summary — or raise a typed error: each shard
line carries a CRC-32 over its index, cell range and rows, so no flip
goes through silently.  The edits below recompute that CRC, to show that
the plan and row checks catch them on their own.
"""

import json
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import EstimationError, SimulationError
from repro.screening import SingleClassClassifier, SubtletyClassifier
from repro.sweep import ScenarioGrid, resume_sweep, run_sweep
from repro.trial import CaseRecord, TrialRecords, dump_records_csv
from repro.trial.storage import (
    follow_journal_records,
    follow_records_csv,
    load_journal_entries,
    load_records_csv,
)

GRID = ScenarioGrid(
    name="fuzz",
    num_cases=40,
    systems=("unaided", "assisted"),
    biases=("none", "strong"),
    operating_points=(0.0,),
)
SEED = 23
COMMON = dict(seed=SEED, classifier=SubtletyClassifier(), shard_size=2)
FLIPS = 320
CLASSES = len(SubtletyClassifier().classes)


def view(result):
    """What a resumed run must reproduce: counts, evaluations, summary."""
    return (
        result.counts.tolist(),
        result.completed_shards,
        dict(result.evaluations()),
        result.streaming_summary(),
    )


@pytest.fixture(scope="module")
def journal_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "sweep.jsonl"
    run_sweep(GRID, journal=path, **COMMON)
    return path.read_bytes()


@pytest.fixture(scope="module")
def uninterrupted():
    return view(run_sweep(GRID, **COMMON))


def resume_outcome(tmp_path, data):
    """``"typed error"``, or the resumed result's :func:`view`."""
    path = tmp_path / "resume.jsonl"
    path.write_bytes(data)
    try:
        result = resume_sweep(GRID, journal=path, **COMMON)
    except (SimulationError, EstimationError):
        return "typed error"
    return view(result)


def shard_crc(entry):
    """The documented checksum: CRC-32 of ``[shard, cells, rows]`` as compact JSON."""
    payload = [entry["shard"], entry["cells"], entry["rows"]]
    return zlib.crc32(json.dumps(payload, separators=(",", ":")).encode())


def edited(journal_bytes, edit, line=1):
    """The journal with one line edited by ``edit`` and its CRC recomputed."""
    lines = journal_bytes.decode().splitlines()
    entry = json.loads(lines[line])
    edit(entry)
    entry["crc"] = shard_crc(entry)
    lines[line] = json.dumps(entry, sort_keys=True)
    return lines


def write(tmp_path, lines):
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def set_cell(row, column, value):
    row[column] = value


def add_failures(row, extra):
    row[0] += extra
    row[4] += extra


class TestCorruptedJournals:
    def test_single_bit_flips(self, tmp_path, journal_bytes, uninterrupted):
        rng = np.random.default_rng(20261018)
        positions = rng.integers(0, len(journal_bytes), FLIPS)
        bits = rng.integers(0, 8, FLIPS)
        silent = errors = 0
        for position, bit in zip(positions.tolist(), bits.tolist()):
            data = bytearray(journal_bytes)
            data[position] ^= 1 << bit
            outcome = resume_outcome(tmp_path, bytes(data))
            if outcome == "typed error":
                errors += 1
            elif outcome != uninterrupted:
                silent += 1
        assert errors > FLIPS // 2
        assert silent == 0

    def test_every_truncation(self, tmp_path, journal_bytes, uninterrupted):
        for offset in range(len(journal_bytes)):
            outcome = resume_outcome(tmp_path, journal_bytes[:offset])
            if outcome != "typed error":
                assert outcome == uninterrupted, offset

    def test_journal_has_one_checksummed_line_per_shard(self, journal_bytes):
        header, *shards = [json.loads(line) for line in journal_bytes.decode().splitlines()]
        assert (header["kind"], header["schema"]) == ("header", 2)
        assert [entry["shard"] for entry in shards] == [0, 1]
        assert [entry["cells"] for entry in shards] == [[0, 2], [2, 4]]
        for entry in shards:
            assert entry["kind"] == "shard"
            assert entry["crc"] == shard_crc(entry)
            assert [len(row) for row in entry["rows"]] == [4 + 2 * CLASSES] * 2

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda entry: entry.update(shard=1), id="index-of-another-shard"),
            pytest.param(lambda entry: entry.update(shard=7), id="shard-not-in-plan"),
            pytest.param(lambda entry: entry.update(shard=True), id="shard-not-an-int"),
            pytest.param(lambda entry: entry.update(cells=[1, 3]), id="cells-range"),
            pytest.param(lambda entry: entry.update(kind="cell"), id="kind"),
        ],
    )
    def test_cell_identity_checked_against_plan(self, tmp_path, journal_bytes, edit):
        # A shard line names its cells by shard index and index range.
        lines = edited(journal_bytes, edit)
        with pytest.raises(SimulationError, match="line 2"):
            resume_sweep(GRID, journal=write(tmp_path, lines), **COMMON)

    @pytest.mark.parametrize(
        "edit",
        [
            # trials no longer cover the workload's cases
            lambda rows: set_cell(rows[0], 3, rows[0][3] + 1),
            # per-class trials no longer sum to the cancer trials
            lambda rows: set_cell(rows[0], 4 + CLASSES, rows[0][4 + CLASSES] + 1),
            # per-class failures no longer sum to the cancer failures
            lambda rows: set_cell(rows[0], 4, rows[0][4] + 1),
            # a column more than the classifier's classes make
            lambda rows: rows[0].append(0),
            # more false positives than healthy trials
            lambda rows: set_cell(rows[0], 2, rows[0][3] + 1),
            # more false negatives than cancer trials, class sum kept
            lambda rows: add_failures(rows[0], rows[0][1] + 1 - rows[0][0]),
            # a negative count
            lambda rows: set_cell(rows[0], 2, -1),
            # a count that is not an integer
            lambda rows: set_cell(rows[0], 2, float(rows[0][2])),
            # a count beyond int64
            lambda rows: set_cell(rows[0], 2, 2**70),
            # a row short
            lambda rows: rows.pop(),
        ],
    )
    def test_cell_counts_checked(self, tmp_path, journal_bytes, edit):
        lines = edited(journal_bytes, lambda entry: edit(entry["rows"]))
        with pytest.raises(SimulationError, match="shard 0"):
            resume_sweep(GRID, journal=write(tmp_path, lines), **COMMON)

    def test_duplicate_shard_lines(self, tmp_path, journal_bytes, uninterrupted):
        lines = journal_bytes.decode().splitlines()
        same = write(tmp_path, lines + [lines[1]])
        assert view(resume_sweep(GRID, journal=same, **COMMON)) == uninterrupted
        swapped = edited(journal_bytes, lambda entry: entry["rows"].reverse())
        assert swapped[1] != lines[1]
        conflicting = write(tmp_path, lines + [swapped[1]])
        with pytest.raises(SimulationError, match="shard 0 is journaled twice"):
            resume_sweep(GRID, journal=conflicting, **COMMON)

    def test_schema_1_journal_refused(self, tmp_path, journal_bytes):
        lines = journal_bytes.decode().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 1
        with pytest.raises(SimulationError, match="schema 1"):
            resume_sweep(GRID, journal=write(tmp_path, [json.dumps(header)]), **COMMON)

    def test_journal_from_another_classifier_refused(self, tmp_path, journal_bytes):
        path = write(tmp_path, journal_bytes.decode().splitlines())
        with pytest.raises(SimulationError, match="classes"):
            resume_sweep(
                GRID, journal=path, **{**COMMON, "classifier": SingleClassClassifier()}
            )


TORN_GRID = ScenarioGrid(
    name="torn",
    num_cases=40,
    systems=("unaided", "assisted"),
    biases=("none", "mild", "strong"),
    operating_points=(0.0,),
    replicates=3,
)


def journaled_cells(path):
    return sum(len(e["rows"]) for e in load_journal_entries(path) if e["kind"] == "shard")


class TestTornTails:
    """Every append starts on a fresh line, whatever the last run left."""

    def test_resume_twice_after_a_torn_final_shard_line(self, tmp_path):
        common = dict(seed=SEED, shard_size=3)
        uninterrupted = view(run_sweep(TORN_GRID, **common))
        path = tmp_path / "sweep.jsonl"
        run_sweep(TORN_GRID, journal=path, max_shards=2, **common)
        data = path.read_bytes()
        last_line = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line, len(data)):
            path.write_bytes(data[:cut])
            first = resume_sweep(TORN_GRID, journal=path, max_shards=1, **common)
            assert journaled_cells(path) == first.skipped + first.executed, cut
            result = resume_sweep(TORN_GRID, journal=path, **common)
            assert view(result) == uninterrupted, cut
            assert result.skipped == first.skipped + first.executed, cut

    def test_resume_of_an_empty_or_torn_header_journal(self, tmp_path, journal_bytes,
                                                       uninterrupted):
        path = tmp_path / "sweep.jsonl"
        for cut in range(journal_bytes.index(b"\n")):
            path.write_bytes(journal_bytes[:cut])
            first = resume_sweep(GRID, journal=path, max_shards=1, **COMMON)
            result = resume_sweep(GRID, journal=path, **COMMON)
            assert view(result) == uninterrupted, cut
            assert result.skipped == len(first.results), cut


def _records():
    from repro.core import CaseClass

    records = TrialRecords()
    for i in range(20):
        records.append(CaseRecord(i, "r", CaseClass("x"), True, True, False, 0, True))
    return records


class TestUndecodableBytes:
    def test_journal_byte_is_a_typed_error(self, tmp_path, journal_bytes):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(journal_bytes[:40] + b"\xff" + journal_bytes[41:])
        with pytest.raises(EstimationError, match="not UTF-8"):
            resume_sweep(GRID, journal=path, **COMMON)

    def test_records_csv_byte_is_a_typed_error(self, tmp_path):
        path = tmp_path / "records.csv"
        dump_records_csv(path, _records())
        data = path.read_bytes()
        path.write_bytes(data[:-5] + b"\xfe" + data[-4:])
        with pytest.raises(EstimationError, match="not UTF-8"):
            load_records_csv(path)
        with pytest.raises(EstimationError, match="not UTF-8"):
            list(follow_records_csv(path, max_idle_polls=1, poll_interval=0))

    def test_record_journal_follower_byte_is_a_typed_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"case_id": 1\xff}\n')
        with pytest.raises(EstimationError, match="not UTF-8"):
            list(follow_journal_records(path, max_idle_polls=1, poll_interval=0))

    def test_follower_waits_for_a_split_character(self, tmp_path):
        from repro.core import CaseClass

        records = TrialRecords()
        records.append(CaseRecord(1, "lé", CaseClass("x"), True, True, False, 0, True))
        path = tmp_path / "records.csv"
        dump_records_csv(path, records)
        data = path.read_bytes()
        cut = data.index("é".encode()) + 1  # inside the two-byte character
        path.write_bytes(data[:cut])
        follower = follow_records_csv(
            path, max_idle_polls=2, sleep=lambda _: path.write_bytes(data)
        )
        batches = list(follower)
        assert [record.reader_name for batch in batches for record in batch] == ["lé"]


class TestCliReportsBadBytes:
    def test_sweep_resume_with_bad_journal_byte(self, capsys, tmp_path, journal_bytes):
        grid = tmp_path / "grid.json"
        GRID.to_file(grid)
        path = tmp_path / "sweep.jsonl"
        path.write_bytes(journal_bytes[:40] + b"\xff" + journal_bytes[41:])
        code = main([
            "sweep", "--grid", str(grid), "--seed", str(SEED),
            "--journal", str(path), "--shard-size", "2", "--resume",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "not UTF-8" in err

    def test_monitor_with_bad_records_byte(self, capsys, tmp_path):
        from repro.core import ClassParameters, DemandProfile, ModelParameters, dump_model

        model = tmp_path / "model.json"
        dump_model(model, ModelParameters({"x": ClassParameters(0.2, 0.6, 0.1)}),
                   {"field": DemandProfile({"x": 1.0})})
        path = tmp_path / "records.csv"
        dump_records_csv(path, _records())
        data = path.read_bytes()
        path.write_bytes(data[:-5] + b"\xfe" + data[-4:])
        for extra in ([], ["--follow", "--max-polls", "1", "--poll-interval", "0"]):
            code = main(["monitor", str(path), str(model), *extra])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:") and "not UTF-8" in err
