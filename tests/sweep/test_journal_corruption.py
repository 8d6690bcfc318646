"""A resumed sweep trusts nothing in its journal that the plan contradicts.

Every single-bit flip and every truncation of a small journal must
either resume to exactly the uninterrupted run — cells, evaluations and
the shard states' streaming summary — or raise a typed error.  The one
exception is a flip inside a ``healthy_failures`` value that keeps it
within the cell's healthy trials: nothing else in the line repeats it,
so only a per-line checksum (a journal format change) could catch it.
The fuzz test counts those flips.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import EstimationError, SimulationError
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, resume_sweep, run_sweep
from repro.trial import CaseRecord, TrialRecords, dump_records_csv
from repro.trial.storage import follow_journal_records, follow_records_csv, load_records_csv

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


@pytest.fixture(scope="module")
def journal_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "sweep.jsonl"
    run_sweep(GRID, journal=path, **COMMON)
    return path.read_bytes()


@pytest.fixture(scope="module")
def uninterrupted():
    result = run_sweep(GRID, **COMMON)
    return result.results, result.streaming_summary()


def resume_outcome(tmp_path, data):
    """``"same"``, ``"typed error"``, or the differing resumed result."""
    path = tmp_path / "resume.jsonl"
    path.write_bytes(data)
    try:
        result = resume_sweep(GRID, journal=path, **COMMON)
    except (SimulationError, EstimationError):
        return "typed error"
    return result


def healthy_failures_spans(data):
    """Byte ranges of every ``healthy_failures`` value in the journal."""
    key = b'"healthy_failures": '
    spans, start = [], data.find(key)
    while start >= 0:
        value = start + len(key)
        end = value
        while data[end : end + 1].isdigit():
            end += 1
        spans.append(range(value, end))
        start = data.find(key, end)
    return spans


class TestCorruptedJournals:
    def test_single_bit_flips(self, tmp_path, journal_bytes, uninterrupted):
        rng = np.random.default_rng(20261018)
        positions = rng.integers(0, len(journal_bytes), FLIPS)
        bits = rng.integers(0, 8, FLIPS)
        unguarded = healthy_failures_spans(journal_bytes)
        silent = errors = 0
        for position, bit in zip(positions.tolist(), bits.tolist()):
            data = bytearray(journal_bytes)
            data[position] ^= 1 << bit
            outcome = resume_outcome(tmp_path, bytes(data))
            if outcome == "typed error":
                errors += 1
            elif (outcome.results, outcome.streaming_summary()) != uninterrupted:
                assert any(position in span for span in unguarded), (position, bit)
                silent += 1
        # Most flips are caught; the few accepted all sit in the
        # healthy_failures digits asserted above.
        assert errors > FLIPS // 2
        assert silent < FLIPS // 20

    def test_every_truncation(self, tmp_path, journal_bytes, uninterrupted):
        for offset in range(len(journal_bytes)):
            outcome = resume_outcome(tmp_path, journal_bytes[:offset])
            if outcome != "typed error":
                assert (outcome.results, outcome.streaming_summary()) == uninterrupted, offset

    def test_shard_state_line_is_rebuilt_not_read(self, tmp_path, journal_bytes, uninterrupted):
        lines = journal_bytes.decode().splitlines()
        states = [i for i, line in enumerate(lines) if '"kind": "shard_state"' in line]
        entry = json.loads(lines[states[0]])
        entry["fn_failures"] += 1
        lines[states[0]] = json.dumps(entry, sort_keys=True)
        outcome = resume_outcome(tmp_path, ("\n".join(lines) + "\n").encode())
        assert (outcome.results, outcome.streaming_summary()) == uninterrupted

    @pytest.mark.parametrize(
        "field, change",
        [
            ("seed", lambda entry: entry["seed"] + 1),
            ("index", lambda entry: entry["index"] + 1),
            ("system", lambda entry: entry["system"] + "x"),
            ("cell_id", lambda entry: entry["cell_id"] + "x"),
        ],
    )
    def test_cell_identity_checked_against_plan(self, tmp_path, journal_bytes, field, change):
        lines = journal_bytes.decode().splitlines()
        first_cell = next(i for i, line in enumerate(lines) if '"kind": "cell"' in line)
        entry = json.loads(lines[first_cell])
        entry[field] = change(entry)
        lines[first_cell] = json.dumps(entry, sort_keys=True)
        with pytest.raises(SimulationError, match="cell"):
            resume_sweep(GRID, journal=self.write(tmp_path, lines), **COMMON)

    @pytest.mark.parametrize(
        "edit",
        [
            # trials no longer cover the workload's cases
            lambda counts: counts.update(cancer_trials=counts["cancer_trials"] + 1),
            # per-class trials no longer sum to the cancer trials
            lambda counts: counts["class_trials"].__setitem__(0, counts["class_trials"][0] + 1),
            # per-class failures no longer sum to the cancer failures
            lambda counts: counts["class_failures"].__setitem__(0, counts["class_failures"][0] + 1),
            # a class the classifier does not have
            lambda counts: counts["class_names"].__setitem__(0, "nonexistent"),
            # more false positives than healthy trials
            lambda counts: counts.update(healthy_failures=counts["healthy_trials"] + 1),
        ],
    )
    def test_cell_counts_checked(self, tmp_path, journal_bytes, edit):
        lines = journal_bytes.decode().splitlines()
        first_cell = next(i for i, line in enumerate(lines) if '"kind": "cell"' in line)
        entry = json.loads(lines[first_cell])
        edit(entry["counts"])
        lines[first_cell] = json.dumps(entry, sort_keys=True)
        with pytest.raises(SimulationError, match="cell"):
            resume_sweep(GRID, journal=self.write(tmp_path, lines), **COMMON)

    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path


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
