"""Tests for repro.trial.storage (CSV and JSON-entry round-trips)."""

import json
import types

import pytest

from repro.core import CaseClass
from repro.exceptions import EstimationError
from repro.trial import (
    CaseRecord,
    TrialRecords,
    dump_records_csv,
    estimate_model,
    follow_journal_records,
    follow_records_csv,
    load_records_csv,
    record_from_entry,
    record_to_entry,
)


@pytest.fixture
def sample_records():
    return TrialRecords(
        [
            CaseRecord(1, "alice", CaseClass("easy"), True, True, False, 0, True),
            CaseRecord(2, "alice", CaseClass("difficult"), True, True, True, 2, False),
            CaseRecord(3, "bob", CaseClass("easy"), False, True, True, 1, True),
            CaseRecord(4, "bob", CaseClass("easy"), True, False, None, None, False),
        ]
    )


class TestRoundTrip:
    def test_fields_preserved(self, tmp_path, sample_records):
        path = tmp_path / "records.csv"
        dump_records_csv(path, sample_records)
        restored = load_records_csv(path)
        assert len(restored) == len(sample_records)
        for original, loaded in zip(sample_records, restored):
            assert loaded == original

    def test_estimates_survive_round_trip(self, tmp_path, population, classifier, cadt, reader, rng):
        from repro.screening import trial_workload
        from repro.trial import run_reading_session

        workload = trial_workload(population, 200, cancer_fraction=1.0)
        records = run_reading_session(workload, reader, classifier, cadt, rng)
        path = tmp_path / "trial.csv"
        dump_records_csv(path, records)
        restored = load_records_csv(path)
        original_estimate = estimate_model(records, on_empty_cell="pool")
        restored_estimate = estimate_model(restored, on_empty_cell="pool")
        assert original_estimate.to_model_parameters() == (
            restored_estimate.to_model_parameters()
        )

    def test_file_is_plain_csv(self, tmp_path, sample_records):
        path = tmp_path / "records.csv"
        dump_records_csv(path, sample_records)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("case_id,reader_name,case_class")
        assert len(lines) == 5
        # Unaided row has empty machine cells.
        assert ",,," in lines[4] or ",," in lines[4]


class TestRecordEntryCodec:
    def test_round_trip_through_json(self, sample_records):
        for record in sample_records:
            entry = json.loads(json.dumps(record_to_entry(record)))
            assert record_from_entry(entry) == record

    def test_entry_keys_match_csv_columns(self, sample_records):
        from repro.trial import CSV_COLUMNS

        entry = record_to_entry(next(iter(sample_records)))
        assert set(entry) == set(CSV_COLUMNS)

    def test_rejects_non_object(self):
        with pytest.raises(EstimationError, match="JSON object"):
            record_from_entry(["not", "an", "object"])

    def test_rejects_unknown_field(self, sample_records):
        entry = record_to_entry(next(iter(sample_records)))
        entry["surprise"] = 1
        with pytest.raises(EstimationError, match="surprise"):
            record_from_entry(entry)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("case_id", "seven"),
            ("case_id", True),
            ("reader_name", 3),
            ("case_class", ""),
            ("has_cancer", 1),
            ("aided", "yes"),
            ("machine_failed", 0),
            ("machine_false_prompts", 1.5),
            ("machine_false_prompts", True),
            ("recalled", None),
        ],
    )
    def test_rejects_mistyped_fields(self, sample_records, field, bad):
        entry = record_to_entry(next(iter(sample_records)))
        entry[field] = bad
        with pytest.raises(EstimationError, match=field):
            record_from_entry(entry)

    def test_other_mappings_and_subclasses_take_the_isinstance_path(self, sample_records):
        class Name(str):
            pass

        class Count(int):
            pass

        record = next(iter(sample_records))
        entry = record_to_entry(record)
        entry.update(case_id=Count(entry["case_id"]), reader_name=Name(entry["reader_name"]))
        assert record_from_entry(types.MappingProxyType(entry)) == record
        with pytest.raises(EstimationError, match="JSON object"):
            record_from_entry([("case_id", 1)])

    def test_one_class_object_per_name_within_a_batch(self, sample_records):
        classes = {}
        decoded = [record_from_entry(record_to_entry(r), classes) for r in sample_records]
        assert decoded == list(sample_records)
        assert sorted(classes) == ["difficult", "easy"]
        for record in decoded:
            assert record.case_class is classes[record.case_class.name]

    def test_inconsistent_record_rejected(self):
        entry = {
            "case_id": 1,
            "reader_name": "r",
            "case_class": "easy",
            "has_cancer": True,
            "aided": True,
            "machine_failed": None,
            "machine_false_prompts": None,
            "recalled": True,
        }
        # Aided without machine_failed: CaseRecord's own invariant fires.
        with pytest.raises(EstimationError, match="machine_failed"):
            record_from_entry(entry)


CSV_HEADER = (
    "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
    "machine_false_prompts,recalled"
)


def csv_row(case_id):
    return f"{case_id},alice,easy,1,1,0,0,1"


def expected_record(case_id):
    return CaseRecord(case_id, "alice", CaseClass("easy"), True, True, False, 0, True)


class TestFollowRecordsCsv:
    def test_yields_appended_batches(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text(f"{CSV_HEADER}\n{csv_row(1)}\n{csv_row(2)}\n")

        def append_more(_interval):
            if not append_more.done:
                append_more.done = True
                with open(path, "a") as handle:
                    handle.write(f"{csv_row(3)}\n{csv_row(4)}\n")

        append_more.done = False
        batches = list(
            follow_records_csv(
                path, poll_interval=0.0, max_idle_polls=2, sleep=append_more
            )
        )
        assert [len(batch) for batch in batches] == [2, 2]
        flattened = [record for batch in batches for record in batch]
        assert flattened == [expected_record(i) for i in (1, 2, 3, 4)]

    def test_partial_final_line_deferred(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text(f"{CSV_HEADER}\n{csv_row(1)}\n2,alice,ea")  # mid-write
        batches = list(
            follow_records_csv(path, poll_interval=0.0, max_idle_polls=1)
        )
        assert [len(batch) for batch in batches] == [1]
        assert next(iter(batches[0])) == expected_record(1)

    def test_missing_file_counts_as_idle(self, tmp_path):
        batches = list(
            follow_records_csv(
                tmp_path / "absent.csv", poll_interval=0.0, max_idle_polls=2
            )
        )
        assert batches == []

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(EstimationError, match="unexpected header"):
            list(follow_records_csv(path, poll_interval=0.0, max_idle_polls=1))

    def test_malformed_complete_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\nxyz,alice,easy,1,1,0,0,1\n")
        with pytest.raises(EstimationError, match="case_id"):
            list(follow_records_csv(path, poll_interval=0.0, max_idle_polls=1))

    def test_invalid_knobs_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        with pytest.raises(EstimationError, match="poll_interval"):
            next(follow_records_csv(path, poll_interval=-1.0))
        with pytest.raises(EstimationError, match="max_idle_polls"):
            next(follow_records_csv(path, max_idle_polls=0))


class TestFollowJournalRecords:
    def test_yields_appended_batches(self, tmp_path, sample_records):
        path = tmp_path / "records.jsonl"
        records = list(sample_records)
        lines = [json.dumps(record_to_entry(r)) for r in records]
        path.write_text("\n".join(lines[:2]) + "\n")

        def append_more(_interval):
            if not append_more.done:
                append_more.done = True
                with open(path, "a") as handle:
                    handle.write("\n".join(lines[2:]) + "\n")

        append_more.done = False
        batches = list(
            follow_journal_records(
                path, poll_interval=0.0, max_idle_polls=2, sleep=append_more
            )
        )
        assert [len(batch) for batch in batches] == [2, 2]
        assert [r for batch in batches for r in batch] == records

    def test_truncated_final_line_deferred(self, tmp_path, sample_records):
        path = tmp_path / "records.jsonl"
        first = json.dumps(record_to_entry(next(iter(sample_records))))
        path.write_text(first + "\n" + first[: len(first) // 2])
        batches = list(
            follow_journal_records(path, poll_interval=0.0, max_idle_polls=1)
        )
        assert [len(batch) for batch in batches] == [1]

    def test_complete_garbage_line_raises(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(EstimationError, match="malformed journal line 1"):
            list(follow_journal_records(path, poll_interval=0.0, max_idle_polls=1))

    def test_invalid_entry_raises_with_line_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"case_id": 1}\n')
        with pytest.raises(EstimationError, match="journal line 1"):
            list(follow_journal_records(path, poll_interval=0.0, max_idle_polls=1))


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(EstimationError):
            load_records_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EstimationError):
            load_records_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(EstimationError):
            load_records_csv(path)

    def test_malformed_boolean(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
            "machine_false_prompts,recalled\n"
            "1,r,easy,yes,1,0,0,1\n"
        )
        with pytest.raises(EstimationError):
            load_records_csv(path)

    def test_malformed_case_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
            "machine_false_prompts,recalled\n"
            "xyz,r,easy,1,1,0,0,1\n"
        )
        with pytest.raises(EstimationError):
            load_records_csv(path)

    @pytest.mark.parametrize("count", ["-1", str(2**53 + 1), "1" + "0" * 400])
    def test_false_prompt_count_out_of_range(self, tmp_path, count):
        path = tmp_path / "bad.csv"
        path.write_text(
            "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
            "machine_false_prompts,recalled\n"
            "1,r,easy,1,1,0,0,1\n"
            f"2,r,easy,1,1,0,{count},1\n"
        )
        with pytest.raises(EstimationError, match="row 3: machine_false_prompts"):
            load_records_csv(path)

    def test_false_prompt_count_at_2_53_loads(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(
            "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
            "machine_false_prompts,recalled\n"
            f"1,r,easy,1,1,0,{2**53},1\n"
        )
        (record,) = load_records_csv(path)
        assert record.machine_false_prompts == 2**53

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "case_id,reader_name,case_class,has_cancer,aided,machine_failed,"
            "machine_false_prompts,recalled\n"
            "1,r,easy\n"
        )
        with pytest.raises(EstimationError):
            load_records_csv(path)
