"""The ``/v1/ingest`` decode and the monitor's columnar fold, against the
per-record paths they replace.

1. *Decode*: :func:`records_from_entries` accepts exactly the entry lists
   whose every entry :func:`record_from_entry` accepts, gives the same
   records, and on a bad list raises the same first ``records[i]: ...``
   message (as does :func:`parse_ingest_request`, as a ``ProtocolError``).
2. *Fold*: :meth:`StreamMonitor.ingest` over a stream cut into batches
   ends on exactly the state the per-record loop it replaced reaches:
   estimator state, checkpoints, the whole snapshot (false-prompt moments
   and alarm states included), the report, and the published metrics.
"""

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import StreamingEstimator, StreamMonitor
from repro.core import PAPER_FIELD_PROFILE, CaseClass, paper_example_parameters
from repro.exceptions import EstimationError
from repro.obs import Instrumentation
from repro.service.protocol import ProtocolError, parse_ingest_request
from repro.trial import (
    CaseRecord,
    RecordBatch,
    record_from_entry,
    record_to_entry,
    records_from_entries,
)

CLASS_NAMES = ("easy", "difficult", "novel")  # "novel" is not in the paper's model


class IntSubclass(int):
    """An ``int`` that is not exactly ``int``: valid, but off the screen."""


# -- decode --------------------------------------------------------------


@st.composite
def valid_entries(draw):
    aided = draw(st.booleans())
    return {
        "case_id": draw(st.integers(-(10**20), 10**20)),
        "reader_name": draw(st.sampled_from(["r1", "r2", ""])),
        "case_class": draw(st.sampled_from(CLASS_NAMES)),
        "has_cancer": draw(st.booleans()),
        "aided": aided,
        "machine_failed": draw(st.booleans()) if aided else None,
        "machine_false_prompts": draw(st.none() | st.integers(0, 2**53)),
        "recalled": draw(st.booleans()),
    }


def _replace(key, value):
    return lambda entry: {**entry, key: value}


def _drop(key):
    return lambda entry: {k: v for k, v in entry.items() if k != key}


#: Ways to change one entry; the strict decoder decides which are bad.
MUTATIONS = {
    "bool for int": _replace("case_id", True),
    "bool for nullable int": _replace("machine_false_prompts", False),
    "int for bool": _replace("has_cancer", 1),
    "int for nullable bool": _replace("machine_failed", 0),
    "float": _replace("machine_false_prompts", 1.0),
    "float id": _replace("case_id", 2.5),
    "null reader": _replace("reader_name", None),
    "null class": _replace("case_class", None),
    "null bool": _replace("recalled", None),
    "int reader": _replace("reader_name", 7),
    "empty class": _replace("case_class", ""),
    "unknown key": _replace("reviewer", "r9"),
    "missing key": _drop("recalled"),
    "missing id": _drop("case_id"),
    "missing nullable": _drop("machine_false_prompts"),
    "renamed key": lambda entry: {
        ("reviewer" if key == "reader_name" else key): value for key, value in entry.items()
    },
    "missing machine_failed": _drop("machine_failed"),
    "not a dict": lambda entry: list(entry.items()),
    "null entry": lambda entry: None,
    "string entry": lambda entry: "record",
    "negative prompts": _replace("machine_false_prompts", -1),
    "prompts at 2**53": _replace("machine_false_prompts", 2**53),
    "prompts past 2**53": _replace("machine_false_prompts", 2**53 + 1),
    "prompts past the float range": _replace("machine_false_prompts", 10**400),
    "aided without machine_failed": _replace("machine_failed", None),
    "aided, failed unknown": lambda entry: {**entry, "aided": True, "machine_failed": None},
    "unaided with machine_failed": lambda entry: {
        **entry, "aided": False, "machine_failed": True
    },
    "int subclass": lambda entry: {**entry, "case_id": IntSubclass(entry["case_id"])},
    "read-only mapping": MappingProxyType,
}


def strict_decode(entries):
    """``record_from_entry`` over each entry: the records, or the first
    error as ``records[i]: ...``."""
    classes = {}
    records = []
    for index, entry in enumerate(entries):
        try:
            records.append(record_from_entry(entry, classes))
        except EstimationError as exc:
            return f"records[{index}]: {exc}"
    return records


@st.composite
def entry_lists(draw):
    entries = draw(st.lists(valid_entries(), min_size=1, max_size=12))
    changes = draw(st.dictionaries(
        st.integers(0, len(entries) - 1), st.sampled_from(sorted(MUTATIONS)), max_size=3
    ))
    for index, name in changes.items():
        entries[index] = MUTATIONS[name](entries[index])
    return entries


class TestDecode:
    @settings(max_examples=400, deadline=None)
    @given(entries=entry_lists())
    def test_batch_decoder_matches_the_strict_decoder(self, entries):
        expected = strict_decode(entries)
        if isinstance(expected, str):
            with pytest.raises(EstimationError) as excinfo:
                records_from_entries(entries)
            assert str(excinfo.value) == expected
            with pytest.raises(ProtocolError) as excinfo:
                parse_ingest_request({"records": entries})
            assert str(excinfo.value) == expected
            return
        batch = records_from_entries(entries)
        assert type(batch) is RecordBatch
        assert len(batch) == len(entries)
        assert batch == RecordBatch.from_records(expected)
        assert parse_ingest_request({"records": entries}).records == batch

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_mutation_alone(self, name):
        entries = [
            record_to_entry(record(case_id, name="easy", aided=case_id != 1))
            for case_id in range(3)
        ]
        entries[1] = MUTATIONS[name](entries[1])
        expected = strict_decode(entries)
        if isinstance(expected, str):
            assert expected.startswith("records[1]: ")
            with pytest.raises(EstimationError, match=r"^records\[1\]: ") as excinfo:
                records_from_entries(entries)
            assert str(excinfo.value) == expected
        else:
            assert records_from_entries(entries) == RecordBatch.from_records(expected)

    def test_tuple_of_entries(self):
        entries = tuple(record_to_entry(record(case_id)) for case_id in range(4))
        assert records_from_entries(entries) == RecordBatch.from_records(strict_decode(entries))


# -- fold ----------------------------------------------------------------


def record(case_id=0, name="easy", cancer=True, aided=True, machine_failed=False,
           prompts=0, recalled=True):
    return CaseRecord(
        case_id, "field", CaseClass(name), cancer, aided,
        machine_failed if aided else None, prompts, recalled,
    )


def reference_ingest(monitor, records):
    """The per-record loop ``StreamMonitor.ingest`` ran before the
    columnar fold: moments and estimator record by record, a checkpoint
    as soon as a used record fills the window."""
    estimator = monitor.estimator
    used = 0
    for item in records:
        if item.aided and item.machine_false_prompts is not None:
            monitor._false_prompts.add(item.machine_false_prompts)
        if estimator.ingest(item):
            used += 1
            if estimator.records_used - monitor._last_checkpoint_used >= monitor.check_every:
                monitor._checkpoint()
    monitor._publish_volume()
    return used


def report_or_error(monitor):
    try:
        report = monitor.report()
    except EstimationError as exc:
        return str(exc)
    return [(t.name, t.statistic, t.p_value, t.observed, t.reference, t.sample_size)
            for t in report.tests]


def metrics(obs):
    snapshot = obs.metrics.snapshot()
    return snapshot["counters"], snapshot["gauges"]


def assert_same_plane(folded, reference):
    assert folded.estimator.state() == reference.estimator.state()
    assert folded.checkpoints == reference.checkpoints
    assert folded.snapshot() == reference.snapshot()
    assert report_or_error(folded) == report_or_error(reference)


#: How a batch reaches the monitor: decoded from the wire, as a batch,
#: or as the records themselves.
FEEDS = {
    "wire": lambda chunk: records_from_entries([record_to_entry(r) for r in chunk]),
    "batch": RecordBatch.from_records,
    "records": list,
}

record_fields = st.tuples(
    st.sampled_from(CLASS_NAMES),
    st.booleans(),                      # has_cancer
    st.booleans(),                      # aided
    st.booleans(),                      # machine_failed, when aided
    st.none() | st.integers(0, 4),      # machine_false_prompts
    st.booleans(),                      # recalled
)


def make_records(rows):
    return [
        record(i, name, cancer, aided, failed, prompts, recalled)
        for i, (name, cancer, aided, failed, prompts, recalled) in enumerate(rows)
    ]


def run_both(records, cuts, check_every, feed):
    """Fold ``records`` cut at ``cuts`` through one monitor and the
    reference loop through another, both with live instrumentation."""
    planes = []
    for ingest in (None, reference_ingest):
        obs = Instrumentation("fold")
        monitor = StreamMonitor(
            paper_example_parameters(), PAPER_FIELD_PROFILE,
            check_every=check_every, obs=obs,
        )
        used = []
        for start, stop in zip([0, *cuts], [*cuts, len(records)]):
            chunk = records[start:stop]
            if ingest is None:
                used.append(monitor.ingest(FEEDS[feed](chunk)))
            else:
                used.append(ingest(monitor, chunk))
        planes.append((monitor, obs, used))
    (folded, folded_obs, folded_used), (reference, reference_obs, reference_used) = planes
    assert folded_used == reference_used
    assert_same_plane(folded, reference)
    assert metrics(folded_obs) == metrics(reference_obs)
    return folded


class TestFold:
    @pytest.mark.parametrize("check_every", [1, 7, 256])
    @pytest.mark.parametrize("feed", sorted(FEEDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fold_matches_the_per_record_loop(self, check_every, feed, data):
        rows = data.draw(st.lists(record_fields, max_size=600), label="records")
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(rows)), max_size=6), label="cuts"
        ))
        run_both(make_records(rows), cuts, check_every, feed)

    @pytest.mark.parametrize("check_every", [1, 7, 256])
    def test_long_seeded_stream(self, check_every):
        rng = np.random.default_rng(check_every)
        n = 5000
        names = rng.choice(["easy", "difficult"], size=n, p=[0.85, 0.15])
        rows = [
            (str(name), bool(cancer), bool(aided), bool(failed), prompts, bool(recalled))
            for name, cancer, aided, failed, prompts, recalled in zip(
                names,
                rng.random(n) < 0.9,
                rng.random(n) < 0.95,
                rng.random(n) < np.where(names == "easy", 0.07, 0.41),
                [None if p < 0 else int(p) for p in rng.integers(-1, 3, size=n)],
                rng.random(n) < 0.8,
            )
        ]
        cuts = sorted(rng.integers(0, n, size=20).tolist())
        monitor = run_both(make_records(rows), cuts, check_every, "wire")
        assert monitor.checkpoints >= monitor.estimator.records_used // check_every

    def test_empty_batch_changes_nothing(self):
        monitor = StreamMonitor(paper_example_parameters(), PAPER_FIELD_PROFILE)
        before = monitor.snapshot()
        assert monitor.ingest(RecordBatch.from_records([])) == 0
        assert monitor.ingest([]) == 0
        assert monitor.snapshot() == before

    def test_counts_beyond_the_records_seen_are_refused(self):
        estimator = StreamingEstimator()
        with pytest.raises(EstimationError, match="3 records counted among 2 seen"):
            estimator.ingest_counts(2, {("easy", True, False): 2, ("easy", False, True): 1})
        assert estimator.state() == StreamingEstimator().state()

    def test_non_records_are_refused_before_any_count(self):
        monitor = StreamMonitor(paper_example_parameters(), PAPER_FIELD_PROFILE)
        with pytest.raises(EstimationError, match="expected CaseRecord, got str"):
            monitor.ingest([record(), "not a record"])
        assert monitor.snapshot()["records"] == {"seen": 0, "used": 0}
