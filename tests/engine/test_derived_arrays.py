"""Invariants of the per-chunk derived arrays and the decrement-path memo.

Every decide kernel reads the randomness layout, the cancer/healthy
index sets and the difficulty logits from
:class:`~repro.engine.arrays.CaseArrays` instead of deriving them
itself.  The references below are the expressions the kernels used
before, copied verbatim: each derived array must equal its reference
byte for byte, on whole batches and on chunks with unaligned starts and
odd tails, so no seeded result can move.  The derived state must also
be read-only, memoised per object, and invisible to pickling.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._numeric import logit as _logit
from repro.engine.arrays import ARRAY_FIELDS, CaseArrays
from repro.exceptions import SimulationError
from repro.reader.dynamics import chunk_decrement_path


def reference_reader_layout(arrays):
    """The layout derivation each reader kernel made for itself."""
    counts = np.where(arrays.has_cancer, 4, 1)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    return offsets, int(counts.sum())


def reference_split_shared_uniforms(arrays, rng, readers=1, cadt=True):
    """The shared-draw splitter as it was before it read a memoised layout."""
    head = 2 if cadt else 0
    counts = np.where(arrays.has_cancer, head + 4 * readers, head + readers)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    flat = rng.random(int(counts.sum()))
    cadt_u = None
    if cadt:
        cadt_u = np.stack((flat[offsets], flat[offsets + 1]), axis=1)
        reader_mask = np.ones(flat.shape[0], dtype=bool)
        reader_mask[offsets] = False
        reader_mask[offsets + 1] = False
        flat = flat[reader_mask]
    if readers == 1:
        return cadt_u, [flat]
    per_reader = np.where(arrays.has_cancer, 4, 1)
    starts = np.cumsum(per_reader) - per_reader
    first = np.arange(flat.shape[0] // readers) + np.repeat((readers - 1) * starts, per_reader)
    step = np.repeat(per_reader, per_reader)
    return cadt_u, [flat[first + k * step] for k in range(readers)]


def reference_decrement_path(
    decrement, cases_this_session, rate, max_decrement, cases_per_session, num_cases
):
    """The per-case decrement loop the fixed-point-stopping path replaced."""
    path = np.empty(num_cases)
    d = float(decrement)
    count = int(cases_this_session)
    for i in range(num_cases):
        path[i] = d
        d = d + rate * (max_decrement - d)
        count += 1
        if cases_per_session is not None and count >= cases_per_session:
            d = 0.0
            count = 0
    return path, d, count


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def make_arrays(mode, n, seed):
    """A batch whose truth pattern is all-cancer, all-healthy or mixed."""
    rng = np.random.default_rng(seed)
    if mode == "cancer":
        has_cancer = np.ones(n, dtype=bool)
    elif mode == "healthy":
        has_cancer = np.zeros(n, dtype=bool)
    else:
        has_cancer = rng.random(n) < 0.4
    probabilities = rng.random((6, n))
    probabilities[:, :2] = (0.0, 1.0)[: min(n, 2)]  # the logit clamps these
    return CaseArrays(
        case_id=np.arange(n, dtype=np.int64),
        has_cancer=has_cancer,
        lesion_code=np.where(has_cancer, 0, -1).astype(np.int8),
        breast_density=probabilities[0],
        subtlety=probabilities[1],
        machine_difficulty=probabilities[2],
        human_detection_difficulty=probabilities[3],
        human_classification_difficulty=probabilities[4],
        distractor_level=probabilities[5],
    )


@st.composite
def chunks(draw):
    """A drawn batch and a chunk of it (unaligned start, odd tail)."""
    mode = draw(st.sampled_from(("cancer", "healthy", "mixed")))
    n = draw(st.integers(1, 97))
    arrays = make_arrays(mode, n, draw(st.integers(0, 2**32 - 1)))
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    return arrays, arrays.chunk(start, stop)


DERIVED = (
    "cancer_index",
    "healthy_index",
    "reader_offsets",
    "machine_difficulty_logit",
    "human_detection_difficulty_logit",
    "human_classification_difficulty_logit",
)


def populate(arrays):
    """Compute every derived value of ``arrays`` (and of one chunk)."""
    for name in DERIVED:
        getattr(arrays, name)
    arrays.reader_total
    for readers in (1, 2, 3):
        for cadt in (False, True):
            arrays.shared_layout(readers, cadt)
    chunk_decrement_path(arrays, 0.0, 0, 0.01, 0.8, None)
    arrays.chunk(0, len(arrays) // 2).cancer_index


class TestDerivedArraysMatchKernelExpressions:
    @given(chunks())
    @settings(max_examples=150, deadline=None)
    def test_index_sets_and_reader_layout(self, drawn):
        for arrays in drawn:
            assert same_bytes(arrays.cancer_index, np.flatnonzero(arrays.has_cancer))
            assert same_bytes(arrays.healthy_index, np.flatnonzero(~arrays.has_cancer))
            offsets, total = reference_reader_layout(arrays)
            assert same_bytes(arrays.reader_offsets, offsets)
            assert arrays.reader_total == total and type(arrays.reader_total) is int

    @given(chunks())
    @settings(max_examples=150, deadline=None)
    def test_logits_equal_each_kernels_own_expression(self, drawn):
        for arrays in drawn:
            cancers = np.flatnonzero(arrays.has_cancer)
            healthy = np.flatnonzero(~arrays.has_cancer)
            hcd = arrays.human_classification_difficulty
            hdd = arrays.human_detection_difficulty
            # The CADT kernel took the logit of the whole column ...
            assert same_bytes(arrays.machine_difficulty_logit, _logit(arrays.machine_difficulty))
            assert same_bytes(arrays.human_classification_difficulty_logit, _logit(hcd))
            # ... the reader kernels the logit of each gathered subset.
            assert same_bytes(
                arrays.human_classification_difficulty_logit[healthy], _logit(hcd[healthy])
            )
            assert same_bytes(
                arrays.human_classification_difficulty_logit[cancers], _logit(hcd[cancers])
            )
            assert same_bytes(
                arrays.human_detection_difficulty_logit[cancers], _logit(hdd[cancers])
            )

    @given(
        chunks(),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_shared_split_equals_reference(self, drawn, readers, cadt, seed):
        # Each component gathers its uniforms from the one shared draw
        # through the layout: the tool's pairs, and every reader's roles
        # at its own-draw positions of the reference split.
        for arrays in drawn:
            layout = arrays.shared_layout(readers, cadt)
            flat = np.random.default_rng(seed).random(layout.total)
            want_cadt, want_readers = reference_split_shared_uniforms(
                arrays, np.random.default_rng(seed), readers=readers, cadt=cadt
            )
            assert (layout.cadt_index is None) == (want_cadt is None)
            if cadt:
                assert same_bytes(flat[layout.cadt_index], want_cadt)
            assert len(layout.reader_roles) == len(want_readers) == readers
            for roles, want in zip(layout.reader_roles, want_readers):
                for role, own in zip(roles, arrays.reader_roles, strict=True):
                    assert same_bytes(flat[role], want[own])
            assert layout.total == reference_reader_layout(arrays)[1] * readers + (
                2 * len(arrays) if cadt else 0
            )

    @given(chunks())
    @settings(max_examples=60, deadline=None)
    def test_derived_arrays_are_read_only(self, drawn):
        for arrays in drawn:
            populate(arrays)
            derived = [getattr(arrays, name) for name in DERIVED]
            for readers in (1, 2, 3):
                for cadt in (False, True):
                    layout = arrays.shared_layout(readers, cadt)
                    derived.extend(index for roles in layout.reader_roles for index in roles)
                    if layout.cadt_index is not None:
                        derived.append(layout.cadt_index)
            derived.append(chunk_decrement_path(arrays, 0.0, 0, 0.01, 0.8, None)[0])
            for array in derived:
                assert not array.flags.writeable
                if array.size:
                    with pytest.raises(ValueError):
                        array.flat[0] = 0


class TestMemoisation:
    @given(chunks())
    @settings(max_examples=60, deadline=None)
    def test_pickle_carries_the_columns_only(self, drawn):
        arrays, _ = drawn
        fresh = pickle.dumps(arrays)
        twin = CaseArrays(**{name: getattr(arrays, name).copy() for name in ARRAY_FIELDS})
        populate(arrays)
        assert pickle.dumps(arrays) == fresh == pickle.dumps(twin)
        restored = pickle.loads(fresh)
        assert all(
            same_bytes(getattr(restored, name), getattr(arrays, name)) for name in ARRAY_FIELDS
        )
        assert not set(vars(restored)) - set(ARRAY_FIELDS)

    @given(chunks())
    @settings(max_examples=60, deadline=None)
    def test_repeat_chunks_are_one_object(self, drawn):
        arrays, chunk = drawn
        n = len(arrays)
        assert arrays.chunk(0, n) is arrays
        start, stop = n // 3, max(n // 3, n - 1)
        first = arrays.chunk(start, stop)
        assert arrays.chunk(start, stop) is first
        assert chunk.chunk(0, len(chunk)) is chunk
        assert first.cancer_index is first.cancer_index
        assert arrays.shared_layout(2, True) is arrays.shared_layout(2, True)

    def test_chunk_bounds_still_checked(self):
        arrays = make_arrays("mixed", 10, 1)
        with pytest.raises(SimulationError):
            arrays.chunk(3, 11)
        with pytest.raises(SimulationError):
            arrays.chunk(4, 3)

    def test_shared_layout_needs_a_reader(self):
        with pytest.raises(SimulationError):
            make_arrays("mixed", 10, 1).shared_layout(0, True)


class TestMemoisedDecrementPath:
    @pytest.mark.parametrize(
        "decrement, count, rate, max_decrement, session",
        [
            (0.0, 0, 0.01, 0.8, None),
            (0.0, 0, 0.01, 0.8, 7),
            (0.3, 12, 0.01, 0.8, 7),
            (0.0, 0, 0.0, 0.8, None),
            (0.0, 0, 1.0, 0.8, None),
            (-0.0, 0, 1.0, 0.8, 7),
            (-0.0, 0, 0.25, 0.0, None),
        ],
    )
    def test_first_call_and_hit_equal_per_case_loop(
        self, decrement, count, rate, max_decrement, session
    ):
        arrays = make_arrays("mixed", 5003, 2).chunk(1, 5002)
        want_path, want_d, want_count = reference_decrement_path(
            decrement, count, rate, max_decrement, session, len(arrays)
        )
        first = chunk_decrement_path(arrays, decrement, count, rate, max_decrement, session)
        hit = chunk_decrement_path(arrays, decrement, count, rate, max_decrement, session)
        assert hit[0] is first[0]
        for path, final_decrement, final_count in (first, hit):
            assert same_bytes(path, want_path)
            assert same_bytes(np.float64(final_decrement), np.float64(want_d))
            assert final_count == want_count

    def test_signed_zero_starts_get_separate_entries(self):
        # max_decrement 0 keeps a -0.0 start's zero signs along the path;
        # a memo keyed on float equality would hand one start the other's.
        arrays = make_arrays("mixed", 301, 3)
        for first_start in (-0.0, 0.0):
            arrays = arrays.chunk(1, len(arrays))
            for start in (first_start, -first_start, first_start):
                path, final_decrement, _ = chunk_decrement_path(arrays, start, 0, 0.25, 0.0, None)
                want_path, want_d, _ = reference_decrement_path(
                    start, 0, 0.25, 0.0, None, len(arrays)
                )
                assert same_bytes(path, want_path)
                assert same_bytes(np.float64(final_decrement), np.float64(want_d))

    def test_memo_is_bounded(self):
        arrays = make_arrays("mixed", 50, 4)
        paths = [
            chunk_decrement_path(arrays, 0.0, count, 0.01, 0.8, 100)[0] for count in range(20)
        ]
        assert chunk_decrement_path(arrays, 0.0, 19, 0.01, 0.8, 100)[0] is paths[-1]
        assert chunk_decrement_path(arrays, 0.0, 0, 0.01, 0.8, 100)[0] is not paths[0]
