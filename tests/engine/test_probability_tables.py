"""Invariants of the per-chunk probability tables.

The CADT and the reader kernels read each component's seed-independent
per-case probabilities from a table memoised on the chunk
(:meth:`DetectionAlgorithm.probability_table`,
:meth:`ReaderModel.probability_table`).  The references below are the
kernels as they were before, copied verbatim: each table must equal its
reference expression byte for byte, and each kernel its reference
kernel, on whole batches and on chunks with unaligned starts, for
rested and fatigued readers, aided and unaided.  The tables must also
be read-only, bounded per chunk, keyed by exact float bits, and
invisible to pickling.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._numeric import MAX_POISSON_RATE, poisson_from_uniform
from repro._numeric import exp as _exp
from repro._numeric import sigmoid as _sigmoid
from repro.cadt.algorithm import PROMPT_CDF_ROWS, DetectionAlgorithm
from repro.engine.arrays import ENTRIES_PER_KIND
from repro.reader import MILD_BIAS, NO_BIAS, STRONG_BIAS, ReaderModel, ReaderSkill
from repro.reader.bias import AutomationBiasProfile
from repro.reader.dynamics import _decrement_path, advance_fatigued_chunk, chunk_decrement_path
from repro.reader.fatigue import FatigueModel
from repro.reader.reader import ReadingProcedure
from repro.reader.state import ReaderStateVector

from .test_derived_arrays import chunks, make_arrays, same_bytes


# -- the kernels before the tables, copied as references ---------------------------


def reference_miss_probability_batch(algorithm, arrays):
    missed = _sigmoid(arrays.machine_difficulty_logit + algorithm.threshold_shift)
    return np.where(arrays.has_cancer, missed, 0.0)


def reference_false_prompt_rate_batch(algorithm, arrays):
    rate = algorithm.base_false_prompt_rate * (
        1.0 + algorithm.distractor_gain * arrays.distractor_level
    )
    return rate * _exp(-algorithm.threshold_shift)


def reference_process_batch(algorithm, arrays, u):
    prompted = arrays.has_cancer & (u[:, 0] >= reference_miss_probability_batch(algorithm, arrays))
    num_false = poisson_from_uniform(u[:, 1], reference_false_prompt_rate_batch(algorithm, arrays))
    return prompted, num_false


def reference_decide(reader, arrays, cadt_output, u, d_path=None):
    """The rested kernel (``d_path=None``) and the fatigued kernel, as they were."""
    offsets = arrays.reader_offsets
    aided = cadt_output is not None
    skill = reader.skill
    bias = reader._active_bias(aided)
    recall = np.zeros(len(arrays), dtype=bool)

    healthy = arrays.healthy_index
    if healthy.size:
        if d_path is None:
            recall_logit = (
                arrays.human_classification_difficulty_logit[healthy] - skill.specificity
            )
        else:
            specificity = skill.specificity - d_path[healthy]
            recall_logit = arrays.human_classification_difficulty_logit[healthy] - specificity
        if aided:
            recall_logit = recall_logit + (
                bias.false_prompt_persuasion * cadt_output.num_false_prompts[healthy]
            )
        recall[healthy] = u[offsets[healthy]] < _sigmoid(recall_logit)

    cancers = arrays.cancer_index
    if cancers.size:
        start = offsets[cancers]
        u_lapse, u_prompt, u_detect, u_classify = (u[start + k] for k in range(4))
        if aided:
            prompted = cadt_output.prompted_relevant[cancers]
            detection_shift = np.where(prompted, 0.0, bias.complacency_shift)
        else:
            prompted = np.zeros(cancers.size, dtype=bool)
            detection_shift = 0.0
        detection = skill.detection if d_path is None else skill.detection - d_path[cancers]
        attentive_miss = _sigmoid(
            arrays.human_detection_difficulty_logit[cancers] - detection + detection_shift
        )
        lapsed = u_lapse < skill.lapse_rate
        registered = prompted & (u_prompt < reader.prompt_effectiveness)
        noticed = registered | (~lapsed & (u_detect >= attentive_miss))
        p_misclass = _sigmoid(
            arrays.human_classification_difficulty_logit[cancers]
            - skill.classification
            - np.where(prompted, bias.prompt_persuasion, 0.0)
        )
        recall[cancers] = noticed & (u_classify >= p_misclass)
    return recall


def reference_reader_index(arrays, readers, cadt):
    """Each reader's gather index into a shared draw, as the layout built it
    before it kept role indices (listed in the reader layout)."""
    head = 2 if cadt else 0
    per_reader = np.where(arrays.has_cancer, 4, 1)
    counts = head + readers * per_reader
    offsets = np.cumsum(counts) - counts
    reader_offsets = np.cumsum(per_reader) - per_reader
    within = np.arange(int(per_reader.sum())) - np.repeat(reader_offsets, per_reader)
    first = np.repeat(offsets + head, per_reader) + within
    step = np.repeat(per_reader, per_reader)
    return [first + k * step for k in range(readers)]


def reference_roles(arrays):
    """Where each role's uniform sits in a reader's own draw, as the
    kernels computed it per call (``offsets[...] + k``)."""
    offsets = arrays.reader_offsets
    start = offsets[arrays.cancer_index]
    return (offsets[arrays.healthy_index], start, start + 1, start + 2, start + 3)


def reference_tables(reader, arrays, d_path=None):
    """Each table array as the kernels computed it, in one branch."""
    skill, bias = reader.skill, reader._active_bias(aided=True)
    cancers, healthy = arrays.cancer_index, arrays.healthy_index
    detection = skill.detection if d_path is None else skill.detection - d_path[cancers]
    specificity = skill.specificity if d_path is None else skill.specificity - d_path[healthy]
    logit_hdd = arrays.human_detection_difficulty_logit[cancers]
    logit_hcd = arrays.human_classification_difficulty_logit
    return {
        "attentive_miss": _sigmoid(logit_hdd - detection + 0.0),
        "complacent_miss": _sigmoid(
            logit_hdd - detection + np.full(cancers.size, bias.complacency_shift)
        ),
        "misclassify": _sigmoid(
            logit_hcd[cancers] - skill.classification - np.full(cancers.size, 0.0)
        ),
        "persuaded_misclassify": _sigmoid(
            logit_hcd[cancers]
            - skill.classification
            - np.full(cancers.size, bias.prompt_persuasion)
        ),
        "unaided_recall": _sigmoid(logit_hcd[healthy] - specificity),
    }


# -- strategies ----------------------------------------------------------------------


finite = st.floats(-3.0, 3.0, allow_nan=False)
strength = st.floats(0.0, 3.0, allow_nan=False)


@st.composite
def readers(draw):
    skill = ReaderSkill(
        detection=draw(finite),
        classification=draw(finite),
        specificity=draw(finite),
        lapse_rate=draw(st.floats(0.0, 0.2)),
    )
    bias = draw(
        st.one_of(
            st.sampled_from((NO_BIAS, MILD_BIAS, STRONG_BIAS)),
            st.builds(AutomationBiasProfile, strength, strength, strength),
        )
    )
    procedure = draw(st.sampled_from(tuple(ReadingProcedure)))
    return ReaderModel(skill=skill, bias=bias, procedure=procedure, seed=0)


algorithms = st.builds(
    DetectionAlgorithm,
    threshold_shift=st.floats(-2.0, 3.0, allow_nan=False),
    base_false_prompt_rate=st.floats(0.0, 3.0),
    distractor_gain=st.floats(0.0, 4.0),
)


def cadt_outputs(algorithm, arrays, seed):
    u = np.random.default_rng(seed).random((len(arrays), 2))
    return algorithm.process_batch(arrays, u)


TABLE_FIELDS = (
    "attentive_miss",
    "complacent_miss",
    "misclassify",
    "persuaded_misclassify",
    "unaided_recall",
)


class TestCadtTable:
    @given(chunks(), algorithms)
    @settings(max_examples=120, deadline=None)
    def test_table_equals_the_kernel_expressions(self, drawn, algorithm):
        for arrays in drawn:
            table = algorithm.probability_table(arrays)
            rate = reference_false_prompt_rate_batch(algorithm, arrays)
            assert same_bytes(table.miss, reference_miss_probability_batch(algorithm, arrays))
            assert same_bytes(table.prompts.rate, rate)
            assert same_bytes(table.prompts.p_zero, np.exp(-rate))
            for array in (table.miss, table.prompts.rate, table.prompts.p_zero):
                assert not array.flags.writeable
            assert algorithm.probability_table(arrays) is table

    @given(chunks(), algorithms, st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_process_batch_equals_reference_kernel(self, drawn, algorithm, seed):
        for arrays in drawn:
            u = np.random.default_rng(seed).random((len(arrays), 2))
            u[: len(arrays) // 3, 1] = np.nextafter(1.0, 0.0)  # the iteration cap
            u[len(arrays) // 3 : len(arrays) // 2, 1] = 0.0
            output = algorithm.process_batch(arrays, u)
            prompted, num_false = reference_process_batch(algorithm, arrays, u)
            assert same_bytes(output.prompted_relevant, prompted)
            assert same_bytes(output.num_false_prompts, num_false)

    @pytest.mark.parametrize("rate", [0.0, MAX_POISSON_RATE / 3.0])
    def test_extreme_rates_match_poisson_from_uniform(self, rate):
        # distractor 1 at gain 2 triples the base rate: MAX_POISSON_RATE.
        arrays = make_arrays("mixed", 64, 5)
        algorithm = DetectionAlgorithm(base_false_prompt_rate=rate, distractor_gain=2.0)
        u = np.random.default_rng(6).random((64, 2))
        u[::4, 1] = np.nextafter(1.0, 0.0)
        output = algorithm.process_batch(arrays, u)
        want = poisson_from_uniform(u[:, 1], reference_false_prompt_rate_batch(algorithm, arrays))
        assert same_bytes(output.num_false_prompts, want)

    def test_rate_validation_runs_per_table(self):
        arrays = make_arrays("mixed", 20, 7)
        too_high = DetectionAlgorithm(base_false_prompt_rate=MAX_POISSON_RATE, distractor_gain=1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds the supported maximum"):
                too_high.probability_table(arrays)

    def test_nine_operating_points_leave_eight_entries(self):
        arrays = make_arrays("mixed", 40, 8)
        tools = [DetectionAlgorithm(threshold_shift=0.1 * k) for k in range(9)]
        tables = [tool.probability_table(arrays) for tool in tools]
        assert len(arrays.derived("cadt_table", dict)) == ENTRIES_PER_KIND == 8
        assert tools[-1].probability_table(arrays) is tables[-1]
        assert tools[1].probability_table(arrays) is tables[1]
        assert tools[0].probability_table(arrays) is not tables[0]

    def test_signed_zeros_get_separate_entries(self):
        arrays = make_arrays("mixed", 40, 9)
        positive = DetectionAlgorithm(threshold_shift=0.0).probability_table(arrays)
        negative = DetectionAlgorithm(threshold_shift=-0.0).probability_table(arrays)
        assert positive is not negative
        for shift, table in ((0.0, positive), (-0.0, negative)):
            algorithm = DetectionAlgorithm(threshold_shift=shift)
            assert same_bytes(table.miss, reference_miss_probability_batch(algorithm, arrays))


    @given(chunks(), algorithms)
    @settings(max_examples=120, deadline=None)
    def test_cdf_rows_are_the_recurrences_steps(self, drawn, algorithm):
        for arrays in drawn:
            prompts = algorithm.probability_table(arrays).prompts
            rate = reference_false_prompt_rate_batch(algorithm, arrays)
            pmf = np.exp(-rate)
            cdf = pmf.copy()
            assert prompts.cdf.shape == (PROMPT_CDF_ROWS, len(arrays))
            for k, row in enumerate(prompts.cdf):
                if k:
                    pmf = pmf * rate / k
                    cdf = cdf + pmf
                assert same_bytes(row, cdf), k
            assert same_bytes(prompts.pmf, pmf)
            for array in (prompts.cdf, prompts.pmf):
                assert not array.flags.writeable

    @pytest.mark.parametrize(
        "field", ["threshold_shift", "base_false_prompt_rate", "distractor_gain"]
    )
    def test_every_parameter_is_in_the_key(self, field):
        arrays = make_arrays("mixed", 40, 13)
        base = DetectionAlgorithm()
        other = DetectionAlgorithm(**{field: getattr(base, field) + 0.25})
        first, second = base.probability_table(arrays), other.probability_table(arrays)
        assert first is not second
        assert same_bytes(second.prompts.rate, reference_false_prompt_rate_batch(other, arrays))
        assert same_bytes(second.miss, reference_miss_probability_batch(other, arrays))


class TestRoleIndices:
    @given(chunks())
    @settings(max_examples=150, deadline=None)
    def test_own_roles_equal_the_per_call_offsets(self, drawn):
        for arrays in drawn:
            roles = arrays.reader_roles
            assert arrays.reader_roles is roles
            for got, want in zip(roles, reference_roles(arrays), strict=True):
                assert same_bytes(got, want)
                assert not got.flags.writeable

    @given(chunks(), st.integers(1, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_shared_roles_equal_the_offsets_through_each_readers_index(
        self, drawn, readers, cadt
    ):
        for arrays in drawn:
            layout = arrays.shared_layout(readers, cadt)
            want_index = reference_reader_index(arrays, readers, cadt)
            assert len(layout.reader_roles) == readers
            for roles, want in zip(layout.reader_roles, want_index):
                for got, positions in zip(roles, reference_roles(arrays), strict=True):
                    assert same_bytes(got, want[positions])
                    assert not got.flags.writeable


class TestReaderTable:
    @given(chunks(), readers())
    @settings(max_examples=120, deadline=None)
    def test_rested_table_equals_the_kernel_expressions(self, drawn, reader):
        for arrays in drawn:
            table = reader.probability_table(arrays)
            for name, want in reference_tables(reader, arrays).items():
                got = getattr(table, name)
                assert same_bytes(got, want), name
                assert not got.flags.writeable
            assert reader.probability_table(arrays) is table

    @given(chunks(), readers(), st.floats(0.0, 1.0), st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_fatigued_table_equals_the_kernel_expressions(
        self, drawn, reader, decrement, count
    ):
        for arrays in drawn:
            key, (d_path, _, _) = _decrement_path(arrays, (decrement, count, 0.05, 0.8, 50))
            table = reader.probability_table(arrays, decrement=(key, d_path))
            for name, want in reference_tables(reader, arrays, d_path).items():
                assert same_bytes(getattr(table, name), want), name
            assert table is not reader.probability_table(arrays)

    @given(chunks(), readers(), algorithms, st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rested_kernel_equals_reference(self, drawn, reader, algorithm, seed, aided):
        for arrays in drawn:
            cadt_output = cadt_outputs(algorithm, arrays, seed) if aided else None
            u = np.random.default_rng(seed + 1).random(arrays.reader_total)
            got = reader.decide_batch(arrays, cadt_output, u=u)
            assert same_bytes(got, reference_decide(reader, arrays, cadt_output, u))

    @given(
        chunks(),
        readers(),
        algorithms,
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_fatigued_kernel_equals_reference(
        self, drawn, reader, algorithm, seed, aided, decrement, count
    ):
        fatigue = FatigueModel(rate=0.05, max_decrement=0.8, cases_per_session=50)
        state = ReaderStateVector.fresh(1).replace(
            decrement=np.array([decrement]),
            cases_this_session=np.array([count], dtype=np.int64),
        )
        for arrays in drawn:
            cadt_output = cadt_outputs(algorithm, arrays, seed) if aided else None
            u = np.random.default_rng(seed + 1).random(arrays.reader_total)
            got, _ = advance_fatigued_chunk(reader, fatigue, arrays, cadt_output, state, u)
            d_path, _, _ = chunk_decrement_path(
                arrays, decrement, count, fatigue.rate, fatigue.max_decrement, 50
            )
            want = reference_decide(reader, arrays, cadt_output, u, d_path)
            assert same_bytes(got, want)

    def test_nine_configurations_leave_eight_entries(self):
        arrays = make_arrays("mixed", 40, 10)
        models = [ReaderModel(ReaderSkill(detection=0.1 * k)) for k in range(9)]
        tables = [model.probability_table(arrays) for model in models]
        assert len(arrays.derived("reader_table", dict)) == ENTRIES_PER_KIND
        assert models[-1].probability_table(arrays) is tables[-1]
        assert models[0].probability_table(arrays) is not tables[0]

    def test_signed_zeros_get_separate_entries(self):
        arrays = make_arrays("mixed", 40, 11)
        tables = []
        for value in (0.0, -0.0):
            model = ReaderModel(ReaderSkill(detection=value, specificity=value))
            tables.append(model.probability_table(arrays))
            for name, want in reference_tables(model, arrays).items():
                assert same_bytes(getattr(tables[-1], name), want)
        assert tables[0] is not tables[1]

    @pytest.mark.parametrize(
        "skill, bias",
        [
            (ReaderSkill(detection=0.5), MILD_BIAS),
            (ReaderSkill(classification=0.5), MILD_BIAS),
            (ReaderSkill(specificity=0.5), MILD_BIAS),
            (ReaderSkill(), AutomationBiasProfile(0.9, 0.6, 0.05)),
            (ReaderSkill(), AutomationBiasProfile(0.8, 0.7, 0.05)),
        ],
    )
    def test_every_parameter_read_is_in_the_key(self, skill, bias):
        arrays = make_arrays("mixed", 40, 14)
        base = ReaderModel(ReaderSkill(), AutomationBiasProfile(0.8, 0.6, 0.05))
        other = ReaderModel(skill, bias)
        first, second = base.probability_table(arrays), other.probability_table(arrays)
        assert first is not second
        for name, want in reference_tables(other, arrays).items():
            assert same_bytes(getattr(second, name), want), name

    def test_bias_free_arrays_are_shared_across_biases(self):
        arrays = make_arrays("mixed", 40, 15)
        mild = ReaderModel(bias=MILD_BIAS).probability_table(arrays)
        strong = ReaderModel(bias=STRONG_BIAS).probability_table(arrays)
        assert mild is not strong
        for name in ("attentive_miss", "misclassify", "unaided_recall", "healthy_logit"):
            assert getattr(mild, name) is getattr(strong, name), name
        assert mild.complacent_miss is not strong.complacent_miss
        key, (path, _, _) = _decrement_path(arrays, (0.5, 0, 0.05, 0.8, None))
        tired = ReaderModel(bias=MILD_BIAS).probability_table(arrays, decrement=(key, path))
        assert tired.attentive_miss is not mild.attentive_miss

    def test_tables_are_shared_across_reader_instances(self):
        arrays = make_arrays("mixed", 40, 12)
        one = ReaderModel(bias=MILD_BIAS, seed=1).probability_table(arrays)
        assert ReaderModel(bias=MILD_BIAS, name="other", seed=2).probability_table(arrays) is one
        assert ReaderModel(bias=STRONG_BIAS).probability_table(arrays) is not one


class TestTablesStayOutOfPickles:
    @given(chunks(), readers(), algorithms)
    @settings(max_examples=40, deadline=None)
    def test_pickle_equals_a_fresh_arrays_pickle(self, drawn, reader, algorithm):
        arrays, chunk = drawn
        fresh = pickle.dumps(pickle.loads(pickle.dumps(arrays)))
        for target in (arrays, chunk):
            algorithm.probability_table(target)
            table = reader.probability_table(target)
            for name in TABLE_FIELDS:
                getattr(table, name)
        assert pickle.dumps(arrays) == fresh
