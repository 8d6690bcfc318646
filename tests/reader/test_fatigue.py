"""Tests for repro.reader.fatigue (vigilance decrement)."""

import pytest

from repro.exceptions import ParameterError
from repro.reader import FatigueModel, FatiguedReader, MILD_BIAS, ReaderModel
from repro.screening import routine_screening_population, trial_workload
from tests.cadt.test_algorithm import make_healthy_case
from tests.screening.test_case_and_population import make_cancer_case


class TestFatigueModel:
    def test_decrement_saturates(self):
        fatigue = FatigueModel(rate=0.1, max_decrement=0.8)
        for _ in range(200):
            fatigue.advance()
        assert fatigue.decrement == pytest.approx(0.8, abs=1e-6)

    def test_rest_resets(self):
        fatigue = FatigueModel(rate=0.1)
        for _ in range(10):
            fatigue.advance()
        assert fatigue.decrement > 0
        fatigue.rest()
        assert fatigue.decrement == 0.0
        assert fatigue.cases_this_session == 0

    def test_zero_rate_never_tires(self):
        fatigue = FatigueModel(rate=0.0)
        for _ in range(100):
            fatigue.advance()
        assert fatigue.decrement == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            FatigueModel(rate=1.5)
        with pytest.raises(ParameterError):
            FatigueModel(max_decrement=-1.0)
        with pytest.raises(ParameterError):
            FatigueModel(cases_per_session=0)


class TestCasesPerSession:
    """Automatic session breaks: the schedule is counted in *cases*.

    The contract (previously latent, now pinned down): the N-th case of
    a session is decided at the pre-break decrement, and the rest
    applies once ``advance()`` registers it — so after exactly
    ``cases_per_session`` cases the model is already rested, whether or
    not a chunk boundary happens to land there.
    """

    def test_auto_rest_after_session_length(self):
        fatigue = FatigueModel(rate=0.1, cases_per_session=5)
        for _ in range(4):
            fatigue.advance()
        assert fatigue.decrement > 0.0
        assert fatigue.cases_this_session == 4
        fatigue.advance()  # the 5th case triggers the break after it
        assert fatigue.decrement == 0.0
        assert fatigue.cases_this_session == 0

    def test_nth_case_is_decided_tired(self):
        """The session's last case is read at the pre-break decrement;
        only the *next* case benefits from the rest."""
        base = ReaderModel(bias=MILD_BIAS, name="r", seed=1)
        reader = FatiguedReader(
            base, FatigueModel(rate=0.2, cases_per_session=3), seed=2
        )
        reader.decide(make_healthy_case(), None)
        reader.decide(make_healthy_case(), None)
        tired = reader.current_reader()  # in force for case 3
        assert tired.skill.detection < base.skill.detection
        reader.decide(make_healthy_case(), None)  # case 3: break after it
        assert reader.current_reader() is base

    def test_schedule_resumes_identically_after_manual_break(self):
        fatigue = FatigueModel(rate=0.1, cases_per_session=10)
        for _ in range(7):
            fatigue.advance()
        fatigue.rest()  # manual break mid-session restarts the count
        for _ in range(9):
            fatigue.advance()
        assert fatigue.cases_this_session == 9  # not yet at the limit
        fatigue.advance()
        assert fatigue.cases_this_session == 0

    def test_chunk_boundary_on_break_is_invisible(self):
        """Splitting the stream exactly at a session break carries the
        already-rested state — bit-identical to an unaligned split and
        to no split at all (the satellite-4 regression)."""
        session = 25
        workload = trial_workload(
            routine_screening_population(seed=11), 100, cancer_fraction=0.3, name="w"
        )
        arrays = workload.to_arrays()

        def run(boundaries):
            reader = FatiguedReader(
                ReaderModel(bias=MILD_BIAS, name="r", seed=1),
                FatigueModel(rate=0.1, cases_per_session=session),
                seed=2,
            )
            state = reader.stream_state()
            recalls = []
            for start, stop in boundaries:
                recall, state = reader.advance_stream(
                    arrays.chunk(start, stop), None, state
                )
                recalls.extend(recall.tolist())
            reader.commit_state(state)
            return recalls, reader.fatigue.decrement, reader.fatigue.cases_this_session

        whole = run([(0, 100)])
        aligned = run([(0, 25), (25, 50), (50, 75), (75, 100)])  # on breaks
        offset = run([(0, 40), (40, 100)])  # mid-session
        assert aligned == whole
        assert offset == whole


class TestFatiguedReader:
    @pytest.fixture
    def reader(self):
        base = ReaderModel(bias=MILD_BIAS, name="tired", seed=1)
        return FatiguedReader(base, FatigueModel(rate=0.05, max_decrement=1.0), seed=2)

    def test_fresh_reader_matches_base(self, reader):
        assert reader.current_reader() is reader.base_reader

    def test_fatigue_raises_miss_probability(self, reader):
        case = make_cancer_case(human_detection_difficulty=0.3)
        fresh_miss = reader.current_reader().p_miss_unaided(case)
        for _ in range(100):
            reader.decide(make_healthy_case(), None)
        tired_miss = reader.current_reader().p_miss_unaided(case)
        assert tired_miss > fresh_miss

    def test_fatigue_raises_false_positives_too(self, reader):
        case = make_healthy_case(human_classification_difficulty=0.2)
        fresh = reader.current_reader().p_false_positive(case, None)
        for _ in range(100):
            reader.decide(make_healthy_case(), None)
        tired = reader.current_reader().p_false_positive(case, None)
        assert tired > fresh

    def test_classification_skill_untouched(self, reader):
        case = make_cancer_case(human_classification_difficulty=0.3)
        fresh = reader.current_reader().p_misclassify(case, False, aided=False)
        for _ in range(100):
            reader.decide(make_healthy_case(), None)
        tired = reader.current_reader().p_misclassify(case, False, aided=False)
        assert tired == pytest.approx(fresh)

    def test_break_restores_performance(self, reader):
        case = make_cancer_case(human_detection_difficulty=0.3)
        fresh_miss = reader.current_reader().p_miss_unaided(case)
        for _ in range(50):
            reader.decide(make_healthy_case(), None)
        reader.take_break()
        assert reader.current_reader().p_miss_unaided(case) == pytest.approx(fresh_miss)

    def test_decisions_advance_fatigue(self, reader):
        assert reader.fatigue.cases_this_session == 0
        reader.decide(make_healthy_case(), None)
        reader.decide(make_cancer_case(), None)
        assert reader.fatigue.cases_this_session == 2

    def test_repr(self, reader):
        assert "session=0" in repr(reader)

    def test_rested_readers_carry_one_shared_read_only_state(self, reader):
        state = reader.stream_state()
        other = FatiguedReader(ReaderModel(name="other"), FatigueModel(rate=0.3))
        assert other.stream_state() is state
        assert state.decrement.tolist() == [0.0] and state.cases_this_session.tolist() == [0]
        with pytest.raises(ValueError):
            state.decrement[0] = 1.0
        reader.decide(make_healthy_case(), None)
        tired = reader.stream_state()
        assert tired is not state and tired.cases_this_session.tolist() == [1]
        assert tired.decrement[0] == reader.fatigue.decrement
        reader.take_break()
        assert reader.stream_state() is state
