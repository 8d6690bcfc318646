"""Property tests for the temporal reader state algebra.

Hypothesis-driven invariants for :class:`AdaptiveTrust` and
:class:`FatigueModel`, checked against *both* implementations: the
scalar per-case state machines and the array-backed path kernels in
:mod:`repro.reader.dynamics`.  The kernels are required to agree with
the scalar recurrences to the last bit — that is what makes the
vectorized stream path a pure performance substrate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError, SimulationError
from repro.reader import (
    STATE_FIELDS,
    AdaptiveTrust,
    FatigueModel,
    ReaderStateVector,
    fatigue_decrement_path,
    trust_growth_path,
)

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
penalties = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
max_trusts = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
max_decrements = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
step_counts = st.integers(min_value=0, max_value=300)


class TestReaderStateVector:
    def test_fresh_defaults(self):
        state = ReaderStateVector.fresh()
        assert len(state) == 1
        assert state.trust[0] == 1.0
        assert state.decrement[0] == 0.0
        assert state.cases_this_session[0] == 0

    def test_columns_are_contiguous_and_typed(self):
        state = ReaderStateVector.fresh(3)
        for name in STATE_FIELDS:
            column = getattr(state, name)
            assert column.flags["C_CONTIGUOUS"]
            assert len(column) == 3

    def test_replace_returns_new_value(self):
        state = ReaderStateVector.fresh()
        bumped = state.replace(trust=np.array([1.5]))
        assert state.trust[0] == 1.0
        assert bumped.trust[0] == 1.5
        assert bumped.decrement is state.decrement

    def test_replace_rejects_unknown_column(self):
        with pytest.raises(SimulationError):
            ReaderStateVector.fresh().replace(bogus=np.array([1.0]))

    def test_clone_is_independent(self):
        state = ReaderStateVector.fresh()
        copy = state.clone()
        copy.trust[0] = 9.0
        assert state.trust[0] == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            ReaderStateVector(
                trust=np.ones(2),
                observed_successes=np.zeros(1, dtype=np.int64),
                caught_failures=np.zeros(2, dtype=np.int64),
                decrement=np.zeros(2),
                cases_this_session=np.zeros(2, dtype=np.int64),
            )

    def test_zero_readers_rejected(self):
        with pytest.raises(ParameterError):
            ReaderStateVector.fresh(0)


class TestTrustProperties:
    @given(growth=rates, penalty=penalties, max_trust=max_trusts, n=step_counts)
    @settings(max_examples=60, deadline=None)
    def test_trust_stays_in_bounds(self, growth, penalty, max_trust, n):
        """Trust never escapes [0, max_trust] under any event sequence."""
        trust = AdaptiveTrust(
            initial_trust=min(1.0, max_trust),
            growth_rate=growth,
            failure_penalty=penalty,
            max_trust=max_trust,
        )
        rng = np.random.default_rng(n)
        for _ in range(n):
            if rng.random() < 0.2:
                trust.observe_caught_failure()
            else:
                trust.observe_success()
            assert 0.0 <= trust.trust <= max_trust

    @given(growth=rates, max_trust=max_trusts, n=step_counts)
    @settings(max_examples=60, deadline=None)
    def test_growth_path_matches_scalar_bitwise(self, growth, max_trust, n):
        """The vectorized success path is the scalar recurrence, bit for bit."""
        initial = min(1.0, max_trust)
        trust = AdaptiveTrust(
            initial_trust=initial, growth_rate=growth, max_trust=max_trust
        )
        path = trust_growth_path(initial, growth, max_trust, n)
        assert path[0] == initial
        for i in range(n):
            assert path[i] == trust.trust  # pre-update value, exact
            trust.observe_success()
        assert path[n] == trust.trust

    @given(growth=st.floats(min_value=1e-6, max_value=1.0), n=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_success_growth_is_monotone(self, growth, n):
        """The paper's asymmetry, growth side: successes only raise trust."""
        path = trust_growth_path(0.5, growth, 2.0, n)
        assert np.all(np.diff(path) >= 0)
        assert np.all(path <= 2.0)

    @given(penalty=st.floats(min_value=0.0, max_value=1.0), t=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_caught_failure_penalty_order_independent(self, penalty, t):
        """Two catches in a row commute bit-exactly (float multiplication
        is commutative), so within-case bookkeeping order cannot matter."""
        first = AdaptiveTrust(
            initial_trust=t, failure_penalty=penalty, max_trust=2.0
        )
        first.observe_caught_failure()
        first.observe_caught_failure()
        direct = (t * penalty) * penalty
        swapped = (t * penalty) * penalty  # same product either way round
        assert first.trust == direct == swapped

    @given(growth=st.floats(1e-4, 0.5), penalty=st.floats(0.0, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_asymmetry_one_catch_undoes_many_successes(self, growth, penalty):
        trust = AdaptiveTrust(
            growth_rate=growth, failure_penalty=penalty, max_trust=2.0
        )
        for _ in range(50):
            trust.observe_success()
        grown = trust.trust
        trust.observe_caught_failure()
        assert trust.trust == grown * penalty
        assert trust.trust <= grown

    def test_restore_round_trips(self):
        trust = AdaptiveTrust(growth_rate=0.05)
        for _ in range(7):
            trust.observe_success()
        trust.observe_caught_failure()
        twin = AdaptiveTrust(growth_rate=0.05)
        twin._restore(trust.trust, trust.observed_successes, trust.caught_failures)
        assert twin.trust == trust.trust
        assert twin.observed_successes == 7
        assert twin.caught_failures == 1


class TestFatigueProperties:
    @given(rate=rates, max_decrement=max_decrements, n=step_counts)
    @settings(max_examples=60, deadline=None)
    def test_decrement_saturates_at_max(self, rate, max_decrement, n):
        fatigue = FatigueModel(rate=rate, max_decrement=max_decrement)
        for _ in range(n):
            fatigue.advance()
            assert 0.0 <= fatigue.decrement <= max_decrement

    @given(rate=rates, max_decrement=max_decrements, n=step_counts)
    @settings(max_examples=60, deadline=None)
    def test_break_resets_to_zero(self, rate, max_decrement, n):
        fatigue = FatigueModel(rate=rate, max_decrement=max_decrement)
        for _ in range(n):
            fatigue.advance()
        fatigue.rest()
        assert fatigue.decrement == 0.0
        assert fatigue.cases_this_session == 0

    @given(
        rate=rates,
        max_decrement=max_decrements,
        n=step_counts,
        session=st.one_of(st.none(), st.integers(1, 50)),
    )
    @settings(max_examples=80, deadline=None)
    def test_decrement_path_matches_scalar_bitwise(
        self, rate, max_decrement, n, session
    ):
        """The vectorized decrement path replicates advance() — including
        automatic session breaks — bit for bit."""
        fatigue = FatigueModel(
            rate=rate, max_decrement=max_decrement, cases_per_session=session
        )
        path, final_decrement, final_count = fatigue_decrement_path(
            0.0, 0, rate, max_decrement, session, n
        )
        for i in range(n):
            assert path[i] == fatigue.decrement  # pre-advance value, exact
            fatigue.advance()
        assert final_decrement == fatigue.decrement
        assert final_count == fatigue.cases_this_session

    @given(rate=rates, max_decrement=max_decrements, session=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_session_count_never_reaches_limit(self, rate, max_decrement, session):
        fatigue = FatigueModel(
            rate=rate, max_decrement=max_decrement, cases_per_session=session
        )
        for _ in range(3 * session + 1):
            fatigue.advance()
            assert fatigue.cases_this_session < session

    def test_restore_round_trips(self):
        fatigue = FatigueModel(rate=0.1)
        for _ in range(9):
            fatigue.advance()
        twin = FatigueModel(rate=0.1)
        twin._restore(fatigue.decrement, fatigue.cases_this_session)
        assert twin.decrement == fatigue.decrement
        assert twin.cases_this_session == 9

    def test_cases_per_session_validation(self):
        with pytest.raises(ParameterError):
            FatigueModel(cases_per_session=0)
        with pytest.raises(ParameterError):
            FatigueModel(cases_per_session=2.5)


def _per_case_decrement_reference(
    decrement, cases_this_session, rate, max_decrement, cases_per_session, num_cases
):
    """The per-case loop the fixed-point-stopping decrement path replaced."""
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


def _fixed_point(rate, max_decrement):
    d = 0.0
    while d + rate * (max_decrement - d) != d:
        d = d + rate * (max_decrement - d)
    return d


class TestDecrementPathMatchesPerCaseLoop:
    """Long paths cross the recurrence's fixed point (3,233 cases at rate
    0.01), which the hypothesis tests above never reach; the path must
    still equal the per-case loop byte for byte."""

    @pytest.mark.parametrize(
        "decrement, count, rate, max_decrement, session",
        [
            (0.0, 0, 0.01, 0.8, None),
            (0.0, 0, 0.01, 0.8, 1),
            (0.0, 0, 0.01, 0.8, 7),
            (0.0, 0, 0.01, 0.8, 5000),
            (0.0, 4000, 0.01, 0.8, 5000),
            (_fixed_point(0.01, 0.8), 0, 0.01, 0.8, None),
            (_fixed_point(0.01, 0.8), 2, 0.01, 0.8, 5000),
            (0.3, 7, 0.01, 0.8, 7),
            (0.3, 12, 0.01, 0.8, 7),
            (0.3, 5000, 0.01, 0.8, 5000),
            (-0.0, 0, 0.01, 0.8, None),
            (-0.0, 0, 0.01, 0.8, 7),
            (-0.0, 0, 0.0, 0.8, None),
            (-0.0, 0, 0.25, 0.0, 5000),
            (0.0, 0, 1.0, 0.8, None),
        ],
    )
    def test_fifty_thousand_cases(self, decrement, count, rate, max_decrement, session):
        args = (decrement, count, rate, max_decrement, session, 50_000)
        path, final_decrement, final_count = fatigue_decrement_path(*args)
        ref_path, ref_decrement, ref_count = _per_case_decrement_reference(*args)
        assert path.tobytes() == ref_path.tobytes()
        assert np.float64(final_decrement).tobytes() == np.float64(ref_decrement).tobytes()
        assert final_count == ref_count


class TestPathValidation:
    def test_negative_lengths_rejected(self):
        with pytest.raises(SimulationError):
            trust_growth_path(1.0, 0.01, 2.0, -1)
        with pytest.raises(SimulationError):
            fatigue_decrement_path(0.0, 0, 0.01, 0.8, None, -1)

    def test_zero_length_paths(self):
        path = trust_growth_path(1.25, 0.01, 2.0, 0)
        assert path.shape == (1,) and path[0] == 1.25
        d_path, d, count = fatigue_decrement_path(0.5, 3, 0.01, 0.8, None, 0)
        assert d_path.shape == (0,) and d == 0.5 and count == 3
