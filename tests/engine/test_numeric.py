"""Shared numeric primitives: the kernels both simulation paths sample with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._numeric import (
    MAX_POISSON_RATE,
    exp,
    log,
    logit,
    poisson_counts,
    poisson_from_uniform,
    poisson_rates,
    sigmoid,
    sqrt,
)


class TestTranscendentalSeam:
    """exp/log/sqrt: the REP002 seam both simulation paths share."""

    def test_scalar_input_returns_float(self):
        for fn, value in ((exp, 0.3), (log, 0.3), (sqrt, 0.3)):
            result = fn(value)
            assert isinstance(result, float)

    def test_array_input_returns_array(self):
        xs = np.linspace(0.1, 3.0, 7)
        for fn in (exp, log, sqrt):
            result = fn(xs)
            assert isinstance(result, np.ndarray)
            assert result.shape == xs.shape

    def test_scalar_and_array_paths_bit_identical(self):
        xs = np.linspace(-30.0, 30.0, 201)
        assert (exp(xs) == np.array([exp(float(x)) for x in xs])).all()
        positives = np.linspace(1e-6, 50.0, 201)
        assert (log(positives) == np.array([log(float(x)) for x in positives])).all()
        assert (
            sqrt(positives) == np.array([sqrt(float(x)) for x in positives])
        ).all()

    def test_seam_matches_numpy_bit_for_bit(self):
        # The seam is a thin wrapper: it must equal np.* exactly, so
        # batch code calling np.exp on arrays and scalar code calling
        # _numeric.exp agree by construction.
        xs = np.linspace(-10.0, 10.0, 101)
        assert (exp(xs) == np.exp(xs)).all()
        ps = np.linspace(0.01, 0.99, 101)
        assert (log(ps) == np.log(ps)).all()
        assert (sqrt(ps) == np.sqrt(ps)).all()

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_exp_agrees_with_math_to_one_ulp(self, x):
        # math.exp and np.exp may differ, but never by more than 1 ulp —
        # this documents why the seam exists (exact equality can fail)
        # while bounding how far apart the two libraries can drift.
        ours = exp(x)
        theirs = math.exp(x)
        assert ours == theirs or math.isclose(ours, theirs, rel_tol=1e-15)

    def test_log_exp_roundtrip(self):
        xs = np.linspace(-20.0, 20.0, 81)
        assert np.allclose(log(exp(xs)), xs, atol=1e-12)


class TestLogitSigmoid:
    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_roundtrip(self, p):
        assert sigmoid(logit(p)) == pytest.approx(p, rel=1e-9)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    def test_sigmoid_bounded_and_monotone_branches_agree(self, x):
        value = sigmoid(x)
        assert 0.0 <= value <= 1.0
        # The two-branch form must agree with the naive form where the
        # naive form is stable.
        if abs(x) < 30:
            assert value == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-12)

    def test_scalar_and_array_paths_bit_identical(self):
        xs = np.linspace(-40.0, 40.0, 101)
        vector = sigmoid(xs)
        scalars = np.array([sigmoid(float(x)) for x in xs])
        assert (vector == scalars).all()
        ps = np.linspace(0.001, 0.999, 101)
        assert (logit(ps) == np.array([logit(float(p)) for p in ps])).all()

    def test_logit_clips_boundaries(self):
        assert math.isfinite(logit(0.0))
        assert math.isfinite(logit(1.0))
        assert logit(0.0) < logit(0.5) < logit(1.0)


class TestPoissonFromUniform:
    @given(
        st.floats(min_value=0.0, max_value=0.999999),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_matches_cdf_inversion(self, u, rate):
        k = poisson_from_uniform(u, rate)
        assert k >= 0
        # k is the smallest count with u < CDF(k).
        cdf = 0.0
        pmf = math.exp(-rate)
        for i in range(k + 1):
            if i > 0:
                pmf *= rate / i
            cdf += pmf
        assert u < cdf or math.isclose(u, cdf)
        if k > 0:
            assert u >= cdf - pmf

    def test_zero_rate_always_zero(self):
        assert poisson_from_uniform(0.999, 0.0) == 0
        assert (poisson_from_uniform(np.array([0.1, 0.9]), 0.0) == 0).all()

    def test_monotone_in_u(self):
        us = np.linspace(0.0, 0.9999, 500)
        counts = poisson_from_uniform(us, 3.0)
        assert (np.diff(counts) >= 0).all()

    def test_scalar_and_array_paths_bit_identical(self):
        rng = np.random.default_rng(0)
        us = rng.random(300)
        rates = rng.random(300) * 8.0
        vector = poisson_from_uniform(us, rates)
        scalars = np.array(
            [poisson_from_uniform(float(u), float(r)) for u, r in zip(us, rates)]
        )
        assert (vector == scalars).all()

    def test_reproduces_poisson_distribution(self):
        # Inversion of uniforms must give exactly Poisson marginals.
        rng = np.random.default_rng(1)
        sample = poisson_from_uniform(rng.random(20000), 2.5)
        assert float(np.mean(sample)) == pytest.approx(2.5, abs=0.05)
        assert float(np.var(sample)) == pytest.approx(2.5, abs=0.1)

    def test_rejects_extreme_rates(self):
        with pytest.raises(ValueError):
            poisson_from_uniform(0.5, MAX_POISSON_RATE * 2)

    @pytest.mark.parametrize("rate", [701.0, 746.0, 1000.0])
    def test_rejects_rates_whose_zero_probability_is_not_normal(self, rate):
        # Above 708.4 exp(-rate) is subnormal, from 746 it is 0.0: the
        # inversion would return wrong quantiles, or the iteration cap.
        assert MAX_POISSON_RATE == 700.0
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            poisson_from_uniform(np.array([0.01, 0.5, 0.99]), rate)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            poisson_rates(np.array([0.5, rate]))

    def test_quantiles_at_the_maximum_rate(self):
        # Poisson(700): the 1%, 50% and 99% quantiles are 639, 700, 762.
        counts = poisson_from_uniform(np.array([0.01, 0.5, 0.99]), MAX_POISSON_RATE)
        assert counts.tolist() == [639, 700, 762]

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            poisson_from_uniform(0.5, -1.0)


def _masked_poisson_reference(u, rate):
    """The per-element masked inversion loop the whole-array one replaced."""
    scalar = np.ndim(u) == 0 and np.ndim(rate) == 0
    u_arr, rate_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(u, dtype=np.float64)),
        np.atleast_1d(np.asarray(rate, dtype=np.float64)),
    )
    max_rate = float(rate_arr.max()) if rate_arr.size else 0.0
    pmf = np.exp(-rate_arr)
    cdf = pmf.copy()
    counts = np.zeros(u_arr.shape, dtype=np.int64)
    iteration_cap = int(max_rate + 64.0 * np.sqrt(max_rate + 1.0)) + 64
    for _ in range(iteration_cap):
        unresolved = u_arr >= cdf
        if not unresolved.any():
            break
        counts[unresolved] += 1
        pmf[unresolved] = (
            pmf[unresolved] * rate_arr[unresolved] / counts[unresolved]
        )
        cdf[unresolved] += pmf[unresolved]
    if scalar:
        return int(counts[0])
    return counts


def _two_branch_sigmoid_reference(x):
    """The masked two-branch logistic the branch-free one replaced."""
    scalar = np.ndim(x) == 0
    values = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(values)
    positive = values >= 0
    z = np.exp(-values[positive])
    out[positive] = 1.0 / (1.0 + z)
    z = np.exp(values[~positive])
    out[~positive] = z / (1.0 + z)
    if scalar:
        return float(out[0])
    return out


def assert_same_bytes(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


class TestPoissonMatchesMaskedLoop:
    """The whole-array inversion gives the masked loop's counts exactly."""

    @pytest.mark.parametrize(
        "rate",
        [0.0, 5e-324, 1e-12, 0.6, 1.8, 7.5, 50.0, 699.0, MAX_POISSON_RATE],
    )
    def test_rates_up_to_the_maximum(self, rate):
        u = np.random.default_rng(11).random(4000)
        assert_same_bytes(
            poisson_from_uniform(u, rate), _masked_poisson_reference(u, rate)
        )

    def test_mixed_rates_across_the_supported_range(self):
        rng = np.random.default_rng(12)
        u = rng.random(20000)
        rates = rng.random(20000) * MAX_POISSON_RATE
        rates[:5000] *= 1e-3  # most mass at the false-prompt model's scale
        assert_same_bytes(
            poisson_from_uniform(u, rates), _masked_poisson_reference(u, rates)
        )

    @pytest.mark.parametrize("rate", [0.0, 1.8, 30.0, 699.0, MAX_POISSON_RATE])
    def test_u_next_below_one_hits_the_iteration_cap(self, rate):
        u = np.array([np.nextafter(1.0, 0.0), 0.5, 0.0])
        ours = poisson_from_uniform(u, rate)
        assert_same_bytes(ours, _masked_poisson_reference(u, rate))
        top = float(np.nextafter(1.0, 0.0))
        assert poisson_from_uniform(top, rate) == _masked_poisson_reference(
            top, rate
        )

    def test_scalar_and_broadcast_inputs(self):
        rng = np.random.default_rng(13)
        u = rng.random((40, 1))
        rates = rng.random((1, 25)) * 12.0
        for args in (
            (0.73, 4.2),
            (0.73, rates),
            (u, 4.2),
            (u, rates),
            (u[:, 0], np.float64(2.5)),
        ):
            ours = poisson_from_uniform(*args)
            reference = _masked_poisson_reference(*args)
            assert type(ours) is type(reference)
            assert_same_bytes(ours, reference)


class TestPoissonPrefixMatchesMaskedLoop:
    """A CDF prefix of any depth gives the masked loop's counts exactly."""

    @staticmethod
    def mixed_rates(size, seed):
        rng = np.random.default_rng(seed)
        rates = rng.random(size) * 3.0
        rates[: size // 4] = rng.random(size // 4) * MAX_POISSON_RATE
        rates[:6] = (0.0, 5e-324, 1e-12, 699.0, MAX_POISSON_RATE, 50.0)
        return rng.permutation(rates)

    @pytest.mark.parametrize("rows", [1, 2, 5, 9])
    def test_mixed_rates_and_extreme_uniforms(self, rows):
        rates = self.mixed_rates(3000, rows)
        u = np.random.default_rng(rows + 100).random(3000)
        u[::7] = 0.0
        u[3::11] = np.nextafter(1.0, 0.0)
        table = poisson_rates(rates, rows)
        assert table.cdf.shape == (rows, 3000)
        assert_same_bytes(poisson_counts(u, table), _masked_poisson_reference(u, rates))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_strided_uniform_views(self, rows):
        rates = self.mixed_rates(1000, 7)
        u = np.random.default_rng(8).random((1000, 2))
        table = poisson_rates(rates, rows)
        for view in (u[:, 1], u[:, 0]):
            assert not view.flags.contiguous
            assert_same_bytes(poisson_counts(view, table), _masked_poisson_reference(view, rates))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_empty_arrays(self, rows):
        table = poisson_rates(np.empty(0), rows)
        ours = poisson_counts(np.empty(0), table)
        assert_same_bytes(ours, _masked_poisson_reference(np.empty(0), np.empty(0)))

    def test_prefix_deeper_than_every_count(self):
        rates = np.random.default_rng(9).random(500) * 2.0
        u = np.random.default_rng(10).random(500)
        table = poisson_rates(rates, 60)
        counts = poisson_counts(u, table)
        assert counts.max() < 60
        assert_same_bytes(counts, _masked_poisson_reference(u, rates))

    def test_prefix_is_capped_at_the_iteration_cap(self):
        # At rate 0 the cap is 128: deeper rows would count past it.
        table = poisson_rates(np.zeros(3), 500)
        assert len(table.cdf) == table.iteration_cap == 128
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert_same_bytes(poisson_counts(u, table), _masked_poisson_reference(u, 0.0))

    def test_rows_are_the_recurrence_steps(self):
        rates = self.mixed_rates(400, 11)
        table = poisson_rates(rates, 6)
        pmf = np.exp(-rates)
        cdf = pmf.copy()
        assert_same_bytes(table.p_zero, cdf)
        for k in range(1, 6):
            pmf = pmf * rates
            pmf = pmf / k
            cdf = cdf + pmf
            assert_same_bytes(table.cdf[k], cdf)
        assert_same_bytes(table.pmf, pmf)

    def test_one_table_reused_across_many_draws(self):
        rates = self.mixed_rates(2000, 12)
        table = poisson_rates(rates, 5)
        snapshot = table.cdf.copy(), table.pmf.copy()
        rng = np.random.default_rng(13)
        for _ in range(25):
            u = rng.random(2000)
            assert_same_bytes(poisson_counts(u, table), _masked_poisson_reference(u, rates))
        assert_same_bytes(table.cdf, snapshot[0])
        assert_same_bytes(table.pmf, snapshot[1])


class TestSigmoidMatchesTwoBranchForm:
    """The branch-free sigmoid gives the two-branch form's bits."""

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)
        xs = np.array(
            [
                0.0,
                -0.0,
                np.inf,
                -np.inf,
                tiny,
                -tiny,
                2.2250738585072014e-308 / 3,  # a subnormal
                -2.2250738585072014e-308 / 3,
                745.0,
                -745.0,
                746.0,
                -746.0,
                709.8,
                -709.8,
                1e-17,
                -1e-17,
            ]
        )
        assert_same_bytes(sigmoid(xs), _two_branch_sigmoid_reference(xs))
        for x in xs:
            ours = sigmoid(float(x))
            assert isinstance(ours, float)
            assert_same_bytes(ours, _two_branch_sigmoid_reference(float(x)))

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 4096, 100_003])
    def test_random_normals(self, size):
        xs = np.random.default_rng(size).standard_normal(size) * 8.0
        assert_same_bytes(sigmoid(xs), _two_branch_sigmoid_reference(xs))

    def test_strided_views_and_nan(self):
        xs = np.random.default_rng(14).standard_normal((300, 4)) * 20.0
        xs[::7, 1] = np.nan
        for view in (xs[:, 1], xs[::3, 2], xs[::-1, 0], xs.T):
            ours = sigmoid(view)
            reference = _two_branch_sigmoid_reference(view)
            nan = np.isnan(view)
            # A NaN's sign bit is the only thing the forms may disagree on.
            assert (np.isnan(ours) == nan).all()
            assert_same_bytes(ours[~nan], reference[~nan])
        assert math.isnan(sigmoid(float("nan")))
