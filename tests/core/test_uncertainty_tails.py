"""The credible interval's tail selection against ``np.quantile``.

:meth:`CredibleInterval.from_samples` reads each tail's order statistics
from the samples at or beyond a threshold that a strided subsample
places, or from all the samples when the threshold leaves too few.  Its
interval must equal the one two ``np.quantile`` calls give, bit for bit,
on both sides of the subsample cut-over, under ties, constant arrays,
orders that fool the stride, non-finite entries and levels from
``1e-12`` to ``1 - 1e-12``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CredibleInterval
from repro.core import uncertainty
from repro.exceptions import EstimationError

#: Below this many samples both tails read all of them.
CUTOVER = 4 * uncertainty.TAIL_SUBSAMPLE

SHAPES = (
    "beta", "ties", "constant", "ascending", "descending", "sawtooth", "non-finite"
)


def make_samples(shape, size, seed):
    rng = np.random.default_rng(seed)
    values = rng.beta(0.7, 30.0, size)
    if shape == "ties":  # a few distinct values, repeated
        return rng.choice(values[:3], size)
    if shape == "constant":
        return np.full(size, values[0])
    if shape == "ascending":
        return np.sort(values)
    if shape == "descending":
        return np.sort(values)[::-1].copy()
    if shape == "sawtooth":
        return sawtooth(values, max(1, size // uncertainty.TAIL_SUBSAMPLE))
    if shape == "non-finite":
        for special in rng.choice([np.inf, -np.inf, np.nan], rng.integers(1, 4)):
            values[rng.integers(0, size, rng.integers(1, 4))] = special
    return values


def sawtooth(values, stride):
    """``values`` (padded by repetition, then cut back) dealt into teeth
    of ``stride`` ascending values, tooth ``k`` starting with the
    ``k``-th smallest: every ``stride``-th value is among the smallest,
    so the subsample puts the lower threshold far too low."""
    teeth = -(-values.size // stride)
    dealt = np.sort(np.resize(values, teeth * stride)).reshape(stride, teeth)
    return dealt.T.ravel()[: values.size]


def reference(samples, level):
    """Two ``np.quantile`` calls, as the interval held them before."""
    tail = (1.0 - level) / 2.0
    return CredibleInterval(
        lower=float(np.quantile(samples, tail)),
        upper=float(np.quantile(samples, 1.0 - tail)),
        level=level,
        mean=float(samples.mean()),
    )


def bits(interval):
    return tuple(float.hex(getattr(interval, f)) for f in ("lower", "upper", "level", "mean"))


def outcome(build):
    """An interval's bits, or the error type building it raised."""
    try:
        return bits(build())
    except EstimationError:
        return EstimationError


sizes = st.one_of(
    st.integers(1, 50_000), st.integers(CUTOVER - 3, CUTOVER + 3), st.integers(1, 40)
)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    size=sizes,
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(1e-12, 1.0 - 1e-12),
)
@example(shape="sawtooth", size=40_000, seed=1, level=0.95)
@example(shape="beta", size=CUTOVER - 1, seed=2, level=0.95)
@example(shape="beta", size=CUTOVER, seed=2, level=0.95)
@example(shape="ties", size=50_000, seed=3, level=1e-12)
@example(shape="constant", size=1, seed=4, level=1.0 - 1e-12)
@example(shape="non-finite", size=20_000, seed=5, level=0.5)
def test_from_samples_equals_two_quantile_calls(shape, size, seed, level):
    samples = make_samples(shape, size, seed)
    with np.errstate(invalid="ignore"):  # inf - inf, on both sides
        expected = outcome(lambda: reference(samples, level))
        assert outcome(lambda: CredibleInterval.from_samples(samples, level)) == expected


@pytest.mark.parametrize("shape", ["ascending", "descending", "sawtooth"])
def test_adversarial_orders_keep_exact_tails(shape):
    """At the service's size and level, in the orders the stride
    misjudges most, and in the sawtooth the all-samples candidate set
    is what keeps the answer exact."""
    samples = make_samples(shape, 40_000, 7)
    assert bits(CredibleInterval.from_samples(samples, 0.95)) == bits(
        reference(samples, 0.95)
    )


def test_all_samples_candidate_set_runs(monkeypatch):
    """The fallback is live: a sawtooth leaves the lower tail fewer
    candidates than its ranks need, so it reads every sample, while a
    shuffled sample's tails read their candidates only."""
    read_all = []
    select = uncertainty._select

    def spy(candidates, point, offset):
        read_all.append(np.may_share_memory(candidates, samples))
        return select(candidates, point, offset)

    monkeypatch.setattr(uncertainty, "_select", spy)
    samples = make_samples("sawtooth", 40_000, 7)
    CredibleInterval.from_samples(samples, 0.95)
    assert read_all == [True, False]
    read_all.clear()
    samples = make_samples("beta", 40_000, 7)
    CredibleInterval.from_samples(samples, 0.95)
    assert read_all == [False, False]


def one_short(side, size=40_000, level=0.95):
    """Samples whose ``side`` threshold leaves one candidate fewer than
    that tail's ranks need.

    The subsampled positions hold ``0, 1, 2, ...`` so the threshold is
    the subsample rank itself; the other samples are placed around it.
    """
    tail = (1.0 - level) / 2.0
    stride = size // uncertainty.TAIL_SUBSAMPLE
    subsampled = np.arange(0, size, stride)
    rest = np.setdiff1d(np.arange(size), subsampled)
    rng = np.random.default_rng(11)
    samples = np.empty(size)
    samples[subsampled] = np.arange(subsampled.size)
    top = subsampled.size
    if side == "lower":
        need = uncertainty._linear_point(size, tail)[1] + 1
        threshold = uncertainty._spare_rank(need, stride)
        inside = need - 1 - (threshold + 1)  # non-subsampled samples below it
        values = np.concatenate(
            [rng.uniform(-1.0, threshold, inside), rng.uniform(top, top + 1, rest.size - inside)]
        )
    else:
        need = size - uncertainty._linear_point(size, 1.0 - tail)[0]
        threshold = top - 1 - uncertainty._spare_rank(need, stride)
        inside = need - 1 - (top - threshold)  # non-subsampled samples above it
        values = np.concatenate(
            [rng.uniform(threshold, top, inside), rng.uniform(-2.0, -1.0, rest.size - inside)]
        )
    samples[rest] = rng.permutation(values)
    return samples


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_one_candidate_short_reads_all_samples(monkeypatch, side):
    """The fallback's boundary: one candidate short is too few."""
    samples = one_short(side)
    read_all = []
    select = uncertainty._select

    def spy(candidates, point, offset):
        read_all.append(np.may_share_memory(candidates, samples))
        return select(candidates, point, offset)

    monkeypatch.setattr(uncertainty, "_select", spy)
    interval = CredibleInterval.from_samples(samples, 0.95)
    assert bits(interval) == bits(reference(samples, 0.95))
    assert read_all == ([True, False] if side == "lower" else [False, True])


def test_empty_samples_rejected():
    with pytest.raises(EstimationError):
        CredibleInterval.from_samples(np.array([]), 0.95)
