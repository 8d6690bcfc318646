"""The standard-normal quantile: Acklam's approximation plus one Halley step."""

import math

import numpy as np
import pytest

from repro._stats import normal_quantile
from repro.exceptions import EstimationError

#: p -> scipy.stats.norm.ppf(p), computed with scipy 1.17, so the pins
#: hold where scipy is not installed.
SCIPY_REFERENCE = {
    1e-300: -37.0470962993612,
    1e-100: -21.273453560965322,
    1e-20: -9.262340089798409,
    1e-10: -6.361340902404056,
    0.001: -3.090232306167813,
    0.025: -1.9599639845400545,
    0.3: -0.5244005127080409,
    0.4999: -0.0002506628300880075,
    0.49999999: -2.5066282733116225e-08,
    0.5000000001: 2.506628482030354e-10,
    0.6: 0.2533471031357997,
    0.9: 1.2815515655446004,
    0.975: 1.959963984540054,
    0.995: 2.5758293035489004,
    0.9999999999: 6.361340889697422,
    0.999999999999999: 7.941444487415979,
}


def log_spaced_grid():
    """p over (1e-300, 1 - 1e-15): log-spaced towards both tails, and
    towards the centre, where the quantile itself approaches 0."""
    lower = np.logspace(-300, math.log10(0.5), 1201)
    upper = 1.0 - np.logspace(-15, math.log10(0.5), 601)
    centre = np.logspace(-15, -2, 53)
    return [float(p) for p in (*lower, *upper, *(0.5 - centre), *(0.5 + centre))]


def test_matches_scipy_reference_values():
    for p, expected in SCIPY_REFERENCE.items():
        assert normal_quantile(p) == pytest.approx(expected, rel=1e-12, abs=0), p


def test_usual_confidence_levels_to_the_last_digits():
    for p in (0.9, 0.975, 0.995):
        assert normal_quantile(p) == pytest.approx(SCIPY_REFERENCE[p], rel=1e-15, abs=0)


def test_matches_live_scipy_over_both_tails():
    norm = pytest.importorskip("scipy.stats").norm
    for p in log_spaced_grid():
        expected = float(norm.ppf(p))
        assert normal_quantile(p) == pytest.approx(expected, rel=1e-12, abs=0), p


def test_centre_and_symmetry():
    assert normal_quantile(0.5) == 0.0
    # Dyadic p: 1 - p is exact, so the reflection is too.
    for p in (2.0**-40, 2.0**-10, 0.25, 0.375):
        assert normal_quantile(1.0 - p) == -normal_quantile(p)


def test_subnormal_levels_keep_the_approximation():
    # Below the smallest normal float no refinement step is taken; the
    # rational approximation alone is within 2e-9 relative there.
    assert normal_quantile(5e-324) == pytest.approx(-38.467405617144344, rel=2e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_rejects_levels_outside_the_open_interval(p):
    with pytest.raises(EstimationError, match="normal quantile"):
        normal_quantile(p)
