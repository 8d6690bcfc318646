"""Internal statistical helpers (no scipy dependency required).

The standard-normal quantile function, used by interval constructions
and power analysis.  Importing scipy costs most of a second and about
60 MB, so only the Beta posterior's exact quantile loads it, on first use.
"""

from __future__ import annotations

import math
import sys

from .exceptions import EstimationError

__all__ = ["normal_quantile"]

# Coefficients of Acklam's inverse normal CDF approximation.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)

_LOWER_BREAK = 0.02425
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """The standard-normal quantile (inverse CDF) at ``p`` in (0, 1).

    Acklam's approximation (relative error below 1.15e-9), then one
    Halley step on ``Phi(x) = p``: it matches ``scipy.stats.norm.ppf`` to
    ~1e-15 relative (``tests/test_stats.py``).  Above 0.5 it reflects
    through the exact ``1 - p``; below the smallest normal float, where
    erfc is subnormal, the approximation stands alone.
    """
    if not 0.0 < p < 1.0:
        raise EstimationError(f"normal quantile needs p in (0, 1), got {p!r}")
    if p > 0.5:
        return -normal_quantile(1.0 - p)
    if p < _LOWER_BREAK:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
        # Phi(x) - p, by erfc: relative precision in the tail.
        error = 0.5 * math.erfc(-x * _SQRT_HALF) - p
    else:
        q = p - 0.5  # exact for p in [0.25, 0.5]
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
        # Phi(x) - p as erf(x/sqrt(2))/2 - (p - 0.5): precise near the centre.
        error = 0.5 * math.erf(x * _SQRT_HALF) - q
    if p < sys.float_info.min:
        return x
    step = error * _SQRT_2PI * math.exp(0.5 * x * x)  # (Phi(x) - p) / phi(x)
    return x - step / (1.0 + 0.5 * x * step)
