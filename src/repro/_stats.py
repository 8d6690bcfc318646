"""Internal statistical helpers (no scipy dependency required).

The standard-normal quantile function, used by interval constructions
and power analysis, and :func:`scipy_distribution`, which imports a
``scipy.stats`` distribution on first use: importing scipy costs most of
a second, so no module of the package imports it at load time.  The
quantile uses scipy when present; otherwise Acklam's rational
approximation (relative error below 1.15e-9 over the whole open unit
interval), which is more than precise enough for interval and
sample-size arithmetic.
"""

from __future__ import annotations

import math
from typing import Any

from .exceptions import EstimationError

__all__ = ["normal_quantile", "scipy_distribution", "UNLOADED"]

#: What a module's scipy distribution attribute holds until its first
#: use; :func:`scipy_distribution` then replaces it (``None`` when scipy
#: is absent, the value tests set to force the fallback).
UNLOADED: Any = object()


def scipy_distribution(name: str) -> Any:
    """``scipy.stats.<name>``, imported now; ``None`` when scipy is absent."""
    try:
        import scipy.stats
    except ImportError:  # pragma: no cover - environment-dependent
        return None
    return getattr(scipy.stats, name)


_scipy_norm: Any = UNLOADED

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
_UPPER_BREAK = 1.0 - _LOWER_BREAK


def normal_quantile(p: float) -> float:
    """The standard-normal quantile (inverse CDF) at ``p`` in (0, 1)."""
    global _scipy_norm
    if not 0.0 < p < 1.0:
        raise EstimationError(f"normal quantile needs p in (0, 1), got {p!r}")
    if _scipy_norm is UNLOADED:
        _scipy_norm = scipy_distribution("norm")
    if _scipy_norm is not None:
        return float(_scipy_norm.ppf(p))
    if p < _LOWER_BREAK:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p <= _UPPER_BREAK:
        q = p - 0.5
        r = q * q
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
