"""Shared numeric primitives for the scalar and batch simulation paths.

The batch engine (:mod:`repro.engine`) promises **bit-identical** failure
counts to the per-case scalar simulators.  That guarantee only holds if
both paths evaluate every transcendental function through the same
implementation: ``math.exp`` and ``numpy.exp`` can disagree in the last
ulp, and a one-ulp difference in a probability flips a decision whenever
a uniform draw lands in the gap.  Every logit, sigmoid, and Poisson
quantile used by a *sampling* path therefore goes through this module,
which backs everything with numpy so that a scalar evaluation and the
corresponding element of an array evaluation produce the same bits.

The functions are polymorphic: passing a Python float returns a float,
passing an ndarray returns an ndarray, and the scalar result always
equals the corresponding array element.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exp",
    "log",
    "sqrt",
    "logit",
    "sigmoid",
    "poisson_from_uniform",
    "MAX_POISSON_RATE",
]

ArrayLike = float | np.ndarray

#: Largest Poisson rate :func:`poisson_from_uniform` accepts.  Far above
#: anything the false-prompt model produces; the guard exists so extreme
#: threshold tunings fail loudly instead of iterating forever.
MAX_POISSON_RATE = 1.0e3


def exp(x: ArrayLike) -> ArrayLike:
    """Elementwise ``e**x`` through the shared numpy backend.

    Sampling paths call this instead of ``math.exp``/``np.exp`` directly
    (replint rule REP002): both spellings are correct in isolation, but
    they may disagree in the last ulp, and mixing them across the scalar
    and batch paths breaks their bit-equality.
    """
    out = np.exp(np.asarray(x, dtype=np.float64))
    if np.ndim(x) == 0:
        return float(out)
    return out


def log(x: ArrayLike) -> ArrayLike:
    """Elementwise natural logarithm through the shared numpy backend."""
    out = np.log(np.asarray(x, dtype=np.float64))
    if np.ndim(x) == 0:
        return float(out)
    return out


def sqrt(x: ArrayLike) -> ArrayLike:
    """Elementwise square root through the shared numpy backend.

    IEEE 754 requires sqrt to be correctly rounded, so ``math.sqrt`` and
    ``np.sqrt`` agree bit for bit; the wrapper exists so sampling-path
    modules can stay entirely inside the :mod:`repro._numeric` seam.
    """
    out = np.sqrt(np.asarray(x, dtype=np.float64))
    if np.ndim(x) == 0:
        return float(out)
    return out


def logit(p: ArrayLike, epsilon: float = 1e-12) -> ArrayLike:
    """Elementwise ``log(p / (1 - p))`` with endpoint clamping.

    Args:
        p: Probability (scalar or array).
        epsilon: Clamp distance from the endpoints so the result stays
            finite.
    """
    values = np.clip(np.asarray(p, dtype=np.float64), epsilon, 1.0 - epsilon)
    out = np.log(values / (1.0 - values))
    if np.ndim(p) == 0:
        return float(out)
    return out


def sigmoid(x: ArrayLike) -> ArrayLike:
    """Numerically stable elementwise logistic function.

    With ``z = exp(-|x|)`` (never a large positive exponent) the value
    is ``1 / (1 + z)`` for ``x >= 0`` and ``z / (1 + z)`` otherwise: the
    two-branch form, selected per element instead of masked.  ``-|x|``
    is exactly ``-x`` on the first branch (``-0.0`` included) and ``x``
    on the second, so each element gets the bits of its own branch and
    scalar and array evaluation agree.
    """
    values = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(values))
    out = np.where(values >= 0, 1.0, z)
    out /= 1.0 + z
    if np.ndim(x) == 0:
        return float(out)
    return out


def poisson_from_uniform(u: ArrayLike, rate: ArrayLike) -> ArrayLike:
    """Poisson quantile by inversion: the smallest ``k`` with ``u < CDF(k)``.

    Sampling ``poisson_from_uniform(rng.random(), rate)`` is an exact
    inverse-transform Poisson draw, but — unlike ``rng.poisson`` — it
    consumes exactly one uniform per variate, which is what lets the
    batch engine replicate the scalar stream with one flat ``random(n)``
    call.

    Each step of the pmf/cdf recurrence runs on the whole array, resolved
    elements included: an unresolved element's count equals the step
    ``k``, so ``pmf * rate / k`` is exactly its own recurrence step, and a
    resolved element stays resolved because its ``cdf`` never decreases.
    The counts are therefore those of a per-element loop, bit for bit.

    Args:
        u: Uniform variates in ``[0, 1)`` (scalar or array).
        rate: Poisson rate(s), broadcastable against ``u``; must be
            finite, non-negative, and at most :data:`MAX_POISSON_RATE`.

    Returns:
        Integer count(s); an ``int`` for scalar input, else an int64 array.
    """
    scalar = np.ndim(u) == 0 and np.ndim(rate) == 0
    u_arr, rate_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(u, dtype=np.float64)),
        np.atleast_1d(np.asarray(rate, dtype=np.float64)),
    )
    if not np.all(np.isfinite(rate_arr)) or np.any(rate_arr < 0):
        raise ValueError("Poisson rates must be finite and non-negative")
    max_rate = float(rate_arr.max()) if rate_arr.size else 0.0
    if max_rate > MAX_POISSON_RATE:
        raise ValueError(
            f"Poisson rate {max_rate!r} exceeds the supported maximum "
            f"{MAX_POISSON_RATE!r}"
        )

    pmf = np.exp(-rate_arr)  # P(K = 0)
    cdf = pmf.copy()
    counts = np.zeros(u_arr.shape, dtype=np.int64)
    unresolved = u_arr >= cdf
    # The loop runs to the largest realised count; the cap only guards
    # against float saturation in the extreme tail (u within an ulp of 1).
    iteration_cap = int(max_rate + 64.0 * np.sqrt(max_rate + 1.0)) + 64
    for k in range(1, iteration_cap + 1):
        if not unresolved.any():
            break
        counts += unresolved
        pmf *= rate_arr
        pmf /= k
        cdf += pmf
        np.greater_equal(u_arr, cdf, out=unresolved)
    if scalar:
        return int(counts[0])
    return counts
