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

import struct
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "exp",
    "log",
    "sqrt",
    "logit",
    "sigmoid",
    "poisson_from_uniform",
    "poisson_rates",
    "poisson_counts",
    "PoissonRates",
    "MAX_POISSON_RATE",
    "float_key",
    "read_only",
    "SpawnedSeed",
    "PrivateGenerator",
]

ArrayLike = float | np.ndarray

#: Largest Poisson rate :func:`poisson_from_uniform` accepts: the largest
#: round rate whose ``exp(-rate)`` is a normal float (it is subnormal above
#: 708.4 and 0.0 from 746, where the inversion returns wrong counts), so
#: extreme threshold tunings fail loudly.
MAX_POISSON_RATE = 700.0


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


class PoissonRates(NamedTuple):
    """Validated Poisson rates, ready for inversion (:func:`poisson_rates`).

    Attributes:
        rate: The rates, ``float64``.
        cdf: The first rows of each rate's CDF, ``(rows, *rate.shape)``,
            stepped by the inversion's own recurrence.
        pmf: ``P(K = rows - 1)``, where the recurrence resumes.
        iteration_cap: Most pmf/cdf steps an inversion takes; it only
            guards against float saturation in the extreme tail (``u``
            within an ulp of 1).
    """

    rate: np.ndarray
    cdf: np.ndarray
    pmf: np.ndarray
    iteration_cap: int

    @property
    def p_zero(self) -> np.ndarray:
        """``exp(-rate)``, each rate's ``P(K = 0)``."""
        return self.cdf[0]


def poisson_rates(rate: np.ndarray, rows: int = 1) -> PoissonRates:
    """Validate an array of Poisson rates and precompute what inverting them needs.

    ``rows`` CDF rows are kept (at most the iteration cap): an inversion
    steps only the elements whose count reaches them.

    Raises:
        ValueError: when a rate is not finite, is negative, or exceeds
            :data:`MAX_POISSON_RATE`.
    """
    rate = np.asarray(rate, dtype=np.float64)
    if not np.all(np.isfinite(rate)) or np.any(rate < 0):
        raise ValueError("Poisson rates must be finite and non-negative")
    max_rate = float(rate.max()) if rate.size else 0.0
    if max_rate > MAX_POISSON_RATE:
        raise ValueError(
            f"Poisson rate {max_rate!r} exceeds the supported maximum "
            f"{MAX_POISSON_RATE!r}"
        )
    iteration_cap = int(max_rate + 64.0 * np.sqrt(max_rate + 1.0)) + 64
    cdf = np.empty((min(rows, iteration_cap), *rate.shape))
    np.exp(-rate, out=cdf[0])
    pmf = cdf[0].copy()
    for k in range(1, len(cdf)):
        pmf *= rate
        pmf /= k
        np.add(cdf[k - 1], pmf, out=cdf[k])
    return PoissonRates(rate=rate, cdf=cdf, pmf=pmf, iteration_cap=iteration_cap)


def poisson_counts(u: np.ndarray, rates: PoissonRates) -> np.ndarray:
    """Poisson quantiles of the uniforms ``u`` at validated ``rates`` (same shape).

    The smallest ``k`` with ``u < CDF(k)``, elementwise, as an int64
    array: the number of ``rates.cdf`` rows ``u`` is at or above (each
    element's rows never decrease), and for the elements at or above
    every row, the steps of the same pmf/cdf recurrence on from the
    last, to the same iteration cap.  Each element's steps are its own
    recurrence's, so the counts are a per-element loop's, bit for bit,
    at any depth (one row, ``P(K = 0)``, steps every nonzero count).
    """
    rate, cdf, pmf, iteration_cap = rates
    at_or_above = u >= cdf
    # At most the row count, which the iteration cap (< 2**16) bounds.
    counts = np.add.reduce(at_or_above.view(np.uint8), axis=0, dtype=np.uint16)
    counts = counts.astype(np.int64)
    past = np.nonzero(at_or_above[-1])
    # The loop runs to the largest realised count.
    if past[0].size:
        u, rate, pmf, last = u[past], rate[past], pmf[past], cdf[-1][past]
        more = np.zeros(u.shape, dtype=np.int64)
        unresolved = np.ones(u.shape, dtype=bool)
        for k in range(len(cdf), iteration_cap):
            pmf *= rate
            pmf /= k
            last += pmf
            np.greater_equal(u, last, out=unresolved)
            if not unresolved.any():
                break
            more += unresolved
        counts[past] += more
    return counts


def poisson_from_uniform(u: ArrayLike, rate: ArrayLike) -> ArrayLike:
    """Poisson quantile by inversion: the smallest ``k`` with ``u < CDF(k)``.

    Sampling ``poisson_from_uniform(rng.random(), rate)`` is an exact
    inverse-transform Poisson draw, but — unlike ``rng.poisson`` — it
    consumes exactly one uniform per variate, which is what lets the
    batch engine replicate the scalar stream with one flat ``random(n)``
    call.  It is :func:`poisson_counts` at :func:`poisson_rates`.

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
    counts = poisson_counts(u_arr, poisson_rates(rate_arr))
    if scalar:
        return int(counts[0])
    return counts


_DOUBLE = struct.Struct("<d")


def float_key(value: float) -> bytes:
    """``value``'s exact IEEE 754 bits, as a memo key (``0.0`` and ``-0.0`` differ)."""
    return _DOUBLE.pack(value)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only (for values memoised and shared across callers)."""
    array.flags.writeable = False
    return array


class SpawnedSeed(NamedTuple):
    """The integer seed ``SeedSequence(entropy).spawn(...)`` gives child ``index``.

    A deferred seed: :meth:`derive` computes
    ``int(SeedSequence(entropy, spawn_key=(index,)).generate_state(1)[0])``,
    which by numpy's spawn rule is what ``generate_state(1)[0]`` of
    child ``index`` of ``SeedSequence(entropy).spawn(n)`` gives, for any
    ``n > index``.  A component seeded with one derives the integer only
    at its first private draw (see :class:`PrivateGenerator`).
    """

    entropy: int
    index: int

    def derive(self) -> int:
        """The integer seed."""
        sequence = np.random.SeedSequence(self.entropy, spawn_key=(self.index,))
        return int(sequence.generate_state(1)[0])


class PrivateGenerator:
    """A component's private random generator, created on its first draw.

    Calling the object returns the generator.  A seeded one (an int, or
    a :class:`SpawnedSeed`) keeps its seed and runs ``default_rng`` on
    the first call, so a component that is only ever handed a shared
    generator never builds its own, and until then pickles as its seed.
    ``seed=None`` draws OS entropy at construction, as ``default_rng``
    does, so a pickled copy of an unseeded component still shares the
    original's state.  A seed ``default_rng`` rejects raises at the
    first call.
    """

    def __init__(self, seed: Any = None):
        self.seed = seed
        self._generator = None if seed is not None else np.random.default_rng(seed)

    def __call__(self) -> np.random.Generator:
        generator = self._generator
        if generator is None:
            seed = self.seed
            if isinstance(seed, SpawnedSeed):
                seed = seed.derive()
            generator = self._generator = np.random.default_rng(seed)
        return generator
