"""Confidence intervals for binomial proportions.

Trial estimates of the model parameters are proportions from modest
samples; the paper's example "assume[s] for the sake of simplicity that
narrow enough confidence intervals can be obtained", and this module is
where that assumption gets checked in practice.  Three standard methods
are provided:

* **Wilson** — good coverage at all sample sizes, closed form;
* **Clopper-Pearson** — exact (conservative), via Beta quantiles;
* **Jeffreys** — Bayesian equal-tailed interval under the Jeffreys prior.

All return a :class:`ConfidenceInterval` with the point estimate attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._stats import normal_quantile
from ..core.uncertainty import BetaPosterior
from ..exceptions import EstimationError

__all__ = [
    "ConfidenceInterval",
    "wilson_interval",
    "clopper_pearson_interval",
    "jeffreys_interval",
]

#: Two-sided standard-normal quantiles for common levels, to the ten decimals
#: Wilson intervals have always used; other levels take ``normal_quantile``.
_Z_BY_LEVEL = {0.80: 1.2815515655, 0.90: 1.6448536270, 0.95: 1.9599639845, 0.99: 2.5758293035}


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a proportion.

    Attributes:
        point: The sample proportion ``events / trials``.
        lower: Lower confidence bound.
        upper: Upper confidence bound.
        level: Confidence level (e.g. 0.95).
        method: Name of the construction method.
    """

    point: float
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise EstimationError(f"level must be in (0, 1), got {self.level!r}")
        if not self.lower <= self.upper:
            raise EstimationError(
                f"interval bounds out of order: [{self.lower!r}, {self.upper!r}]"
            )

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.upper - self.lower

    def __contains__(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _check_counts(events: int, trials: int) -> None:
    if trials <= 0:
        raise EstimationError(f"trials must be positive, got {trials!r}")
    if not 0 <= events <= trials:
        raise EstimationError(f"events must be in [0, {trials}], got {events!r}")


def _z_for_level(level: float) -> float:
    if level in _Z_BY_LEVEL:
        return _Z_BY_LEVEL[level]
    return -normal_quantile((1.0 - level) / 2.0)


def wilson_interval(events: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    _check_counts(events, trials)
    if not 0.0 < level < 1.0:
        raise EstimationError(f"level must be in (0, 1), got {level!r}")
    z = _z_for_level(level)
    p_hat = events / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denominator
    )
    # The Wilson interval provably contains p_hat; clamp away the one-ulp
    # violations that centre +/- margin can produce at boundary counts.
    return ConfidenceInterval(
        point=p_hat,
        lower=min(max(0.0, centre - margin), p_hat),
        upper=max(min(1.0, centre + margin), p_hat),
        level=level,
        method="wilson",
    )


def clopper_pearson_interval(
    events: int, trials: int, level: float = 0.95
) -> ConfidenceInterval:
    """Clopper-Pearson (exact) interval via Beta quantiles."""
    _check_counts(events, trials)
    if not 0.0 < level < 1.0:
        raise EstimationError(f"level must be in (0, 1), got {level!r}")
    tail = (1.0 - level) / 2.0
    lower = (
        0.0
        if events == 0
        else BetaPosterior(events, trials - events + 1).quantile(tail)
    )
    upper = (
        1.0
        if events == trials
        else BetaPosterior(events + 1, trials - events).quantile(1.0 - tail)
    )
    return ConfidenceInterval(
        point=events / trials,
        lower=lower,
        upper=upper,
        level=level,
        method="clopper-pearson",
    )


def jeffreys_interval(
    events: int, trials: int, level: float = 0.95
) -> ConfidenceInterval:
    """Jeffreys (Bayesian) equal-tailed interval.

    Uses the Beta(0.5, 0.5) prior; by convention the lower bound is 0 when
    no events were seen and the upper bound 1 when every trial was an
    event, to preserve frequentist coverage at the boundaries.
    """
    _check_counts(events, trials)
    if not 0.0 < level < 1.0:
        raise EstimationError(f"level must be in (0, 1), got {level!r}")
    posterior = BetaPosterior.from_counts(events, trials)
    tail = (1.0 - level) / 2.0
    lower = 0.0 if events == 0 else posterior.quantile(tail)
    upper = 1.0 if events == trials else posterior.quantile(1.0 - tail)
    return ConfidenceInterval(
        point=events / trials,
        lower=lower,
        upper=upper,
        level=level,
        method="jeffreys",
    )
