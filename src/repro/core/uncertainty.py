"""Parameter uncertainty and its propagation through the models.

The paper's worked example assumes "narrow enough confidence intervals can
be obtained for all parameters"; in reality every parameter is estimated
from finite trial data.  This module represents each estimated probability
as a Beta posterior (conjugate to the Bernoulli observations a trial
yields), and propagates joint parameter uncertainty through the sequential
model by Monte Carlo, producing credible intervals for the predicted
system failure probability under any demand profile.

Quantiles of the Beta distribution use :mod:`scipy` when available and
fall back to a Monte Carlo quantile estimate otherwise, so the library
itself only hard-depends on :mod:`numpy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..exceptions import EstimationError, ParameterError
from .case_class import CaseClass
from .parameters import ClassParameters, ModelParameters
from .profile import DemandProfile
from .sequential import SequentialModel

__all__ = [
    "BetaPosterior",
    "UncertainClassParameters",
    "UncertainModel",
    "CredibleInterval",
]

ClassKey = CaseClass | str


def _scipy_beta() -> Any:
    """``scipy.stats.beta``, imported on first use; ``None`` without scipy."""
    try:
        from scipy.stats import beta
    except ImportError:  # pragma: no cover - environment-dependent
        return None
    return beta


#: Jeffreys prior pseudo-counts, the default non-informative prior.
JEFFREYS_PRIOR = (0.5, 0.5)


def _as_case_class(key: ClassKey) -> CaseClass:
    if isinstance(key, CaseClass):
        return key
    if isinstance(key, str):
        return CaseClass(key)
    raise TypeError(f"keys must be CaseClass or str, got {type(key).__name__}")


@dataclass(frozen=True)
class CredibleInterval:
    """An equal-tailed credible interval with its point estimate.

    Attributes:
        lower: Lower bound of the interval.
        upper: Upper bound of the interval.
        level: The credibility level (e.g. 0.95).
        mean: The posterior mean point estimate.
    """

    lower: float
    upper: float
    level: float
    mean: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise EstimationError(f"credibility level must be in (0, 1), got {self.level!r}")
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

    @classmethod
    def from_samples(cls, samples: np.ndarray, level: float) -> "CredibleInterval":
        """The equal-tailed interval of Monte Carlo ``samples``, with their mean.

        Both tail quantiles come from one ``np.quantile`` call: one
        partition of the samples instead of two.
        """
        if not 0.0 < level < 1.0:
            raise EstimationError(f"credibility level must be in (0, 1), got {level!r}")
        tail = (1.0 - level) / 2.0
        lower, upper = np.quantile(samples, (tail, 1.0 - tail))
        return cls(
            lower=float(lower), upper=float(upper), level=level, mean=float(samples.mean())
        )


@dataclass(frozen=True)
class BetaPosterior:
    """A Beta distribution over an unknown probability.

    Attributes:
        alpha: First shape parameter (> 0); prior pseudo-successes plus
            observed event counts.
        beta: Second shape parameter (> 0).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise EstimationError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise EstimationError(f"beta must be positive and finite, got {self.beta!r}")

    @classmethod
    def from_counts(
        cls,
        events: int,
        trials: int,
        prior: tuple[float, float] = JEFFREYS_PRIOR,
    ) -> "BetaPosterior":
        """Posterior after observing ``events`` occurrences in ``trials``.

        Args:
            events: Number of times the event of interest occurred.
            trials: Number of opportunities (>= ``events``).
            prior: ``(alpha, beta)`` pseudo-counts; Jeffreys by default.
        """
        if trials < 0 or events < 0 or events > trials:
            raise EstimationError(
                f"invalid counts: events={events!r}, trials={trials!r}"
            )
        return cls(prior[0] + events, prior[1] + (trials - events))

    @classmethod
    def certain(cls, value: float, concentration: float = 1e9) -> "BetaPosterior":
        """A posterior sharply concentrated at ``value`` (for fixed parameters)."""
        if not 0.0 <= value <= 1.0:
            raise EstimationError(f"value must be a probability, got {value!r}")
        # Keep both shape parameters strictly positive even at the endpoints.
        alpha = max(value * concentration, 1e-12)
        beta = max((1.0 - value) * concentration, 1e-12)
        return cls(alpha, beta)

    @property
    def mean(self) -> float:
        """Posterior mean ``alpha / (alpha + beta)``."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        """Posterior variance."""
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total * total * (total + 1.0))

    @property
    def std(self) -> float:
        """Posterior standard deviation."""
        return math.sqrt(self.variance)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples from the posterior."""
        return rng.beta(self.alpha, self.beta, size=size)

    def quantile(self, q: float, num_samples: int = 200_000) -> float:
        """The ``q``-quantile of the posterior.

        Uses scipy's exact inverse regularised incomplete beta function
        when available, otherwise a seeded Monte Carlo estimate.
        """
        if not 0.0 <= q <= 1.0:
            raise EstimationError(f"quantile level must be in [0, 1], got {q!r}")
        beta = _scipy_beta()
        if beta is not None:
            try:
                value = float(beta.ppf(q, self.alpha, self.beta))
            except OverflowError:
                value = math.nan
            if math.isfinite(value):
                return value
            # boost's incomplete-beta inversion can give up (NaN) or
            # overflow (tgamma) at subnormal levels; fall through to the
            # Monte Carlo estimate.
        rng = np.random.default_rng(0)
        samples = self.sample(rng, num_samples)
        return float(np.quantile(samples, q))

    def interval(self, level: float = 0.95) -> CredibleInterval:
        """Equal-tailed credible interval at the given level."""
        if not 0.0 < level < 1.0:
            raise EstimationError(f"credibility level must be in (0, 1), got {level!r}")
        tail = (1.0 - level) / 2.0
        return CredibleInterval(
            lower=self.quantile(tail),
            upper=self.quantile(1.0 - tail),
            level=level,
            mean=self.mean,
        )


@dataclass(frozen=True)
class UncertainClassParameters:
    """Beta posteriors over one class's three model parameters.

    Attributes:
        p_machine_failure: Posterior over ``PMf(x)``.
        p_human_failure_given_machine_failure: Posterior over ``PHf|Mf(x)``.
        p_human_failure_given_machine_success: Posterior over ``PHf|Ms(x)``.
    """

    p_machine_failure: BetaPosterior
    p_human_failure_given_machine_failure: BetaPosterior
    p_human_failure_given_machine_success: BetaPosterior

    @classmethod
    def from_point(cls, parameters: ClassParameters) -> "UncertainClassParameters":
        """Degenerate (near-certain) posteriors at known parameter values."""
        return cls(
            BetaPosterior.certain(parameters.p_machine_failure),
            BetaPosterior.certain(parameters.p_human_failure_given_machine_failure),
            BetaPosterior.certain(parameters.p_human_failure_given_machine_success),
        )

    def mean_parameters(self) -> ClassParameters:
        """The posterior-mean parameter triple."""
        return ClassParameters(
            p_machine_failure=self.p_machine_failure.mean,
            p_human_failure_given_machine_failure=(
                self.p_human_failure_given_machine_failure.mean
            ),
            p_human_failure_given_machine_success=(
                self.p_human_failure_given_machine_success.mean
            ),
        )

    def sample_parameters(self, rng: np.random.Generator) -> ClassParameters:
        """Draw one joint sample of the parameter triple.

        The three posteriors are sampled independently — the trial counts
        behind them come from disjoint subsets of observations, so the
        posteriors are indeed independent given the data.
        """
        return ClassParameters(
            p_machine_failure=float(self.p_machine_failure.sample(rng)),
            p_human_failure_given_machine_failure=float(
                self.p_human_failure_given_machine_failure.sample(rng)
            ),
            p_human_failure_given_machine_success=float(
                self.p_human_failure_given_machine_success.sample(rng)
            ),
        )


class UncertainModel:
    """A sequential model with Beta-posterior parameter uncertainty.

    Args:
        by_class: Mapping from case class to its parameter posteriors.
    """

    __slots__ = ("_by_class",)

    def __init__(self, by_class: Mapping[ClassKey, UncertainClassParameters]):
        if not by_class:
            raise ParameterError("UncertainModel needs at least one class")
        normalised = {_as_case_class(k): v for k, v in by_class.items()}
        for cls, entry in normalised.items():
            if not isinstance(entry, UncertainClassParameters):
                raise ParameterError(
                    f"posteriors for {cls.name!r} must be UncertainClassParameters"
                )
        self._by_class = {cls: normalised[cls] for cls in sorted(normalised)}

    def __getitem__(self, key: ClassKey) -> UncertainClassParameters:
        cls = _as_case_class(key)
        try:
            return self._by_class[cls]
        except KeyError:
            raise ParameterError(f"no posteriors for case class {cls.name!r}") from None

    def __iter__(self):
        return iter(self._by_class)

    def __len__(self) -> int:
        return len(self._by_class)

    @property
    def classes(self) -> tuple[CaseClass, ...]:
        """All case classes with posteriors, in sorted order."""
        return tuple(self._by_class)

    @classmethod
    def from_point(cls, parameters: ModelParameters) -> "UncertainModel":
        """Near-certain posteriors around a known parameter table."""
        return cls(
            {
                case_class: UncertainClassParameters.from_point(params)
                for case_class, params in parameters.items()
            }
        )

    @classmethod
    def from_trial_counts(
        cls, parameters: ModelParameters, trials: int
    ) -> "UncertainModel":
        """Pseudo-trial posteriors around a known parameter table.

        Each parameter ``p`` of each class becomes
        ``BetaPosterior.from_counts(round(p * trials), trials)``, as if it
        had been estimated from ``trials`` readings.
        """
        return cls(
            {
                case_class: UncertainClassParameters(
                    *(
                        BetaPosterior.from_counts(round(p * trials), trials)
                        for p in (
                            params.p_machine_failure,
                            params.p_human_failure_given_machine_failure,
                            params.p_human_failure_given_machine_success,
                        )
                    )
                )
                for case_class, params in parameters.items()
            }
        )

    def mean_model(self) -> SequentialModel:
        """The sequential model at the posterior-mean parameters."""
        return SequentialModel(
            ModelParameters(
                {cls: entry.mean_parameters() for cls, entry in self._by_class.items()}
            )
        )

    def sample_model(self, rng: np.random.Generator) -> SequentialModel:
        """One joint posterior draw of the full sequential model."""
        return SequentialModel(
            ModelParameters(
                {cls: entry.sample_parameters(rng) for cls, entry in self._by_class.items()}
            )
        )

    def sample_table(
        self,
        num_draws: int,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ):
        """Batched joint posterior draws as an array-backed parameter table.

        Delegates to :func:`repro.engine.posterior.sample_parameter_table`
        — the kernel's param-major randomness layout — and is the single
        sampling entry point behind every propagation method below, both
        vectorized and scalar reference.  See ``docs/uncertainty.md`` for
        the layout contract.
        """
        from ..engine.posterior import sample_parameter_table

        return sample_parameter_table(self, num_draws, rng=rng, seed=seed)

    def failure_probability_samples(
        self,
        profile: DemandProfile,
        num_samples: int = 10_000,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        method: str = "vectorized",
    ) -> np.ndarray:
        """Posterior samples of the system failure probability under a profile.

        Both methods consume the *same* batched posterior table (one
        param-major draw per class and parameter), so for a given seed
        they return bit-identical samples; ``"scalar"`` is the slow
        reference path that materialises one
        :class:`~repro.core.sequential.SequentialModel` per draw.

        Args:
            profile: Demand profile to evaluate under.
            num_samples: Number of posterior draws.
            rng: Random generator; built from ``seed`` when omitted.
            seed: Seed used when ``rng`` is omitted; leaving both unset
                draws irreproducible OS entropy.
            method: ``"vectorized"`` (the array kernel, default) or
                ``"scalar"`` (the per-draw reference loop).
        """
        table = self.sample_table(num_samples, rng=rng, seed=seed)
        if method == "vectorized":
            return table.system_failure_probability(profile)
        if method == "scalar":
            samples = np.empty(num_samples, dtype=np.float64)
            for i in range(num_samples):
                samples[i] = SequentialModel(table.row(i)).system_failure_probability(
                    profile
                )
            return samples
        raise EstimationError(
            f"method must be 'vectorized' or 'scalar', got {method!r}"
        )

    def failure_probability_interval(
        self,
        profile: DemandProfile,
        level: float = 0.95,
        num_samples: int = 10_000,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        method: str = "vectorized",
    ) -> CredibleInterval:
        """Credible interval for the system failure probability under a profile.

        Args:
            profile: Demand profile to evaluate under.
            level: Credibility level of the equal-tailed interval.
            num_samples: Number of posterior draws.
            rng: Random generator; built from ``seed`` when omitted.
            seed: Seed used when ``rng`` is omitted; leaving both unset
                draws irreproducible OS entropy.
            method: ``"vectorized"`` (default) or ``"scalar"``; see
                :meth:`failure_probability_samples`.
        """
        if not 0.0 < level < 1.0:
            raise EstimationError(f"credibility level must be in (0, 1), got {level!r}")
        samples = self.failure_probability_samples(
            profile, num_samples, rng=rng, seed=seed, method=method
        )
        return CredibleInterval.from_samples(samples, level)

    def probability_scenario_beats(
        self,
        first_transform,
        second_transform,
        profile: DemandProfile,
        num_samples: int = 10_000,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        method: str = "vectorized",
    ) -> float:
        """Posterior probability that one design scenario beats another.

        For Table-3-style decisions under estimation uncertainty: sample
        the parameter posteriors jointly, apply both candidate transforms
        to the *same* draws (common random numbers), and count how often
        the first yields the lower system failure probability.  Exact
        ties count as half a win each, so identical scenarios — or a
        degenerate :meth:`from_point` posterior — score exactly 0.5.

        The vectorized path applies each transform once to the whole
        array-backed table; transforms that only speak the scalar
        ``ModelParameters`` protocol (anything beyond the shared
        ``with_*`` transform methods) fall back transparently to the
        per-draw reference loop over the same table, preserving both the
        seed and the result.

        Args:
            first_transform: Callable mapping a parameter table draw to
                the first scenario's table (e.g.
                ``lambda p: p.with_machine_improved(10, ["difficult"])``);
                applied to a
                :class:`~repro.engine.posterior.ParameterTable` on the
                vectorized path and to a
                :class:`~repro.core.parameters.ModelParameters` per draw
                on the scalar path.
            second_transform: Same for the second scenario; use
                ``lambda p: p`` for the unimproved baseline.
            profile: Demand profile both scenarios are evaluated under.
            num_samples: Number of posterior draws.
            rng: Random generator; built from ``seed`` when omitted.
            seed: Seed used when ``rng`` is omitted; leaving both unset
                draws irreproducible OS entropy.
            method: ``"vectorized"`` (default) or ``"scalar"``.

        Returns:
            ``P(PHf_first < PHf_second | trial data)`` plus half the tie
            mass — 0.5 means the data cannot distinguish the scenarios.
        """
        from ..engine.posterior import ParameterTable, scenario_win_probability

        if method not in ("vectorized", "scalar"):
            raise EstimationError(
                f"method must be 'vectorized' or 'scalar', got {method!r}"
            )
        table = self.sample_table(num_samples, rng=rng, seed=seed)
        if method == "vectorized":
            try:
                first_table = first_transform(table)
                second_table = second_transform(table)
                if isinstance(first_table, ParameterTable) and isinstance(
                    second_table, ParameterTable
                ):
                    return scenario_win_probability(
                        first_table, second_table, profile
                    )
            except (TypeError, AttributeError, NotImplementedError):
                pass  # scalar-only transform: fall back to the reference loop
        first_values = np.empty(num_samples, dtype=np.float64)
        second_values = np.empty(num_samples, dtype=np.float64)
        for i in range(num_samples):
            draw = table.row(i)
            first_values[i] = SequentialModel(
                first_transform(draw)
            ).system_failure_probability(profile)
            second_values[i] = SequentialModel(
                second_transform(draw)
            ).system_failure_probability(profile)
        return scenario_win_probability(first_values, second_values)
