"""Field monitoring: detecting when the model's inputs have drifted.

Section 5 lists the ways field conditions depart from the trial: the
demand profile shifts (item 1), reader behaviour evolves (items 2-3), and
the machine's failure probabilities change with maintenance and tuning
(item 4).  A deployed model therefore needs *monitoring*: statistical
alarms that fire when the field's observed records are no longer
consistent with the reference parameters the predictions rest on.

Three monitors, each a plain hypothesis test on field records:

* :func:`profile_drift_test` — chi-square goodness of fit of the observed
  class mix against the reference demand profile;
* :func:`rate_drift_test` — two-sided exact-ish binomial test of one
  observed failure rate against its reference value;
* :func:`monitor_records` — the full sweep: profile plus every per-class
  conditional cell of the reference model, with Bonferroni-adjusted
  verdicts so the combined alarm has the stated false-alarm rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..core.case_class import CaseClass
from ..core.parameters import ModelParameters
from ..core.profile import DemandProfile
from ..exceptions import EstimationError
from ..trial.records import TrialRecords

__all__ = ["DriftTest", "MonitoringReport", "profile_drift_test", "rate_drift_test", "monitor_records"]


def _chi2_survival(statistic: float, dof: int) -> float:
    """P(Chi2_dof >= statistic), by the closed form for integer dof:

        Q(x; 2)   = exp(-x/2)
        Q(x; 1)   = erfc(sqrt(x/2))
        Q(x; k+2) = Q(x; k) + (x/2)^(k/2) * exp(-x/2) / Gamma(k/2 + 1)

    so even dof reduce to a Poisson tail and odd dof to erfc plus a
    half-integer series.  The series matches ``scipy.stats.chi2.sf`` to
    ~1e-12 relative, far tail included, where monitors alarm (see
    ``tests/analysis/test_monitoring.py::TestChi2SurvivalFallback``), so
    the monitors never import scipy.
    """
    if dof < 1:
        raise EstimationError(f"chi-square dof must be >= 1, got {dof!r}")
    if statistic <= 0.0:
        return 1.0
    half = 0.5 * statistic
    if dof % 2 == 0:
        # Q(x; 2m) = e^{-x/2} * sum_{j=0}^{m-1} (x/2)^j / j!
        total = term = math.exp(-half)
        for j in range(1, dof // 2):
            term *= half / j
            total += term
    else:
        # Q(x; 2m+1) = erfc(sqrt(x/2))
        #              + e^{-x/2} * sum_{j=1}^{m} (x/2)^{j-1/2} / Gamma(j+1/2)
        total = math.erfc(math.sqrt(half))
        term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
        for j in range(1, (dof - 1) // 2 + 1):
            if j > 1:
                term *= half / (j - 0.5)
            total += term
    return min(1.0, total)


@dataclass(frozen=True)
class DriftTest:
    """One monitor's outcome.

    Attributes:
        name: What was tested (e.g. ``"profile"``,
            ``"easy/machine_success"``).
        statistic: The test statistic (chi-square or z).
        p_value: Two-sided p-value (upper tail for chi-square).
        observed: The observed summary (rate or None for the profile test).
        reference: The reference value (rate or None).
        sample_size: Observations behind the test.
    """

    name: str
    statistic: float
    p_value: float
    observed: float | None
    reference: float | None
    sample_size: int

    def drifted(self, alpha: float = 0.01) -> bool:
        """Whether the monitor rejects at level ``alpha``."""
        return self.p_value < alpha


def profile_drift_test(
    observed_counts: Mapping[CaseClass, int] | Mapping[str, int],
    reference: DemandProfile,
) -> DriftTest:
    """Chi-square goodness of fit of an observed class mix.

    Args:
        observed_counts: Cases per class observed in the field.
        reference: The demand profile predictions currently assume.

    Raises:
        EstimationError: if no cases were observed, or an observed class
            has zero reference probability (the reference cannot explain
            it at all — that *is* drift, but of a kind the chi-square
            cannot quantify; extend the reference profile first).
    """
    counts: dict[str, int] = {}
    for key, value in observed_counts.items():
        name = key.name if isinstance(key, CaseClass) else str(key)
        counts[name] = counts.get(name, 0) + int(value)
    total = sum(counts.values())
    if total <= 0:
        raise EstimationError("profile drift test needs at least one observed case")
    for name in counts:
        if counts[name] > 0 and reference[name] <= 0.0:
            raise EstimationError(
                f"observed cases of class {name!r} that the reference profile "
                f"gives zero probability; the reference must be extended"
            )
    statistic = 0.0
    dof = -1
    for cls in reference.classes:
        expected = reference[cls] * total
        if expected <= 0.0:
            continue
        observed = counts.get(cls.name, 0)
        statistic += (observed - expected) ** 2 / expected
        dof += 1
    dof = max(dof, 1)
    return DriftTest(
        name="profile",
        statistic=statistic,
        p_value=_chi2_survival(statistic, dof),
        observed=None,
        reference=None,
        sample_size=total,
    )


def rate_drift_test(
    name: str, failures: int, trials: int, reference_rate: float
) -> DriftTest:
    """Two-sided z-test of an observed failure rate against a reference.

    Uses the normal approximation with the reference-rate variance (the
    null hypothesis' variance), which is standard for monitoring charts.
    """
    if trials <= 0:
        raise EstimationError(f"rate drift test needs trials > 0, got {trials!r}")
    if not 0 <= failures <= trials:
        raise EstimationError(f"invalid counts: {failures}/{trials}")
    if not 0.0 <= reference_rate <= 1.0:
        raise EstimationError(f"reference_rate must be in [0, 1], got {reference_rate!r}")
    observed = failures / trials
    variance = reference_rate * (1.0 - reference_rate) / trials
    if variance <= 0.0:
        z = 0.0 if observed == reference_rate else float("inf")
    else:
        z = (observed - reference_rate) / math.sqrt(variance)
    # Two-sided: 2 P(Z >= |z|) = erfc(|z| / sqrt(2)).
    p_value = math.erfc(abs(z) / math.sqrt(2.0)) if math.isfinite(z) else 0.0
    return DriftTest(
        name=name,
        statistic=z,
        p_value=min(1.0, p_value),
        observed=observed,
        reference=reference_rate,
        sample_size=trials,
    )


@dataclass(frozen=True)
class MonitoringReport:
    """All monitors run against one batch of field records.

    Attributes:
        tests: Individual monitor outcomes.
        alpha: The *family-wise* false-alarm rate the report targets.
    """

    tests: tuple[DriftTest, ...]
    alpha: float = 0.01

    @property
    def per_test_alpha(self) -> float:
        """Bonferroni-adjusted level applied to each monitor."""
        return self.alpha / max(len(self.tests), 1)

    @property
    def drifted_tests(self) -> tuple[DriftTest, ...]:
        """Monitors that fired, most significant first."""
        fired = [t for t in self.tests if t.p_value < self.per_test_alpha]
        return tuple(sorted(fired, key=lambda t: t.p_value))

    @property
    def any_drift(self) -> bool:
        """Whether any monitor fired at the family-wise level."""
        return bool(self.drifted_tests)


def monitor_records(
    records: TrialRecords,
    reference_parameters: ModelParameters,
    reference_profile: DemandProfile,
    alpha: float = 0.01,
) -> MonitoringReport:
    """Run the full monitoring sweep over a batch of field records.

    Tests the observed class mix against the reference profile and every
    per-class conditional cell (``PMf``, ``PHf|Mf``, ``PHf|Ms``) against
    the reference parameters, using only aided cancer records (the
    false-negative model's demand space).

    Since the streaming refactor this is literally "feed every record
    into a :class:`~repro.analysis.streaming.StreamingEstimator`, read
    the report once": the estimator keeps the same integer counts the
    old batch scan produced and rebuilds the same tests in the same
    order, so the move to streaming is value-identical (pinned by
    ``tests/analysis/test_streaming.py``).

    Args:
        records: Field reading records (filtered internally).
        reference_parameters: The parameter table predictions assume.
        reference_profile: The demand profile predictions assume.
        alpha: Family-wise false-alarm rate.
    """
    from .streaming import StreamingEstimator  # deferred: streaming imports us

    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha!r}")
    stream = StreamingEstimator()
    stream.ingest_many(records)
    return stream.report(reference_parameters, reference_profile, alpha=alpha)
