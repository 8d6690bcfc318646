"""Streaming estimation and sequential drift alarms over case records.

The batch monitors in :mod:`repro.analysis.monitoring` need every record
up front and re-scan them per call.  This module is the online
counterpart the ROADMAP's "streaming estimation and drift monitoring"
item calls for: constant-memory, *mergeable* incremental estimators for
the sequential model's per-class cells — ``PMf(x)``, ``PHf|Mf(x)``,
``PHf|Ms(x)``, the importance index ``t(x)`` and the eq.-(10) covariance
decomposition ``cov_x(PMf, t)`` — plus sequential stopping rules (CUSUM
and Wald's SPRT) layered over the same drift statistics the batch tests
use.

Design constraints, in priority order:

1. **Exactness.**  :class:`StreamingEstimator` state is pure integer
   counts, so :meth:`StreamingEstimator.merge` is associative and
   commutative *exactly* — any partition of a record stream into shards,
   merged in any order, reproduces the single-stream state bit for bit —
   and :meth:`StreamingEstimator.report` rebuilds the very same tests
   ``monitor_records`` would have built, so streaming and batch p-values
   are identical floats, not merely close.
2. **Constant memory.**  Nothing here retains records.  The estimator
   keeps four integers per observed class; the alarms keep a handful of
   floats each; :class:`StreamMonitor` additionally keeps one
   per-class snapshot of the counts at the last checkpoint so alarm
   updates see disjoint windows.
3. **No RNG.**  This module is registered as an observability package
   for replint REP006: estimation and alarming never touch random
   state, so wiring a monitor into an engine run cannot perturb seeded
   results.

Float accumulators (Welford/Chan) are deliberately kept *outside* the
mergeable estimator state: parallel variance merging is associative only
up to rounding, and the estimator's merge contract is exact.
:class:`WelfordAccumulator` is provided for signals where "close" is
enough (e.g. the false-prompt volume stream a :class:`StreamMonitor`
tracks locally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.parameters import ModelParameters
from ..core.profile import DemandProfile
from ..core.sequential import CovarianceDecomposition
from ..exceptions import EstimationError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..trial.records import CaseRecord
from .monitoring import MonitoringReport, _chi2, profile_drift_test, rate_drift_test

__all__ = [
    "ESTIMATOR_STATE_SCHEMA",
    "MONITOR_SNAPSHOT_SCHEMA",
    "ClassCell",
    "ClassEstimate",
    "CusumAlarm",
    "SprtAlarm",
    "StreamMonitor",
    "StreamingEstimator",
    "WelfordAccumulator",
]

#: Schema version stamped on :meth:`StreamingEstimator.state` payloads.
ESTIMATOR_STATE_SCHEMA = 1


@dataclass
class ClassCell:
    """The four integer counts behind one class's conditional cells.

    Attributes:
        records: Aided cancer records observed for the class.
        machine_failures: How many of them the machine failed on (``Mf``).
        human_failures_given_mf: Reader failures among the ``Mf`` records.
        human_failures_given_ms: Reader failures among the ``Ms`` records.
    """

    records: int = 0
    machine_failures: int = 0
    human_failures_given_mf: int = 0
    human_failures_given_ms: int = 0

    @property
    def machine_successes(self) -> int:
        """Records the machine succeeded on (``Ms``)."""
        return self.records - self.machine_failures

    def add(self, record: CaseRecord) -> None:
        """Fold one aided cancer record into the counts."""
        self.records += 1
        if record.machine_failed:
            self.machine_failures += 1
            if record.system_failed:
                self.human_failures_given_mf += 1
        elif record.system_failed:
            self.human_failures_given_ms += 1

    def merge(self, other: "ClassCell") -> None:
        """Fold another cell's counts into this one (exact: integer sums)."""
        self.records += other.records
        self.machine_failures += other.machine_failures
        self.human_failures_given_mf += other.human_failures_given_mf
        self.human_failures_given_ms += other.human_failures_given_ms

    def minus(self, earlier: "ClassCell") -> "ClassCell":
        """The window of counts accumulated since ``earlier``."""
        return ClassCell(
            records=self.records - earlier.records,
            machine_failures=self.machine_failures - earlier.machine_failures,
            human_failures_given_mf=(
                self.human_failures_given_mf - earlier.human_failures_given_mf
            ),
            human_failures_given_ms=(
                self.human_failures_given_ms - earlier.human_failures_given_ms
            ),
        )

    def copy(self) -> "ClassCell":
        """An independent copy of the counts."""
        return ClassCell(
            records=self.records,
            machine_failures=self.machine_failures,
            human_failures_given_mf=self.human_failures_given_mf,
            human_failures_given_ms=self.human_failures_given_ms,
        )

    def validate(self, name: str) -> None:
        """Check internal count consistency (for deserialised states)."""
        counts = (
            self.records,
            self.machine_failures,
            self.human_failures_given_mf,
            self.human_failures_given_ms,
        )
        if any(not isinstance(c, int) or c < 0 for c in counts):
            raise EstimationError(f"cell {name!r} has negative or non-integer counts")
        if self.machine_failures > self.records:
            raise EstimationError(f"cell {name!r}: machine_failures > records")
        if self.human_failures_given_mf > self.machine_failures:
            raise EstimationError(f"cell {name!r}: failures given Mf exceed Mf trials")
        if self.human_failures_given_ms > self.machine_successes:
            raise EstimationError(f"cell {name!r}: failures given Ms exceed Ms trials")


@dataclass(frozen=True)
class ClassEstimate:
    """Point estimates for one class, derived from a :class:`ClassCell`.

    Conditional rates are ``None`` while their denominator is empty — a
    class whose machine never failed yet simply has no ``PHf|Mf``
    estimate, and the importance index needs both conditionals.
    """

    name: str
    records: int
    p_machine_failure: float
    p_human_failure_given_machine_failure: float | None
    p_human_failure_given_machine_success: float | None

    @property
    def importance_index(self) -> float | None:
        """``t(x) = PHf|Mf(x) - PHf|Ms(x)``; ``None`` until estimable."""
        if (
            self.p_human_failure_given_machine_failure is None
            or self.p_human_failure_given_machine_success is None
        ):
            return None
        return (
            self.p_human_failure_given_machine_failure
            - self.p_human_failure_given_machine_success
        )

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready mapping of the estimate."""
        return {
            "name": self.name,
            "records": self.records,
            "p_machine_failure": self.p_machine_failure,
            "p_human_failure_given_machine_failure": (
                self.p_human_failure_given_machine_failure
            ),
            "p_human_failure_given_machine_success": (
                self.p_human_failure_given_machine_success
            ),
            "importance_index": self.importance_index,
        }


class StreamingEstimator:
    """Constant-memory, exactly mergeable estimator of the model's cells.

    Feed it case records one at a time (:meth:`ingest`) or in bulk
    (:meth:`ingest_many`); it keeps integer counts per observed class for
    the aided cancer records — the false-negative model's demand space,
    the same filter ``monitor_records`` applies — and can at any moment
    produce per-class estimates, the eq.-(10) covariance decomposition,
    or a full :class:`~repro.analysis.monitoring.MonitoringReport`
    identical to the batch path's.

    Shard- or worker-local estimators fold together with :meth:`merge`,
    which is exact (integer addition), so any partition of a stream gives
    the same state as single-stream ingestion.
    """

    __slots__ = ("_cells", "_records_seen", "_records_used")

    def __init__(self) -> None:
        self._cells: dict[str, ClassCell] = {}
        self._records_seen = 0
        self._records_used = 0

    # -- ingestion -----------------------------------------------------------

    def ingest(self, record: CaseRecord) -> bool:
        """Fold one record in; returns whether it entered the estimate.

        Only aided cancer records carry information about the
        false-negative cells; everything else is counted as *seen* and
        dropped.
        """
        if not isinstance(record, CaseRecord):
            raise EstimationError(
                f"expected CaseRecord, got {type(record).__name__}"
            )
        self._records_seen += 1
        if not (record.aided and record.has_cancer):
            return False
        name = record.case_class.name
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = ClassCell()
        cell.add(record)
        self._records_used += 1
        return True

    def ingest_many(self, records: Iterable[CaseRecord]) -> int:
        """Fold many records in; returns how many entered the estimate."""
        used = 0
        for record in records:
            if self.ingest(record):
                used += 1
        return used

    # -- merging -------------------------------------------------------------

    def merge(self, other: "StreamingEstimator") -> "StreamingEstimator":
        """Fold another estimator's state into this one, in place.

        Exact: the state is integer counts, so merging is associative
        and commutative bit for bit.  Returns ``self`` for chaining.
        """
        if not isinstance(other, StreamingEstimator):
            raise EstimationError(
                f"can only merge StreamingEstimator, got {type(other).__name__}"
            )
        self._records_seen += other._records_seen
        self._records_used += other._records_used
        for name, cell in other._cells.items():
            mine = self._cells.get(name)
            if mine is None:
                self._cells[name] = cell.copy()
            else:
                mine.merge(cell)
        return self

    def copy(self) -> "StreamingEstimator":
        """An independent copy of the estimator state."""
        clone = StreamingEstimator()
        clone.merge(self)
        return clone

    # -- state (serialisable, for journals and service snapshots) ------------

    def state(self) -> dict[str, object]:
        """A JSON-ready, mergeable snapshot of the integer state."""
        return {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "records_seen": self._records_seen,
            "records_used": self._records_used,
            "cells": {
                name: {
                    "records": cell.records,
                    "machine_failures": cell.machine_failures,
                    "human_failures_given_mf": cell.human_failures_given_mf,
                    "human_failures_given_ms": cell.human_failures_given_ms,
                }
                for name, cell in sorted(self._cells.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingEstimator":
        """Rebuild an estimator from a :meth:`state` payload."""
        if not isinstance(state, Mapping):
            raise EstimationError(
                f"estimator state must be a mapping, got {type(state).__name__}"
            )
        schema = state.get("schema")
        if schema != ESTIMATOR_STATE_SCHEMA:
            raise EstimationError(
                f"unsupported estimator state schema {schema!r} "
                f"(expected {ESTIMATOR_STATE_SCHEMA})"
            )
        estimator = cls()
        cells = state.get("cells", {})
        if not isinstance(cells, Mapping):
            raise EstimationError("estimator state 'cells' must be a mapping")
        used = 0
        for name, payload in cells.items():
            if not isinstance(payload, Mapping):
                raise EstimationError(f"cell {name!r} state must be a mapping")
            cell = ClassCell(
                records=payload.get("records", 0),
                machine_failures=payload.get("machine_failures", 0),
                human_failures_given_mf=payload.get("human_failures_given_mf", 0),
                human_failures_given_ms=payload.get("human_failures_given_ms", 0),
            )
            cell.validate(str(name))
            estimator._cells[str(name)] = cell
            used += cell.records
        records_used = state.get("records_used", used)
        records_seen = state.get("records_seen", used)
        if records_used != used:
            raise EstimationError(
                f"estimator state records_used={records_used!r} does not match "
                f"the cell totals ({used})"
            )
        if not isinstance(records_seen, int) or records_seen < used:
            raise EstimationError(
                f"estimator state records_seen={records_seen!r} is fewer than "
                f"the records used ({used})"
            )
        estimator._records_used = used
        estimator._records_seen = records_seen
        return estimator

    # -- inspection ----------------------------------------------------------

    @property
    def records_seen(self) -> int:
        """All records offered to :meth:`ingest`, used or not."""
        return self._records_seen

    @property
    def records_used(self) -> int:
        """Aided cancer records folded into the estimate."""
        return self._records_used

    @property
    def class_names(self) -> tuple[str, ...]:
        """Observed class names, sorted."""
        return tuple(sorted(self._cells))

    def cell(self, name: str) -> ClassCell:
        """The raw counts for one observed class."""
        try:
            return self._cells[name]
        except KeyError:
            raise EstimationError(f"no records observed for class {name!r}") from None

    def class_counts(self) -> dict[str, int]:
        """Records per observed class (the profile test's input)."""
        return {name: cell.records for name, cell in sorted(self._cells.items())}

    def estimates(self) -> dict[str, ClassEstimate]:
        """Per-class point estimates for every observed class."""
        result: dict[str, ClassEstimate] = {}
        for name in sorted(self._cells):
            cell = self._cells[name]
            result[name] = ClassEstimate(
                name=name,
                records=cell.records,
                p_machine_failure=cell.machine_failures / cell.records,
                p_human_failure_given_machine_failure=(
                    cell.human_failures_given_mf / cell.machine_failures
                    if cell.machine_failures > 0
                    else None
                ),
                p_human_failure_given_machine_success=(
                    cell.human_failures_given_ms / cell.machine_successes
                    if cell.machine_successes > 0
                    else None
                ),
            )
        return result

    def covariance_decomposition(self) -> CovarianceDecomposition | None:
        """The empirical eq.-(10) decomposition, or ``None`` until estimable.

        Uses the empirical demand profile ``p̂(x) = n_x / N`` over the
        observed classes.  Every observed class must have at least one
        machine failure *and* one machine success, else some conditional
        cell — and hence ``t(x)`` — has no estimate yet.
        """
        if self._records_used == 0:
            return None
        estimates = self.estimates()
        if any(e.importance_index is None for e in estimates.values()):
            return None
        total = float(self._records_used)
        floor = 0.0
        mean_pmf = 0.0
        mean_t = 0.0
        for estimate in estimates.values():
            weight = estimate.records / total
            floor += weight * estimate.p_human_failure_given_machine_success
            mean_pmf += weight * estimate.p_machine_failure
            mean_t += weight * estimate.importance_index
        covariance = 0.0
        for estimate in estimates.values():
            weight = estimate.records / total
            covariance += (
                weight
                * (estimate.p_machine_failure - mean_pmf)
                * (estimate.importance_index - mean_t)
            )
        return CovarianceDecomposition(
            expected_human_failure_given_machine_success=floor,
            mean_machine_failure=mean_pmf,
            mean_importance=mean_t,
            covariance=covariance,
        )

    # -- batch-identical reporting -------------------------------------------

    def report(
        self,
        reference_parameters: ModelParameters,
        reference_profile: DemandProfile,
        alpha: float = 0.01,
    ) -> MonitoringReport:
        """The full monitoring sweep over everything ingested so far.

        Builds exactly the tests ``monitor_records`` builds — profile
        first, then per sorted class ``PMf`` always and each conditional
        cell whenever its denominator is non-empty — from the same
        integer counts, so the statistics and p-values are identical
        floats to the batch path's.
        """
        if not 0.0 < alpha < 1.0:
            raise EstimationError(f"alpha must be in (0, 1), got {alpha!r}")
        if self._records_used == 0:
            raise EstimationError("no aided cancer records to monitor")
        tests = [profile_drift_test(self.class_counts(), reference_profile)]
        for name in sorted(self._cells):
            if name not in reference_parameters:
                raise EstimationError(
                    f"field records contain class {name!r} absent from "
                    f"the reference parameters"
                )
            reference = reference_parameters[name]
            cell = self._cells[name]
            tests.append(
                rate_drift_test(
                    f"{name}/PMf",
                    cell.machine_failures,
                    cell.records,
                    reference.p_machine_failure,
                )
            )
            if cell.machine_failures > 0:
                tests.append(
                    rate_drift_test(
                        f"{name}/PHf|Mf",
                        cell.human_failures_given_mf,
                        cell.machine_failures,
                        reference.p_human_failure_given_machine_failure,
                    )
                )
            if cell.machine_successes > 0:
                tests.append(
                    rate_drift_test(
                        f"{name}/PHf|Ms",
                        cell.human_failures_given_ms,
                        cell.machine_successes,
                        reference.p_human_failure_given_machine_success,
                    )
                )
        return MonitoringReport(tests=tuple(tests), alpha=alpha)


class WelfordAccumulator:
    """Streaming mean/variance (Welford), mergeable via Chan's formula.

    Kept outside :class:`StreamingEstimator` on purpose: the parallel
    merge is associative only up to floating-point rounding, so it must
    not sit inside state whose merge contract is exact.  Use it for
    signals where a relative-epsilon match across shard orders is fine.
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def merge(self, other: "WelfordAccumulator") -> "WelfordAccumulator":
        """Fold another accumulator in (Chan et al. parallel update)."""
        if other._count == 0:
            return self
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            return self
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        return self

    @property
    def count(self) -> int:
        """Observations folded in."""
        return self._count

    @property
    def mean(self) -> float:
        """Streaming mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator; 0.0 below two observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def state(self) -> dict[str, float]:
        """A JSON-ready summary."""
        return {"count": self._count, "mean": self._mean, "variance": self.variance}


class CusumAlarm:
    """Two-sided tabular CUSUM over a stream of z-statistics.

    Accumulates ``S+ = max(0, S+ + z - drift)`` and
    ``S- = max(0, S- - z - drift)`` and fires when either exceeds
    ``threshold``.  With standardised inputs the classic chart is
    ``drift ~ 0.5`` (half the shift worth detecting, in sigma) and
    ``threshold ~ 4-5``.  After firing, the sums restart at zero but the
    :attr:`tripped` latch stays set until :meth:`reset`, so an operator
    reading a snapshot minutes later still sees the alarm.
    """

    __slots__ = ("name", "threshold", "drift", "positive", "negative", "fires", "tripped")

    def __init__(self, name: str, *, threshold: float = 5.0, drift: float = 0.5) -> None:
        if not threshold > 0.0:
            raise EstimationError(f"cusum threshold must be > 0, got {threshold!r}")
        if drift < 0.0:
            raise EstimationError(f"cusum drift must be >= 0, got {drift!r}")
        self.name = name
        self.threshold = float(threshold)
        self.drift = float(drift)
        self.positive = 0.0
        self.negative = 0.0
        self.fires = 0
        self.tripped = False

    def update(self, z: float) -> bool:
        """Fold one standardised statistic in; returns whether it fired."""
        z = float(z)
        if not math.isfinite(z):
            # An infinite z (reference rate 0 or 1 contradicted by the
            # window) is unambiguous drift: trip immediately.
            z = math.copysign(self.threshold + self.drift, z)
        self.positive = max(0.0, self.positive + z - self.drift)
        self.negative = max(0.0, self.negative - z - self.drift)
        if self.positive >= self.threshold or self.negative >= self.threshold:
            self.positive = 0.0
            self.negative = 0.0
            self.fires += 1
            self.tripped = True
            return True
        return False

    def reset(self) -> None:
        """Clear the sums and the tripped latch (fires stays)."""
        self.positive = 0.0
        self.negative = 0.0
        self.tripped = False

    def state(self) -> dict[str, object]:
        """A JSON-ready snapshot of the chart."""
        return {
            "name": self.name,
            "kind": "cusum",
            "threshold": self.threshold,
            "drift": self.drift,
            "positive": self.positive,
            "negative": self.negative,
            "fires": self.fires,
            "tripped": self.tripped,
        }


class SprtAlarm:
    """Wald's sequential probability ratio test for one Bernoulli rate.

    Accumulates the log-likelihood ratio of ``H1: rate = p1`` against
    ``H0: rate = p0`` over batches of (failures, trials).  Crossing the
    upper boundary ``log((1-beta)/alpha)`` fires the alarm (and sets the
    :attr:`tripped` latch); crossing the lower boundary
    ``log(beta/(1-alpha))`` accepts the null.  Either way the walk
    restarts, so the alarm keeps watching an indefinite stream.
    """

    __slots__ = (
        "name",
        "p0",
        "p1",
        "alpha",
        "beta",
        "llr",
        "fires",
        "tripped",
        "_log_fail",
        "_log_pass",
        "_upper",
        "_lower",
    )

    def __init__(
        self,
        name: str,
        p0: float,
        p1: float,
        *,
        alpha: float = 0.01,
        beta: float = 0.10,
    ) -> None:
        if not 0.0 < p0 < 1.0 or not 0.0 < p1 < 1.0:
            raise EstimationError(
                f"sprt rates must be in (0, 1), got p0={p0!r}, p1={p1!r}"
            )
        if p0 == p1:
            raise EstimationError("sprt needs p1 != p0")
        if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
            raise EstimationError(
                f"sprt error rates must be in (0, 1), got alpha={alpha!r}, beta={beta!r}"
            )
        self.name = name
        self.p0 = float(p0)
        self.p1 = float(p1)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.llr = 0.0
        self.fires = 0
        self.tripped = False
        self._log_fail = math.log(p1 / p0)
        self._log_pass = math.log((1.0 - p1) / (1.0 - p0))
        self._upper = math.log((1.0 - beta) / alpha)
        self._lower = math.log(beta / (1.0 - alpha))

    def update(self, failures: int, trials: int) -> bool:
        """Fold one window of counts in; returns whether it fired."""
        if trials < 0 or not 0 <= failures <= trials:
            raise EstimationError(f"invalid sprt window: {failures}/{trials}")
        if trials == 0:
            return False
        self.llr += failures * self._log_fail + (trials - failures) * self._log_pass
        if self.llr >= self._upper:
            self.llr = 0.0
            self.fires += 1
            self.tripped = True
            return True
        if self.llr <= self._lower:
            self.llr = 0.0
        return False

    def reset(self) -> None:
        """Clear the walk and the tripped latch (fires stays)."""
        self.llr = 0.0
        self.tripped = False

    def state(self) -> dict[str, object]:
        """A JSON-ready snapshot of the walk."""
        return {
            "name": self.name,
            "kind": "sprt",
            "p0": self.p0,
            "p1": self.p1,
            "alpha": self.alpha,
            "beta": self.beta,
            "llr": self.llr,
            "upper": self._upper,
            "lower": self._lower,
            "fires": self.fires,
            "tripped": self.tripped,
        }


#: Monitoring-plane snapshot schema (see :meth:`StreamMonitor.snapshot`).
MONITOR_SNAPSHOT_SCHEMA = 1


class StreamMonitor:
    """The live monitoring plane: estimator + sequential alarms + metrics.

    Wraps a :class:`StreamingEstimator` with the reference model the
    stream is judged against, runs a checkpoint every ``check_every``
    *used* records, and at each checkpoint feeds the window's counts
    (not the cumulative ones — windows are disjoint, as the sequential
    theory assumes) into per-monitor alarms:

    - a two-sided :class:`CusumAlarm` per rate monitor
      (``<class>/PMf``, ``<class>/PHf|Mf``, ``<class>/PHf|Ms``) over the
      window's standardised z-statistic;
    - a :class:`SprtAlarm` per class over the ``PMf`` count stream,
      testing the reference rate against ``sprt_drift_factor`` times it.

    Alarm state is published through ``repro.obs``: gauges
    (``monitor.records_used``, ``monitor.alarms.tripped``, the live
    covariance terms), counters (``monitor.checkpoints``,
    ``monitor.alarms.fired``, ``monitor.unknown_class``), and timeline
    marks (``monitor.alarm.<name>``) for "what changed and when"
    forensics.  With the default null instrumentation all of that is
    free; the estimator still works.

    Records of classes absent from the reference are counted and
    excluded from alarming rather than raising: a live plane must not
    die mid-stream, and the batch :meth:`report` still raises for them
    when asked.
    """

    def __init__(
        self,
        reference_parameters: ModelParameters,
        reference_profile: DemandProfile,
        *,
        alpha: float = 0.01,
        check_every: int = 256,
        cusum_threshold: float = 5.0,
        cusum_drift: float = 0.5,
        sprt_drift_factor: float = 2.0,
        sprt_alpha: float = 0.01,
        sprt_beta: float = 0.10,
        obs: Instrumentation | None = None,
    ) -> None:
        if not isinstance(reference_parameters, ModelParameters):
            raise EstimationError(
                f"reference_parameters must be ModelParameters, "
                f"got {type(reference_parameters).__name__}"
            )
        if not isinstance(reference_profile, DemandProfile):
            raise EstimationError(
                f"reference_profile must be DemandProfile, "
                f"got {type(reference_profile).__name__}"
            )
        if not 0.0 < alpha < 1.0:
            raise EstimationError(f"alpha must be in (0, 1), got {alpha!r}")
        if not isinstance(check_every, int) or check_every < 1:
            raise EstimationError(f"check_every must be an int >= 1, got {check_every!r}")
        if sprt_drift_factor <= 0.0 or sprt_drift_factor == 1.0:
            raise EstimationError(
                f"sprt_drift_factor must be positive and != 1, got {sprt_drift_factor!r}"
            )
        # The drift tests' p-values need scipy's chi-square: import it
        # with the monitor, not inside the first report mid-stream.
        _chi2()
        self.reference_parameters = reference_parameters
        self.reference_profile = reference_profile
        self.alpha = float(alpha)
        self.check_every = check_every
        self._cusum_threshold = float(cusum_threshold)
        self._cusum_drift = float(cusum_drift)
        self._sprt_drift_factor = float(sprt_drift_factor)
        self._sprt_alpha = float(sprt_alpha)
        self._sprt_beta = float(sprt_beta)
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._estimator = StreamingEstimator()
        self._last_cells: dict[str, ClassCell] = {}
        self._last_checkpoint_used = 0
        self._checkpoints = 0
        self._cusum: dict[str, CusumAlarm] = {}
        self._sprt: dict[str, SprtAlarm] = {}
        self._false_prompts = WelfordAccumulator()
        self._unknown_classes: set[str] = set()

    # -- ingestion -----------------------------------------------------------

    @property
    def estimator(self) -> StreamingEstimator:
        """The underlying mergeable estimator."""
        return self._estimator

    def ingest(self, records: Iterable[CaseRecord]) -> int:
        """Feed records through the plane; returns how many were used."""
        # Hot loop: hoist the per-record attribute chains into locals so
        # the plane stays within the BENCH_monitor overhead budget.
        estimator = self._estimator
        ingest_one = estimator.ingest
        prompts_add = self._false_prompts.add
        check_every = self.check_every
        total = estimator.records_used
        last_used = self._last_checkpoint_used
        used = 0
        for record in records:
            if record.aided and record.machine_false_prompts is not None:
                prompts_add(record.machine_false_prompts)
            if ingest_one(record):
                used += 1
                total += 1
                if total - last_used >= check_every:
                    self._checkpoint()
                    last_used = self._last_checkpoint_used
        self._publish_volume()
        return used

    def merge_estimator_state(self, state: Mapping[str, object]) -> None:
        """Fold a shard's :meth:`StreamingEstimator.state` payload in.

        Runs a checkpoint if the merged counts crossed the boundary, so
        alarms see the folded window too.
        """
        self._estimator.merge(StreamingEstimator.from_state(state))
        if (
            self._estimator.records_used - self._last_checkpoint_used
            >= self.check_every
        ):
            self._checkpoint()
        self._publish_volume()

    # -- checkpointing -------------------------------------------------------

    def _publish_volume(self) -> None:
        self._obs.gauge("monitor.records_seen", self._estimator.records_seen)
        self._obs.gauge("monitor.records_used", self._estimator.records_used)

    def _window_tests(self, name: str, window: ClassCell):
        reference = self.reference_parameters[name]
        yield "PMf", window.machine_failures, window.records, reference.p_machine_failure
        yield (
            "PHf|Mf",
            window.human_failures_given_mf,
            window.machine_failures,
            reference.p_human_failure_given_machine_failure,
        )
        yield (
            "PHf|Ms",
            window.human_failures_given_ms,
            window.machine_successes,
            reference.p_human_failure_given_machine_success,
        )

    def _checkpoint(self) -> None:
        self._checkpoints += 1
        self._obs.count("monitor.checkpoints")
        fired = 0
        for name in self._estimator.class_names:
            cell = self._estimator.cell(name)
            window = cell.minus(self._last_cells.get(name, ClassCell()))
            if name not in self.reference_parameters:
                if name not in self._unknown_classes:
                    self._unknown_classes.add(name)
                    self._obs.count("monitor.unknown_class")
                continue
            for suffix, failures, trials, rate in self._window_tests(name, window):
                if trials <= 0:
                    continue
                key = f"{name}/{suffix}"
                statistic = rate_drift_test(key, failures, trials, rate).statistic
                alarm = self._cusum.get(key)
                if alarm is None:
                    alarm = self._cusum[key] = CusumAlarm(
                        key,
                        threshold=self._cusum_threshold,
                        drift=self._cusum_drift,
                    )
                if alarm.update(statistic):
                    fired += 1
                    self._obs.mark(f"monitor.alarm.{key}", alarm.fires)
            rate = self.reference_parameters[name].p_machine_failure
            drifted_rate = min(self._sprt_drift_factor * rate, 1.0 - 1e-12)
            if 0.0 < rate < 1.0 and 0.0 < drifted_rate < 1.0 and drifted_rate != rate:
                key = f"{name}/PMf"
                sprt = self._sprt.get(key)
                if sprt is None:
                    sprt = self._sprt[key] = SprtAlarm(
                        key,
                        rate,
                        drifted_rate,
                        alpha=self._sprt_alpha,
                        beta=self._sprt_beta,
                    )
                if window.records > 0 and sprt.update(
                    window.machine_failures, window.records
                ):
                    fired += 1
                    self._obs.mark(f"monitor.alarm.sprt.{key}", sprt.fires)
        if fired:
            self._obs.count("monitor.alarms.fired", fired)
        if self._obs.enabled:
            # The decomposition exists only to feed gauges; don't pay for
            # the per-class estimate rebuild when nobody is listening.
            self._obs.gauge("monitor.alarms.tripped", self.tripped_alarms)
            decomposition = self._estimator.covariance_decomposition()
            if decomposition is not None:
                self._obs.gauge("monitor.cov_pmf_t", decomposition.covariance)
                self._obs.gauge("monitor.p_system_failure", decomposition.total)
            self._obs.mark("monitor.checkpoint", self._estimator.records_used)
        self._last_cells = {
            name: self._estimator.cell(name).copy()
            for name in self._estimator.class_names
        }
        self._last_checkpoint_used = self._estimator.records_used

    # -- inspection ----------------------------------------------------------

    @property
    def checkpoints(self) -> int:
        """Checkpoints run so far."""
        return self._checkpoints

    @property
    def tripped_alarms(self) -> int:
        """Alarms currently in the tripped state (latched)."""
        alarms: list[CusumAlarm | SprtAlarm] = [*self._cusum.values(), *self._sprt.values()]
        return sum(1 for alarm in alarms if alarm.tripped)

    @property
    def fired_alarms(self) -> int:
        """Total alarm firings over the stream's lifetime."""
        alarms: list[CusumAlarm | SprtAlarm] = [*self._cusum.values(), *self._sprt.values()]
        return sum(alarm.fires for alarm in alarms)

    def reset_alarms(self) -> None:
        """Acknowledge every alarm: clear sums, walks, and latches."""
        for alarm in self._cusum.values():
            alarm.reset()
        for sprt in self._sprt.values():
            sprt.reset()
        self._obs.gauge("monitor.alarms.tripped", 0)

    def report(self, alpha: float | None = None) -> MonitoringReport:
        """The batch-identical monitoring report over everything ingested."""
        return self._estimator.report(
            self.reference_parameters,
            self.reference_profile,
            alpha=self.alpha if alpha is None else alpha,
        )

    def snapshot(self) -> dict[str, object]:
        """A JSON-ready snapshot of the whole plane (no report: cheap)."""
        decomposition = self._estimator.covariance_decomposition()
        return {
            "schema": MONITOR_SNAPSHOT_SCHEMA,
            "records": {
                "seen": self._estimator.records_seen,
                "used": self._estimator.records_used,
            },
            "checkpoints": self._checkpoints,
            "check_every": self.check_every,
            "alpha": self.alpha,
            "estimates": {
                name: estimate.as_dict()
                for name, estimate in self._estimator.estimates().items()
            },
            "covariance": (
                None
                if decomposition is None
                else {
                    "expected_human_failure_given_machine_success": (
                        decomposition.expected_human_failure_given_machine_success
                    ),
                    "mean_machine_failure": decomposition.mean_machine_failure,
                    "mean_importance": decomposition.mean_importance,
                    "covariance": decomposition.covariance,
                    "total": decomposition.total,
                }
            ),
            "false_prompts": self._false_prompts.state(),
            "alarms": {
                "tripped": self.tripped_alarms,
                "fired": self.fired_alarms,
                "cusum": {key: a.state() for key, a in sorted(self._cusum.items())},
                "sprt": {key: a.state() for key, a in sorted(self._sprt.items())},
            },
            "unknown_classes": sorted(self._unknown_classes),
        }
