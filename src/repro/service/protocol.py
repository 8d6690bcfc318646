"""Request/response vocabulary of the screening service.

Requests reuse the sweep's declarative spec language —
:class:`~repro.sweep.grid.WorkloadSpec` names what workload to run on,
:class:`~repro.sweep.grid.SystemSpec` names what system to evaluate —
so a service request is exactly a scenario cell plus its seed, and the
service can hand it to the same fused engine kernel the sweep runs.

Parsing is strict in the same way grid files are: unknown keys are
rejected loudly (a typoed field silently falling back to a default
would evaluate the wrong scenario), and every request must carry an
explicit integer ``seed`` — the service has no ambient RNG, which is
what makes coalesced responses bit-identical to standalone runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..analysis.monitoring import DriftTest, MonitoringReport
from ..exceptions import EstimationError, SimulationError
from ..sweep.grid import PROFILES, SystemSpec, WorkloadSpec
from ..system.simulate import RateEstimate, SystemEvaluation
from ..trial.records import RecordBatch
from ..trial.storage import records_from_entries

__all__ = [
    "ProtocolError",
    "EvaluateRequest",
    "CompareRequest",
    "UncertaintyRequest",
    "IngestRequest",
    "parse_evaluate_request",
    "parse_compare_request",
    "parse_uncertainty_request",
    "parse_ingest_request",
    "evaluation_payload",
    "interval_payload",
    "drift_test_payload",
    "monitoring_report_payload",
    "MAX_NUM_CASES",
    "MAX_DRAWS",
    "MAX_TRIALS",
]

#: The most work one request may ask for.  The engine thread serves
#: every request in turn, so a request past a limit is refused (400)
#: before any engine work; a compare may also list at most the
#: service's ``max_batch`` systems (checked by
#: :meth:`~repro.service.app.ScreeningService.compare`).
MAX_NUM_CASES = 1_000_000
MAX_DRAWS = 1_000_000
MAX_TRIALS = 10**9


class ProtocolError(SimulationError):
    """A malformed service request (maps to HTTP 400)."""


@dataclass(frozen=True)
class EvaluateRequest:
    """One seeded evaluation of one system over one workload."""

    workload: WorkloadSpec
    system: SystemSpec
    seed: int
    level: float = 0.95
    report: bool = False


@dataclass(frozen=True)
class CompareRequest:
    """Several systems over one workload, sharing one seed (CRN)."""

    workload: WorkloadSpec
    systems: tuple[SystemSpec, ...]
    seed: int
    level: float = 0.95
    report: bool = False


@dataclass(frozen=True)
class IngestRequest:
    """A batch of field case records for the monitoring plane."""

    records: RecordBatch


@dataclass(frozen=True)
class UncertaintyRequest:
    """A posterior credible interval for P(system failure)."""

    profile: str = "trial"
    trials: int = 1000
    draws: int = 10_000
    seed: int = 0
    level: float = 0.95
    report: bool = False


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: Mapping[str, Any], known: set[str], what: str) -> None:
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown {what} keys {sorted(unknown)}; expected {sorted(known)}"
        )


def _parse_seed(payload: Mapping[str, Any]) -> int:
    seed = payload.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError(
            "request 'seed' must be a non-negative integer (the service "
            f"has no ambient RNG), got {seed!r}"
        )
    return seed


def _parse_level(payload: Mapping[str, Any]) -> float:
    level = payload.get("level", 0.95)
    if not isinstance(level, (int, float)) or not 0.0 < float(level) < 1.0:
        raise ProtocolError(f"'level' must be in (0, 1), got {level!r}")
    return float(level)


def _parse_report(payload: Mapping[str, Any]) -> bool:
    report = payload.get("report", False)
    if not isinstance(report, bool):
        raise ProtocolError(f"'report' must be a boolean, got {report!r}")
    return report


def _parse_workload(payload: Mapping[str, Any]) -> WorkloadSpec:
    workload = _require_mapping(payload.get("workload"), "'workload'")
    known = {"population", "profile", "num_cases", "cancer_fraction", "population_seed"}
    _reject_unknown(workload, known, "workload")
    if "population" not in workload:
        raise ProtocolError("'workload' must name a 'population'")
    try:
        # Values pass through as parsed: the spec checks their types.
        spec = WorkloadSpec(**workload)
    except SimulationError as exc:
        raise ProtocolError(f"invalid workload: {exc}") from exc
    if spec.num_cases > MAX_NUM_CASES:
        raise ProtocolError(
            f"'num_cases' must be at most {MAX_NUM_CASES}, got {spec.num_cases!r}"
        )
    return spec


def _parse_system(payload: Any, what: str = "'system'") -> SystemSpec:
    system = _require_mapping(payload, what)
    known = {"kind", "bias", "dynamics", "operating_point"}
    _reject_unknown(system, known, "system")
    try:
        return SystemSpec(**system)
    except SimulationError as exc:
        raise ProtocolError(f"invalid system: {exc}") from exc


def parse_evaluate_request(payload: Any) -> EvaluateRequest:
    """Parse an ``/v1/evaluate`` body; unknown keys are rejected loudly."""
    body = _require_mapping(payload, "evaluate request")
    _reject_unknown(
        body, {"workload", "system", "seed", "level", "report"}, "evaluate request"
    )
    if "system" not in body:
        raise ProtocolError("evaluate request must name a 'system'")
    return EvaluateRequest(
        workload=_parse_workload(body),
        system=_parse_system(body["system"]),
        seed=_parse_seed(body),
        level=_parse_level(body),
        report=_parse_report(body),
    )


def parse_compare_request(payload: Any) -> CompareRequest:
    """Parse a ``/v1/compare`` body; unknown keys are rejected loudly."""
    body = _require_mapping(payload, "compare request")
    _reject_unknown(
        body, {"workload", "systems", "seed", "level", "report"}, "compare request"
    )
    systems = body.get("systems")
    if not isinstance(systems, (list, tuple)) or not systems:
        raise ProtocolError("compare request must list at least one system")
    return CompareRequest(
        workload=_parse_workload(body),
        systems=tuple(
            _parse_system(system, f"systems[{i}]") for i, system in enumerate(systems)
        ),
        seed=_parse_seed(body),
        level=_parse_level(body),
        report=_parse_report(body),
    )


def parse_uncertainty_request(payload: Any) -> UncertaintyRequest:
    """Parse an ``/v1/uncertainty`` body; unknown keys are rejected loudly."""
    body = _require_mapping(payload, "uncertainty request")
    _reject_unknown(
        body,
        {"profile", "trials", "draws", "seed", "level", "report"},
        "uncertainty request",
    )
    profile = body.get("profile", "trial")
    if profile not in PROFILES:
        raise ProtocolError(
            f"unknown profile {profile!r}; expected one of {list(PROFILES)}"
        )
    return UncertaintyRequest(
        profile=profile,
        trials=_parse_count(body, "trials", 1000, MAX_TRIALS),
        draws=_parse_count(body, "draws", 10_000, MAX_DRAWS),
        seed=_parse_seed(body),
        level=_parse_level(body),
        report=_parse_report(body),
    )


def _parse_count(payload: Mapping[str, Any], name: str, default: int, limit: int) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= limit:
        raise ProtocolError(
            f"{name!r} must be an integer in [1, {limit}], got {value!r}"
        )
    return value


def parse_ingest_request(payload: Any) -> IngestRequest:
    """Parse a ``/v1/ingest`` body: a non-empty list of record objects.

    Each record uses the JSON codec of
    :func:`repro.trial.storage.record_to_entry`, decoded straight into
    one :class:`~repro.trial.records.RecordBatch` by
    :func:`~repro.trial.storage.records_from_entries`; a single malformed
    record rejects the whole batch (partial ingestion would leave the
    monitoring counts in a state no client sent), named as
    ``records[i]: <reason>``.
    """
    body = _require_mapping(payload, "ingest request")
    _reject_unknown(body, {"records"}, "ingest request")
    entries = body.get("records")
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ProtocolError("ingest request must list at least one record")
    try:
        return IngestRequest(records=records_from_entries(entries))
    except EstimationError as exc:
        raise ProtocolError(str(exc)) from exc


def _rate_payload(rate: RateEstimate | None) -> dict[str, Any] | None:
    if rate is None:
        return None
    return {
        "failures": rate.failures,
        "trials": rate.trials,
        "rate": rate.rate,
        "lower": rate.interval.lower,
        "upper": rate.interval.upper,
    }


def evaluation_payload(evaluation: SystemEvaluation) -> dict[str, Any]:
    """A :class:`SystemEvaluation` as a JSON-ready response body."""
    return {
        "system": evaluation.system_name,
        "workload": evaluation.workload_name,
        "false_negative": _rate_payload(evaluation.false_negative),
        "false_positive": _rate_payload(evaluation.false_positive),
        "per_class_false_negative": {
            case_class.name: _rate_payload(rate)
            for case_class, rate in sorted(
                evaluation.per_class_false_negative.items(),
                key=lambda pair: pair[0].name,
            )
        },
    }


def drift_test_payload(test: DriftTest, per_test_alpha: float) -> dict[str, Any]:
    """One :class:`DriftTest` as a JSON-ready response fragment."""
    return {
        "name": test.name,
        "statistic": test.statistic,
        "p_value": test.p_value,
        "observed": test.observed,
        "reference": test.reference,
        "sample_size": test.sample_size,
        "drifted": test.drifted(per_test_alpha),
    }


def monitoring_report_payload(report: MonitoringReport) -> dict[str, Any]:
    """A :class:`MonitoringReport` as a JSON-ready response body."""
    per_test_alpha = report.per_test_alpha
    return {
        "alpha": report.alpha,
        "per_test_alpha": per_test_alpha,
        "any_drift": report.any_drift,
        "drifted": [test.name for test in report.drifted_tests],
        "tests": [drift_test_payload(test, per_test_alpha) for test in report.tests],
    }


def interval_payload(interval: Any) -> dict[str, Any]:
    """A credible interval as a JSON-ready response body."""
    return {
        "lower": float(interval.lower),
        "upper": float(interval.upper),
        "mean": float(interval.mean),
        "level": float(interval.level),
    }
