"""The always-on screening service: coalescing HTTP front-end.

Wraps one persistent :class:`~repro.engine.runtime.EngineRuntime` in a
long-lived ``asyncio`` service.  Concurrent ``evaluate``/``compare``
requests sharing a workload fingerprint coalesce into single fused
engine dispatches (:mod:`repro.service.batcher` →
:mod:`repro.engine.fused`), bit-identical per request to standalone
execution.  A live monitoring plane (``/v1/ingest`` → ``/v1/monitor``)
streams field records into :class:`~repro.analysis.streaming.StreamMonitor`
for incremental estimates and sequential drift alarms.  See
``docs/service.md`` for endpoints, the determinism contract under
coalescing, and quota/backpressure behaviour, and ``docs/monitoring.md``
for the monitoring plane.
"""

from .app import (
    QuotaExceededError,
    ScreeningService,
    ServiceConfig,
    ServiceError,
    ServiceUnavailableError,
    serve,
)
from .batcher import MicroBatcher
from .cache import WorkloadCache
from .protocol import (
    MAX_DRAWS,
    MAX_NUM_CASES,
    MAX_TRIALS,
    CompareRequest,
    EvaluateRequest,
    IngestRequest,
    ProtocolError,
    UncertaintyRequest,
    drift_test_payload,
    evaluation_payload,
    interval_payload,
    monitoring_report_payload,
    parse_compare_request,
    parse_evaluate_request,
    parse_ingest_request,
    parse_uncertainty_request,
)
from .quotas import QuotaManager, TokenBucket

__all__ = [
    "ScreeningService",
    "ServiceConfig",
    "ServiceError",
    "QuotaExceededError",
    "ServiceUnavailableError",
    "serve",
    "MicroBatcher",
    "WorkloadCache",
    "QuotaManager",
    "TokenBucket",
    "ProtocolError",
    "EvaluateRequest",
    "CompareRequest",
    "UncertaintyRequest",
    "IngestRequest",
    "parse_evaluate_request",
    "parse_compare_request",
    "parse_uncertainty_request",
    "parse_ingest_request",
    "MAX_NUM_CASES",
    "MAX_DRAWS",
    "MAX_TRIALS",
    "evaluation_payload",
    "interval_payload",
    "drift_test_payload",
    "monitoring_report_payload",
]
