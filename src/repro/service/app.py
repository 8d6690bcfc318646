"""The always-on screening service: coalescing front-end, one runtime.

Architecture::

    clients ──HTTP/JSON──▶ handlers ──▶ quotas/backpressure
                                           │ admitted
                                           ▼
                                     MicroBatcher      (per workload key)
                                           │ fused batch
                                           ▼
                                 single engine thread ──▶ EngineRuntime
                                           │          (in-process, or pool
                                           ▼           + shm when multi-chunk)
                          FailureTally(classes, row) per request

Every engine interaction — workload build, fused dispatch — runs on one
dedicated thread (``EngineRuntime`` is not thread-safe), fed by the
event loop through the micro-batcher.  Requests sharing a workload
fingerprint fuse into one dispatch; each carries its own seed,
and :func:`repro.engine.fused.run_fused_batch` derives per-item chunk
generators from ``(seed, chunk_size)`` alone, so a coalesced response is
bit-identical to the same request evaluated standalone (pinned by
``tests/service/test_coalescing.py``).

Admission control is layered in front: per-tenant token buckets
(:class:`~repro.service.quotas.QuotaManager` → HTTP 429) and a global
queue-depth bound (HTTP 503), both with ``Retry-After`` hints, plus a
draining state that rejects new work while letting in-flight batches
finish.

A live monitoring plane rides alongside the evaluation path: field
records stream in through ``POST /v1/ingest`` and feed a
:class:`~repro.analysis.streaming.StreamMonitor` (incremental estimates
of the paper's per-class rates, sequential CUSUM/SPRT drift alarms);
``GET /v1/monitor`` returns the live snapshot plus the batch-identical
drift report, ``GET /healthz`` carries the tripped-alarm count, and
``GET /v1/metrics?format=prometheus`` renders the metrics registry in
Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Collection, Sequence
from urllib.parse import parse_qs

import numpy as np

from ..analysis.streaming import StreamMonitor
from ..core import (
    PAPER_FIELD_PROFILE,
    PAPER_TRIAL_PROFILE,
    CredibleInterval,
    UncertainModel,
    paper_example_parameters,
)
from ..engine.executor import DEFAULT_CHUNK_SIZE
from ..engine.runtime import EngineRuntime
from ..exceptions import EstimationError, SimulationError
from ..obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    build_run_report,
    prometheus_text,
)
from ..screening.classifier import DEFAULT_CLASSIFIER, CaseClassifier
from ..sweep.grid import SystemSpec, WorkloadSpec
from ..system.simulate import FailureTally, SystemEvaluation
from ..trial.records import CaseRecord, RecordBatch
from .batcher import MicroBatcher
from .cache import WorkloadCache
from .protocol import (
    ProtocolError,
    evaluation_payload,
    interval_payload,
    monitoring_report_payload,
    parse_compare_request,
    parse_evaluate_request,
    parse_ingest_request,
    parse_uncertainty_request,
)
from .quotas import QuotaManager

__all__ = [
    "ServiceConfig",
    "ServiceError",
    "QuotaExceededError",
    "ServiceUnavailableError",
    "ScreeningService",
    "serve",
]

_LOG = logging.getLogger(__name__)


class ServiceError(SimulationError):
    """A service-level rejection with an HTTP status."""

    status = 400


class QuotaExceededError(ServiceError):
    """Tenant over its token-bucket quota (HTTP 429)."""

    status = 429

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is over quota; retry after {retry_after:.3f}s"
        )
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """Service saturated or draining (HTTP 503)."""

    status = 503

    def __init__(self, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(reason)
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Attributes:
        workers: Engine pool size (1 = in-process dispatch).  A batch
            whose workload fits one chunk runs in-process either way;
            the pool starts on the first batch spanning several chunks.
        max_batch: Batch-size bound; a full group dispatches immediately
            (other groups dispatch as soon as the engine is idle).
        chunk_size: Engine chunk size — fixed per service because it is
            half of the determinism contract ``(seed, chunk_size)``.
        max_cached_workloads: Capacity of the service's workload cache,
            and the most workload planes the runtime keeps published in
            shared memory.
        shm_byte_budget: Shared-memory LRU budget handed to the runtime
            (``None`` = unbounded).
        quota_rps: Per-tenant sustained requests/second (``None``
            disables quotas).
        quota_burst: Per-tenant burst allowance.
        max_queue_depth: Bound on requests admitted and not yet
            answered; beyond it new requests get 503.
        monitor_alpha: Family-wise false-alarm rate of the monitoring
            plane's batch drift report.
        monitor_check_every: Used records between monitoring checkpoints
            (each checkpoint feeds one disjoint window to the sequential
            alarms).
    """

    workers: int = 2
    max_batch: int = 32
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_cached_workloads: int = 8
    shm_byte_budget: int | None = None
    quota_rps: float | None = None
    quota_burst: float = 10.0
    max_queue_depth: int = 256
    monitor_alpha: float = 0.01
    monitor_check_every: int = 256

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise SimulationError(f"chunk_size must be >= 1, got {self.chunk_size!r}")
        if self.max_queue_depth < 1:
            raise SimulationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth!r}"
            )
        if not 0.0 < self.monitor_alpha < 1.0:
            raise SimulationError(
                f"monitor_alpha must be in (0, 1), got {self.monitor_alpha!r}"
            )
        if self.monitor_check_every < 1:
            raise SimulationError(
                f"monitor_check_every must be >= 1, got {self.monitor_check_every!r}"
            )


#: One queued evaluation: ``(workload spec, system spec, seed)``.
_BatchItem = tuple[WorkloadSpec, SystemSpec, int]


class ScreeningService:
    """The coalescing evaluation service around one persistent runtime.

    Use as an async context manager (drains on exit), or call
    :meth:`drain` / :meth:`close` explicitly.  All public entry points
    must be awaited on one event loop.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        classifier: CaseClassifier | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        self._config = config if config is not None else ServiceConfig()
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._runtime = EngineRuntime(
            workers=self._config.workers,
            max_cached_workloads=self._config.max_cached_workloads,
            shm_byte_budget=self._config.shm_byte_budget,
            obs=self._obs,
        )
        self._cache = WorkloadCache(
            capacity=self._config.max_cached_workloads, obs=self._obs
        )
        self._classifier = (
            classifier if classifier is not None else DEFAULT_CLASSIFIER
        )
        self._quotas = QuotaManager(
            self._config.quota_rps, self._config.quota_burst
        )
        # The live monitoring plane: field records stream in through
        # /v1/ingest and are judged against the paper's model under the
        # field demand profile.
        self._monitor = StreamMonitor(
            paper_example_parameters(),
            PAPER_FIELD_PROFILE,
            alpha=self._config.monitor_alpha,
            check_every=self._config.monitor_check_every,
            obs=self._obs,
        )
        self._batcher = MicroBatcher(
            self._dispatch_batch, max_batch=self._config.max_batch
        )
        # EngineRuntime is not thread-safe: every touch of it (and of
        # the workload cache) is serialized on this one thread.
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-engine"
        )
        self._draining = False
        self._inflight_requests = 0
        self._closed = False

    @property
    def config(self) -> ServiceConfig:
        """This instance's (immutable) configuration."""
        return self._config

    @property
    def draining(self) -> bool:
        """True once shutdown has begun; new requests are rejected."""
        return self._draining

    @property
    def monitor(self) -> StreamMonitor:
        """The live monitoring plane fed by :meth:`ingest`."""
        return self._monitor

    async def __aenter__(self) -> "ScreeningService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.drain()

    # -- admission -----------------------------------------------------

    def _admit(self, tenant: str) -> None:
        if self._draining:
            raise ServiceUnavailableError("service is draining", retry_after=5.0)
        # One admitted request is one unit of depth from admission until
        # its response resolves — waiting in the batcher, dispatched,
        # or awaiting demultiplexing are all "in the building".
        depth = self._inflight_requests
        self._obs.gauge("service.queue_depth", depth)
        if depth >= self._config.max_queue_depth:
            self._obs.count("service.rejected.queue")
            raise ServiceUnavailableError(
                f"queue depth {depth} at capacity "
                f"{self._config.max_queue_depth}",
                retry_after=0.1,
            )
        retry_after = self._quotas.admit(tenant)
        if retry_after > 0:
            self._obs.count("service.rejected.quota")
            raise QuotaExceededError(tenant, retry_after)

    # -- public request handlers ---------------------------------------

    async def evaluate(
        self,
        workload: WorkloadSpec,
        system: SystemSpec,
        *,
        seed: int,
        level: float = 0.95,
        tenant: str = "default",
        obs: Instrumentation | None = None,
    ) -> SystemEvaluation:
        """Evaluate one system over one workload at ``seed``.

        Coalesced with concurrent requests sharing the workload
        fingerprint; the response is bit-identical to a standalone
        ``evaluate_system_batch(..., seed=seed, chunk_size=config.chunk_size)``.
        """
        request_obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._admit(tenant)
        self._obs.count("service.requests")
        start = time.perf_counter()
        self._inflight_requests += 1
        try:
            with request_obs.span(
                "service.evaluate", workload=workload.key(), seed=seed
            ):
                row, batch_size = await self._batcher.submit(
                    workload.key(), (workload, system, seed)
                )
        finally:
            self._inflight_requests -= 1
        elapsed = time.perf_counter() - start
        self._observe_request(batch_size, elapsed, request_obs)
        tally = FailureTally(self._classifier.classes, row)
        return tally.to_evaluation(system.label(), workload.key(), level)

    async def compare(
        self,
        workload: WorkloadSpec,
        systems: Sequence[SystemSpec],
        *,
        seed: int,
        level: float = 0.95,
        tenant: str = "default",
        obs: Instrumentation | None = None,
    ) -> list[SystemEvaluation]:
        """Evaluate several systems over one workload, sharing ``seed``.

        All systems see the same seed (common random numbers — the
        paper's paired comparison design); the expansion lands in one
        batch group of at most ``max_batch`` systems, so one compare is
        at most one dispatch.

        Raises:
            ProtocolError: on no systems or more than ``max_batch``.
        """
        request_obs = obs if obs is not None else NULL_INSTRUMENTATION
        if not systems:
            raise ProtocolError("compare needs at least one system")
        if len(systems) > self._config.max_batch:
            raise ProtocolError(
                f"compare lists {len(systems)} systems; this service takes at "
                f"most max_batch={self._config.max_batch} per compare"
            )
        self._admit(tenant)
        self._obs.count("service.requests")
        start = time.perf_counter()
        self._inflight_requests += 1
        try:
            with request_obs.span(
                "service.compare", workload=workload.key(), seed=seed
            ):
                futures = [
                    self._batcher.submit(workload.key(), (workload, system, seed))
                    for system in systems
                ]
                resolved = await asyncio.gather(*futures)
        finally:
            self._inflight_requests -= 1
        elapsed = time.perf_counter() - start
        batch_size = max(size for _, size in resolved)
        self._observe_request(batch_size, elapsed, request_obs)
        return [
            FailureTally(self._classifier.classes, row).to_evaluation(
                system.label(), workload.key(), level
            )
            for system, (row, _) in zip(systems, resolved)
        ]

    async def uncertainty(
        self,
        *,
        profile: str = "trial",
        trials: int = 1000,
        draws: int = 10_000,
        seed: int = 0,
        level: float = 0.95,
        tenant: str = "default",
        obs: Instrumentation | None = None,
    ) -> CredibleInterval:
        """Posterior credible interval for P(system failure) under a profile.

        Not coalesced: there is no workload plane to share — the
        posterior kernel is already a single vectorized pass — so the
        request runs directly on the engine thread, seeded by ``seed``.
        """
        request_obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._admit(tenant)
        self._obs.count("service.requests")
        start = time.perf_counter()
        self._inflight_requests += 1
        try:
            with request_obs.span(
                "service.uncertainty", profile=profile, seed=seed
            ):
                loop = asyncio.get_running_loop()
                interval = await loop.run_in_executor(
                    self._engine,
                    self._uncertainty_sync,
                    profile,
                    trials,
                    draws,
                    seed,
                    level,
                )
        finally:
            self._inflight_requests -= 1
        elapsed = time.perf_counter() - start
        self._observe_request(1, elapsed, request_obs)
        return interval

    async def ingest(
        self,
        records: RecordBatch | Collection[CaseRecord],
        *,
        tenant: str = "default",
    ) -> int:
        """Feed field records into the monitoring plane; returns records used.

        ``records`` is a decoded ``/v1/ingest`` body (a
        :class:`~repro.trial.records.RecordBatch`) or a collection of
        :class:`~repro.trial.records.CaseRecord` objects.  Counts flow
        into the streaming estimator (aided cancer records), checkpoints
        fire the sequential alarms, and alarm state lands in this
        service's metrics registry — all constant-memory, so the
        endpoint stays cheap no matter how long the stream runs.
        """
        self._admit(tenant)
        self._obs.count("service.requests")
        self._obs.count("service.ingested", len(records))
        return self._monitor.ingest(records)

    def monitor_payload(self) -> dict[str, Any]:
        """The monitoring plane as a JSON-ready response body.

        The snapshot (estimates, covariance decomposition, alarm charts)
        is always present; the batch drift report is computed lazily and
        is ``None`` until the stream can support one (no usable records
        yet, or a class the reference model cannot explain).
        """
        payload: dict[str, Any] = {"monitor": self._monitor.snapshot()}
        try:
            report = self._monitor.report()
        except EstimationError:
            payload["report"] = None
        else:
            payload["report"] = monitoring_report_payload(report)
        return payload

    # -- engine-thread internals ---------------------------------------

    def _observe_request(
        self, batch_size: int, elapsed: float, request_obs: Instrumentation
    ) -> None:
        self._obs.observe("service.batch_size", batch_size)
        self._obs.observe("service.latency_s", elapsed)
        request_obs.observe("service.batch_size", batch_size)
        request_obs.observe("service.latency_s", elapsed)
        if batch_size > 1:
            self._obs.count("service.coalesced")
            request_obs.count("service.coalesced")

    async def _dispatch_batch(
        self, key: Any, items: Sequence[_BatchItem]
    ) -> np.ndarray:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._engine, self._dispatch_sync, list(items)
        )

    def _dispatch_sync(self, items: list[_BatchItem]) -> np.ndarray:
        """One fused dispatch for one batch (engine thread only): its count
        matrix, a row per item.

        The runtime places it as it places a ``compare``: in-process when
        the workload fits one chunk, split into chunk ranges over the
        pool otherwise.
        """
        with self._obs.span("service.dispatch", items=len(items)):
            workload = self._cache.get(items[0][0])
            (rows,) = self._runtime.run_fused(
                [(workload, [(system.build(seed), seed) for _, system, seed in items])],
                classifier=self._classifier,
                chunk_size=self._config.chunk_size,
            )
            self._obs.count("service.dispatches")
            return rows

    def _uncertainty_sync(
        self, profile_name: str, trials: int, draws: int, seed: int, level: float
    ) -> CredibleInterval:
        profile = (
            PAPER_FIELD_PROFILE if profile_name == "field" else PAPER_TRIAL_PROFILE
        )
        uncertain = UncertainModel.from_trial_counts(
            paper_example_parameters(), trials
        )
        return uncertain.failure_probability_interval(
            profile, level=level, num_samples=draws, seed=seed
        )

    # -- lifecycle -----------------------------------------------------

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish what is queued.

        Idempotent.  After it returns the runtime is closed and every
        previously-submitted request has resolved.
        """
        self._draining = True
        await self._batcher.flush()
        self.close()

    def close(self) -> None:
        """Hard shutdown of the engine thread and runtime (idempotent)."""
        self._draining = True
        if self._closed:
            return
        self._closed = True
        self._engine.shutdown(wait=True)
        self._runtime.close()

    def metrics_snapshot(self) -> dict[str, Any]:
        """The service's metrics registry snapshot (JSON-ready)."""
        return self._obs.metrics.snapshot()


# -- HTTP layer --------------------------------------------------------

_MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_LINES = 100


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Sequence[tuple[str, str]] = (),
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    lines.append("")
    lines.append("")
    return "\r\n".join(lines).encode() + body


def _json_response(
    status: int,
    payload: dict[str, Any],
    *,
    extra_headers: Sequence[tuple[str, str]] = (),
) -> bytes:
    return _response(
        status, json.dumps(payload).encode(), "application/json", extra_headers
    )


def _text_response(status: int, text: str) -> bytes:
    return _response(status, text.encode(), "text/plain; charset=utf-8")


class _FramingError(Exception):
    """A request that cannot be framed: answered, then closed.

    ``status`` is 400 for a request line over the stream's line limit or
    a malformed or negative ``Content-Length``, 413 for a body over the
    body limit, and 431 for a header line over the line limit or more
    than :data:`_MAX_HEADER_LINES` headers.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One line off the stream, or a :class:`_FramingError` with ``status``
    when it is longer than the stream's limit (``readline`` reports an
    overrun as ``ValueError``)."""
    try:
        return await reader.readline()
    except ValueError:
        raise _FramingError(status, f"{what} exceeds the line limit") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on EOF or a malformed request line.

    Raises:
        _FramingError: when a line is over the stream's limit, the head
            has more than :data:`_MAX_HEADER_LINES` headers, or
            ``Content-Length`` is not a decimal byte count or exceeds the
            body limit.
    """
    try:
        request_line = await _read_line(reader, 400, "request line")
    except ConnectionError:
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, path, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES + 1):
        line = await _read_line(reader, 431, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _FramingError(431, f"more than {_MAX_HEADER_LINES} header lines")
    declared = headers.get("content-length", "0") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _FramingError(400, f"malformed Content-Length {declared!r}")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise _FramingError(
            413, f"body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


#: The one method each endpoint answers.
_METHODS = {
    "/healthz": "GET",
    "/v1/metrics": "GET",
    "/v1/monitor": "GET",
    "/v1/evaluate": "POST",
    "/v1/compare": "POST",
    "/v1/uncertainty": "POST",
    "/v1/ingest": "POST",
}


def _request_report(obs: Instrumentation, name: str) -> dict[str, Any]:
    return build_run_report(obs, name).as_dict()


async def _handle_request(
    service: ScreeningService, method: str, path: str, headers: dict[str, str], body: bytes
) -> bytes:
    tenant = headers.get("x-tenant", "default")
    path, _, query = path.partition("?")
    allowed = _METHODS.get(path)
    if allowed is None:
        return _json_response(404, {"error": f"unknown path {path!r}"})
    if method != allowed:
        return _json_response(
            405, {"error": f"{path} requires {allowed}"}, extra_headers=[("Allow", allowed)]
        )
    if path == "/healthz":
        status = "draining" if service.draining else "ok"
        return _json_response(
            200,
            {
                "status": status,
                "draining": service.draining,
                "alarms": service.monitor.tripped_alarms,
            },
        )
    if path == "/v1/metrics":
        exposition = parse_qs(query).get("format", ["json"])[-1]
        if exposition == "prometheus":
            return _text_response(200, prometheus_text(service.metrics_snapshot()))
        if exposition != "json":
            return _json_response(
                400,
                {"error": f"unknown metrics format {exposition!r}; "
                          "expected 'json' or 'prometheus'"},
            )
        return _json_response(200, service.metrics_snapshot())
    if path == "/v1/monitor":
        return _json_response(200, service.monitor_payload())
    try:
        payload = json.loads(body.decode() or "null")
    except (UnicodeDecodeError, ValueError) as exc:
        return _json_response(400, {"error": f"invalid JSON body: {exc}"})
    try:
        if path == "/v1/ingest":
            ingest = parse_ingest_request(payload)
            used = await service.ingest(ingest.records, tenant=tenant)
            monitor = service.monitor
            return _json_response(
                200,
                {
                    "received": len(ingest.records),
                    "used": used,
                    "checkpoints": monitor.checkpoints,
                    "alarms": {
                        "tripped": monitor.tripped_alarms,
                        "fired": monitor.fired_alarms,
                    },
                },
            )
        if path == "/v1/evaluate":
            request = parse_evaluate_request(payload)
            obs = Instrumentation("service.evaluate") if request.report else None
            evaluation = await service.evaluate(
                request.workload,
                request.system,
                seed=request.seed,
                level=request.level,
                tenant=tenant,
                obs=obs,
            )
            result: dict[str, Any] = {"evaluation": evaluation_payload(evaluation)}
            if obs is not None:
                result["report"] = _request_report(obs, "service.evaluate")
            return _json_response(200, result)
        if path == "/v1/compare":
            compare = parse_compare_request(payload)
            obs = Instrumentation("service.compare") if compare.report else None
            evaluations = await service.compare(
                compare.workload,
                compare.systems,
                seed=compare.seed,
                level=compare.level,
                tenant=tenant,
                obs=obs,
            )
            result = {
                "evaluations": [
                    evaluation_payload(evaluation) for evaluation in evaluations
                ]
            }
            if obs is not None:
                result["report"] = _request_report(obs, "service.compare")
            return _json_response(200, result)
        uncertainty = parse_uncertainty_request(payload)
        obs = Instrumentation("service.uncertainty") if uncertainty.report else None
        interval = await service.uncertainty(
            profile=uncertainty.profile,
            trials=uncertainty.trials,
            draws=uncertainty.draws,
            seed=uncertainty.seed,
            level=uncertainty.level,
            tenant=tenant,
            obs=obs,
        )
        result = {"interval": interval_payload(interval)}
        if obs is not None:
            result["report"] = _request_report(obs, "service.uncertainty")
        return _json_response(200, result)
    except (QuotaExceededError, ServiceUnavailableError) as exc:
        return _json_response(
            exc.status,
            {"error": str(exc), "retry_after": exc.retry_after},
            extra_headers=[("Retry-After", f"{exc.retry_after:.3f}")],
        )
    except ProtocolError as exc:
        return _json_response(400, {"error": str(exc)})
    except SimulationError as exc:
        return _json_response(500, {"error": str(exc)})


async def _handle_connection(
    service: ScreeningService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except _FramingError as exc:
                # The body's extent is unknown, so the stream cannot be
                # resynchronised: answer, then close.
                writer.write(
                    _json_response(
                        exc.status,
                        {"error": str(exc)},
                        extra_headers=[("Connection", "close")],
                    )
                )
                await writer.drain()
                break
            if parsed is None:
                break
            method, path, headers, body = parsed
            try:
                response = await _handle_request(service, method, path, headers, body)
            except Exception as exc:
                # A fault no handler maps is the server's: log it, answer
                # 500 and keep the connection, whose stream is still in
                # sync (the request was read whole).
                _LOG.exception("unhandled error answering %s %s", method, path)
                response = _json_response(
                    500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
                )
            writer.write(response)
            await writer.drain()
            if headers.get("connection", "").lower() == "close":
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # Shutdown can cancel the handler mid-close-handshake; the
            # socket is already closing either way.
            pass


async def serve(
    service: ScreeningService,
    host: str = "127.0.0.1",
    port: int = 8373,
    *,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve ``service`` over HTTP until cancelled, then drain gracefully.

    ``ready`` (if given) is set once the socket is listening — tests and
    supervisors use it instead of polling the port.
    """
    connections: set[asyncio.Task] = set()

    def _on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(_handle_connection(service, reader, writer))
        connections.add(task)
        task.add_done_callback(connections.discard)

    server = await asyncio.start_server(_on_connection, host, port)
    if ready is not None:
        ready.set()
    try:
        async with server:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        server.close()
        await server.wait_closed()
        await service.drain()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
