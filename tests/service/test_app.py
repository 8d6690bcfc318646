"""Service-level behaviour: admission control, drain, HTTP endpoints."""

import asyncio
import json

import pytest

from repro.exceptions import SimulationError
from repro.obs import Instrumentation
from repro.service import (
    QuotaExceededError,
    ScreeningService,
    ServiceConfig,
    ServiceUnavailableError,
    WorkloadCache,
    serve,
)
from repro.sweep.grid import SystemSpec, WorkloadSpec

WORKLOAD = WorkloadSpec(population="routine", num_cases=120)
SYSTEM = SystemSpec()
CONFIG = ServiceConfig(workers=1, linger_ms=1.0, chunk_size=128)


class TestAdmissionControl:
    def test_quota_rejection_carries_retry_after(self):
        async def main():
            config = ServiceConfig(
                workers=1,
                linger_ms=1.0,
                chunk_size=128,
                quota_rps=1.0,
                quota_burst=1.0,
            )
            async with ScreeningService(config) as service:
                await service.evaluate(WORKLOAD, SYSTEM, seed=1, tenant="a")
                with pytest.raises(QuotaExceededError) as excinfo:
                    await service.evaluate(WORKLOAD, SYSTEM, seed=2, tenant="a")
                assert excinfo.value.retry_after > 0.0
                assert excinfo.value.status == 429
                # Tenant isolation: b's bucket is untouched.
                await service.evaluate(WORKLOAD, SYSTEM, seed=3, tenant="b")

        asyncio.run(main())

    def test_queue_depth_backpressure(self):
        async def main():
            config = ServiceConfig(
                workers=1,
                linger_ms=50.0,
                max_batch=64,
                chunk_size=128,
                max_queue_depth=2,
            )
            service = ScreeningService(config)
            try:
                first = asyncio.ensure_future(
                    service.evaluate(WORKLOAD, SYSTEM, seed=1)
                )
                second = asyncio.ensure_future(
                    service.evaluate(WORKLOAD, SYSTEM, seed=2)
                )
                await asyncio.sleep(0)  # both admitted and lingering
                with pytest.raises(ServiceUnavailableError) as excinfo:
                    await service.evaluate(WORKLOAD, SYSTEM, seed=3)
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after > 0.0
                await asyncio.gather(first, second)
            finally:
                await service.drain()

        asyncio.run(main())

    def test_draining_service_rejects_new_requests(self):
        async def main():
            service = ScreeningService(CONFIG)
            await service.drain()
            with pytest.raises(ServiceUnavailableError, match="draining"):
                await service.evaluate(WORKLOAD, SYSTEM, seed=1)

        asyncio.run(main())

    def test_drain_is_idempotent_and_completes_queued_work(self):
        async def main():
            service = ScreeningService(
                ServiceConfig(workers=1, linger_ms=500.0, chunk_size=128)
            )
            future = asyncio.ensure_future(
                service.evaluate(WORKLOAD, SYSTEM, seed=5)
            )
            await asyncio.sleep(0)
            # Drain fires the lingering batch instead of waiting 500ms.
            await asyncio.wait_for(service.drain(), timeout=30.0)
            evaluation = await future
            assert evaluation.false_negative is not None
            await service.drain()  # second drain is a no-op

        asyncio.run(main())


class TestUncertaintyEndpoint:
    def test_seeded_interval_is_reproducible(self):
        async def main():
            async with ScreeningService(CONFIG) as service:
                first = await service.uncertainty(
                    profile="trial", trials=500, draws=2000, seed=11
                )
                second = await service.uncertainty(
                    profile="trial", trials=500, draws=2000, seed=11
                )
                other = await service.uncertainty(
                    profile="field", trials=500, draws=2000, seed=11
                )
                return first, second, other

        first, second, other = asyncio.run(main())
        assert first == second
        assert first != other
        assert 0.0 <= first.lower <= first.mean <= first.upper <= 1.0


class TestWorkloadCache:
    def test_lru_eviction_and_hit_metrics(self):
        obs = Instrumentation("cache-test")
        cache = WorkloadCache(capacity=1, obs=obs)
        a = WorkloadSpec(population="routine", num_cases=50)
        b = WorkloadSpec(population="young", num_cases=50)
        entry_a = cache.get(a)
        assert cache.get(a) is entry_a  # hit
        cache.get(b)  # evicts a
        assert len(cache) == 1
        entry_a_again = cache.get(a)  # rebuild
        counters = obs.metrics.snapshot()["counters"]
        assert counters["service.workload_cache.hit"] == 1
        assert counters["service.workload_cache.miss"] == 3
        assert counters["service.workload_cache.evicted"] == 2
        # Rebuilt entries are bit-identical: specs build deterministically.
        assert entry_a_again.key == entry_a.key
        assert (entry_a_again.positions == entry_a.positions).all()
        assert (entry_a_again.codes == entry_a.codes).all()

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError, match="capacity"):
            WorkloadCache(capacity=0)


async def http_request(port, method, path, body=None, headers=(), raw=False):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    lines = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(payload)}"]
    lines += [f"{name}: {value}" for name, value in headers]
    request = ("\r\n".join(lines) + "\r\n\r\n").encode() + payload
    writer.write(request)
    await writer.drain()
    status, response_headers, data = await read_response(reader)
    writer.close()
    if raw:
        return status, response_headers, data.decode()
    return status, response_headers, json.loads(data) if data else None


async def read_response(reader):
    """One HTTP response off the stream: ``(status, headers, body bytes)``."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, response_headers, data


async def framing_exchange(port, content_length):
    """POST with a hand-written ``Content-Length`` and no body.

    Returns the response's status, headers and JSON body, and whether
    the server closed the connection after answering.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = f"POST /v1/evaluate HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n"
    try:
        writer.write(head.encode())
        await writer.drain()
        status, headers, data = await read_response(reader)
        closed = await asyncio.wait_for(reader.read(), timeout=10.0) == b""
    finally:
        writer.close()
    return status, headers, json.loads(data), closed


class TestHttpLayer:
    def run_with_server(self, config, scenario, obs=None):
        async def main():
            service = ScreeningService(config, obs=obs)
            ready = asyncio.Event()
            port = 8750 + (hash(scenario.__name__) % 200)
            task = asyncio.create_task(serve(service, port=port, ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=10.0)
            try:
                return await scenario(port)
            finally:
                task.cancel()
                await task

        return asyncio.run(main())

    def test_evaluate_endpoint_round_trip(self):
        async def scenario(port):
            return await http_request(
                port,
                "POST",
                "/v1/evaluate",
                body={
                    "workload": {"population": "routine", "num_cases": 100},
                    "system": {"kind": "assisted"},
                    "seed": 7,
                    "report": True,
                },
            )

        status, _, data = self.run_with_server(CONFIG, scenario)
        assert status == 200
        assert data["evaluation"]["false_negative"]["trials"] == 50
        assert data["report"]["name"] == "service.evaluate"
        assert "service.latency_s" in data["report"]["metrics"]["histograms"]

    def test_compare_endpoint_returns_one_evaluation_per_system(self):
        async def scenario(port):
            return await http_request(
                port,
                "POST",
                "/v1/compare",
                body={
                    "workload": {"population": "routine", "num_cases": 100},
                    "systems": [{"kind": "unaided"}, {"kind": "assisted"}],
                    "seed": 3,
                },
            )

        status, _, data = self.run_with_server(CONFIG, scenario)
        assert status == 200
        assert len(data["evaluations"]) == 2

    def test_uncertainty_endpoint(self):
        async def scenario(port):
            return await http_request(
                port,
                "POST",
                "/v1/uncertainty",
                body={"profile": "trial", "trials": 200, "draws": 500, "seed": 1},
            )

        status, _, data = self.run_with_server(CONFIG, scenario)
        assert status == 200
        assert 0.0 <= data["interval"]["lower"] <= data["interval"]["upper"] <= 1.0

    def test_malformed_request_is_400_with_reason(self):
        async def scenario(port):
            return await http_request(
                port,
                "POST",
                "/v1/evaluate",
                body={"workload": {"population": "routine"}, "system": {}},
            )

        status, _, data = self.run_with_server(CONFIG, scenario)
        assert status == 400
        assert "seed" in data["error"]

    def test_quota_rejection_is_429_with_retry_after_header(self):
        config = ServiceConfig(
            workers=1,
            linger_ms=1.0,
            chunk_size=128,
            quota_rps=0.5,
            quota_burst=1.0,
        )

        async def scenario(port):
            body = {
                "workload": {"population": "routine", "num_cases": 100},
                "system": {},
                "seed": 1,
            }
            first = await http_request(
                port, "POST", "/v1/evaluate", body, headers=[("X-Tenant", "t")]
            )
            second = await http_request(
                port, "POST", "/v1/evaluate", body, headers=[("X-Tenant", "t")]
            )
            return first, second

        (status1, _, _), (status2, headers2, data2) = self.run_with_server(
            config, scenario
        )
        assert status1 == 200
        assert status2 == 429
        assert float(headers2["retry-after"]) > 0.0
        assert data2["retry_after"] > 0.0

    @pytest.mark.parametrize("content_length", ["twelve", "-5", "1e3", "0x10", "1_0"])
    def test_malformed_content_length_is_400_then_close(self, content_length):
        async def scenario(port):
            return await framing_exchange(port, content_length)

        status, headers, data, closed = self.run_with_server(CONFIG, scenario)
        assert status == 400
        assert "Content-Length" in data["error"]
        assert headers["connection"] == "close"
        assert closed

    def test_oversized_content_length_is_413_then_close(self):
        async def scenario(port):
            return await framing_exchange(port, 1 << 30)

        status, headers, data, closed = self.run_with_server(CONFIG, scenario)
        assert status == 413
        assert "limit" in data["error"]
        assert headers["connection"] == "close"
        assert closed

    def test_unknown_path_and_wrong_method(self):
        async def scenario(port):
            missing = await http_request(port, "GET", "/v1/nope")
            wrong = await http_request(port, "GET", "/v1/evaluate")
            return missing, wrong

        (status_missing, _, _), (status_wrong, _, _) = self.run_with_server(
            CONFIG, scenario
        )
        assert status_missing == 404
        assert status_wrong == 405

    def test_healthz_and_metrics(self):
        async def scenario(port):
            health = await http_request(port, "GET", "/healthz")
            await http_request(
                port,
                "POST",
                "/v1/evaluate",
                body={
                    "workload": {"population": "routine", "num_cases": 100},
                    "system": {},
                    "seed": 2,
                },
            )
            metrics = await http_request(port, "GET", "/v1/metrics")
            return health, metrics

        (health_status, _, health), (metrics_status, _, metrics) = (
            self.run_with_server(CONFIG, scenario)
        )
        assert health_status == 200
        assert health == {"status": "ok", "draining": False, "alarms": 0}
        assert metrics_status == 200
        # The default service runs null instrumentation; the endpoint
        # still answers with the (empty) snapshot shape.
        assert set(metrics) == {
            "schema",
            "counters",
            "gauges",
            "histograms",
            "timeline",
        }


def field_entry(case_id, name="easy", machine_failed=False, recalled=True):
    """A JSON record entry as a monitoring client would send it."""
    return {
        "case_id": case_id,
        "reader_name": "field",
        "case_class": name,
        "has_cancer": True,
        "aided": True,
        "machine_failed": machine_failed,
        "machine_false_prompts": 1,
        "recalled": recalled,
    }


class TestMonitoringPlane(TestHttpLayer):
    """The live monitoring endpoints: /v1/ingest, /v1/monitor, /healthz."""

    def test_healthz_payload_schema(self):
        async def scenario_healthz(port):
            return await http_request(port, "GET", "/healthz")

        status, _, health = self.run_with_server(CONFIG, scenario_healthz)
        assert status == 200
        assert set(health) == {"status", "draining", "alarms"}
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert isinstance(health["alarms"], int)

    def test_ingest_then_monitor_round_trip(self):
        entries = [field_entry(i) for i in range(18)]
        entries += [field_entry(18 + i, name="difficult", machine_failed=True)
                    for i in range(2)]

        async def scenario_ingest(port):
            ingest = await http_request(
                port, "POST", "/v1/ingest", body={"records": entries}
            )
            monitor = await http_request(port, "GET", "/v1/monitor")
            return ingest, monitor

        (ingest_status, _, ingested), (monitor_status, _, monitor) = (
            self.run_with_server(CONFIG, scenario_ingest)
        )
        assert ingest_status == 200
        assert ingested["received"] == 20
        assert ingested["used"] == 20
        assert set(ingested["alarms"]) == {"tripped", "fired"}
        assert monitor_status == 200
        snapshot = monitor["monitor"]
        assert snapshot["records"] == {"seen": 20, "used": 20}
        assert set(snapshot["estimates"]) == {"easy", "difficult"}
        assert snapshot["estimates"]["easy"]["records"] == 18
        report = monitor["report"]
        assert report is not None
        assert report["tests"][0]["name"] == "profile"
        assert all(0.0 <= test["p_value"] <= 1.0 for test in report["tests"])

    def test_monitor_report_is_null_before_any_ingest(self):
        async def scenario_empty_monitor(port):
            return await http_request(port, "GET", "/v1/monitor")

        status, _, data = self.run_with_server(CONFIG, scenario_empty_monitor)
        assert status == 200
        assert data["report"] is None
        assert data["monitor"]["records"] == {"seen": 0, "used": 0}

    def test_unknown_class_is_tolerated_live_but_blocks_the_report(self):
        async def scenario_unknown_class(port):
            ingest = await http_request(
                port,
                "POST",
                "/v1/ingest",
                body={"records": [field_entry(1, name="novel")]},
            )
            monitor = await http_request(port, "GET", "/v1/monitor")
            return ingest, monitor

        (ingest_status, _, ingested), (_, _, monitor) = self.run_with_server(
            CONFIG, scenario_unknown_class
        )
        assert ingest_status == 200
        assert ingested["used"] == 1
        assert monitor["report"] is None

    def test_malformed_ingest_is_400_with_index(self):
        async def scenario_bad_ingest(port):
            missing = await http_request(
                port,
                "POST",
                "/v1/ingest",
                body={"records": [{"case_id": "nope"}]},
            )
            empty = await http_request(
                port, "POST", "/v1/ingest", body={"records": []}
            )
            return missing, empty

        (bad_status, _, bad), (empty_status, _, _) = self.run_with_server(
            CONFIG, scenario_bad_ingest
        )
        assert bad_status == 400
        assert "records[0]" in bad["error"]
        assert empty_status == 400

    def test_prometheus_exposition_format(self):
        from repro.obs import Instrumentation as Obs

        async def scenario_prometheus(port):
            await http_request(
                port,
                "POST",
                "/v1/ingest",
                body={"records": [field_entry(i) for i in range(5)]},
            )
            text = await http_request(
                port, "GET", "/v1/metrics?format=prometheus", raw=True
            )
            bogus = await http_request(port, "GET", "/v1/metrics?format=bogus")
            return text, bogus

        (text_status, text_headers, text), (bogus_status, _, _) = (
            self.run_with_server(CONFIG, scenario_prometheus, obs=Obs("svc"))
        )
        assert text_status == 200
        assert text_headers["content-type"].startswith("text/plain")
        assert "# TYPE service_requests counter" in text
        assert "monitor_records_used 5" in text
        assert bogus_status == 400
