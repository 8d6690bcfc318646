"""Request parsing: strict keys, explicit seeds, JSON-ready responses."""

import asyncio
import json

import pytest

from repro.service import (
    MAX_DRAWS,
    MAX_NUM_CASES,
    MAX_TRIALS,
    ProtocolError,
    ScreeningService,
    ServiceConfig,
    evaluation_payload,
    parse_compare_request,
    parse_evaluate_request,
    parse_uncertainty_request,
    serve,
)
from repro.sweep.grid import SystemSpec, WorkloadSpec
from repro.engine.executor import evaluate_system_batch


def evaluate_body(**overrides):
    body = {
        "workload": {"population": "routine", "num_cases": 100},
        "system": {"kind": "assisted", "bias": "mild"},
        "seed": 7,
    }
    body.update(overrides)
    return body


class TestEvaluateParsing:
    def test_parses_specs_and_seed(self):
        request = parse_evaluate_request(evaluate_body())
        assert request.workload == WorkloadSpec(population="routine", num_cases=100)
        assert request.system == SystemSpec(kind="assisted", bias="mild")
        assert request.seed == 7
        assert request.level == 0.95
        assert request.report is False

    def test_rejects_unknown_top_level_keys(self):
        with pytest.raises(ProtocolError, match="unknown evaluate request keys"):
            parse_evaluate_request(evaluate_body(sede=1))

    def test_rejects_unknown_workload_keys(self):
        body = evaluate_body()
        body["workload"]["casez"] = 10
        with pytest.raises(ProtocolError, match="unknown workload keys"):
            parse_evaluate_request(body)

    def test_rejects_unknown_system_keys(self):
        body = evaluate_body()
        body["system"]["biaz"] = "mild"
        with pytest.raises(ProtocolError, match="unknown system keys"):
            parse_evaluate_request(body)

    def test_rejects_missing_seed(self):
        body = evaluate_body()
        del body["seed"]
        with pytest.raises(ProtocolError, match="seed"):
            parse_evaluate_request(body)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7", True])
    def test_rejects_non_integer_seeds(self, seed):
        with pytest.raises(ProtocolError, match="seed"):
            parse_evaluate_request(evaluate_body(seed=seed))

    def test_rejects_unknown_population(self):
        body = evaluate_body()
        body["workload"]["population"] = "marsian"
        with pytest.raises(ProtocolError, match="population"):
            parse_evaluate_request(body)

    def test_rejects_bad_level(self):
        with pytest.raises(ProtocolError, match="level"):
            parse_evaluate_request(evaluate_body(level=1.5))

    def test_rejects_non_object_body(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_evaluate_request([1, 2, 3])


class TestCompareParsing:
    def test_parses_system_list(self):
        body = evaluate_body()
        del body["system"]
        body["systems"] = [{"kind": "unaided"}, {"kind": "assisted"}]
        request = parse_compare_request(body)
        assert [system.kind for system in request.systems] == ["unaided", "assisted"]
        assert request.seed == 7

    def test_rejects_empty_system_list(self):
        body = evaluate_body()
        del body["system"]
        body["systems"] = []
        with pytest.raises(ProtocolError, match="at least one system"):
            parse_compare_request(body)

    def test_names_offending_list_entry(self):
        body = evaluate_body()
        del body["system"]
        body["systems"] = [{"kind": "assisted"}, "oops"]
        with pytest.raises(ProtocolError, match=r"systems\[1\]"):
            parse_compare_request(body)


class TestFieldTypes:
    """JSON values of the wrong type are a 400 naming the field; nothing
    is truncated or coerced into a valid-looking spec."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_cases", float("inf")),
            ("num_cases", "abc"),
            ("num_cases", 2000.9),
            ("num_cases", True),
            ("num_cases", "20"),
            ("cancer_fraction", True),
            ("cancer_fraction", "0.5"),
            ("population_seed", 2.5),
            ("population", ["routine"]),
        ],
    )
    def test_workload_fields(self, field, value):
        body = evaluate_body()
        body["workload"][field] = value
        with pytest.raises(ProtocolError, match=f"invalid workload: .*{field}"):
            parse_evaluate_request(body)

    @pytest.mark.parametrize(
        "field, value",
        [("operating_point", "0.2"), ("operating_point", True), ("bias", ["mild"])],
    )
    def test_system_fields(self, field, value):
        body = evaluate_body()
        body["system"][field] = value
        with pytest.raises(ProtocolError, match="invalid system"):
            parse_evaluate_request(body)

    def test_integral_and_real_values_pass_unchanged(self):
        body = evaluate_body()
        body["workload"].update(cancer_fraction=1, population_seed=3)
        body["system"]["operating_point"] = 1
        request = parse_evaluate_request(body)
        assert request.workload == WorkloadSpec(
            population="routine", num_cases=100, cancer_fraction=1.0, population_seed=3
        )
        assert request.system.operating_point == 1.0


class TestUncertaintyParsing:
    def test_defaults(self):
        request = parse_uncertainty_request({"seed": 3})
        assert request.profile == "trial"
        assert request.trials == 1000
        assert request.draws == 10_000
        assert request.seed == 3

    def test_rejects_unknown_profile(self):
        with pytest.raises(ProtocolError, match="profile"):
            parse_uncertainty_request({"seed": 0, "profile": "bench"})

    @pytest.mark.parametrize("field", ["trials", "draws"])
    def test_rejects_non_positive_counts(self, field):
        with pytest.raises(ProtocolError, match=field):
            parse_uncertainty_request({"seed": 0, field: 0})


class TestRequestLimits:
    """One request cannot ask for unbounded work: each breach is a 400."""

    def test_documented_limits(self):
        assert (MAX_NUM_CASES, MAX_DRAWS, MAX_TRIALS) == (1_000_000, 1_000_000, 10**9)

    def test_num_cases_limit(self):
        at_limit = evaluate_body(workload={"population": "routine", "num_cases": MAX_NUM_CASES})
        assert parse_evaluate_request(at_limit).workload.num_cases == MAX_NUM_CASES
        for parse, body in (
            (parse_evaluate_request, evaluate_body()),
            (parse_compare_request, {"workload": {}, "systems": [{}], "seed": 1}),
        ):
            body["workload"] = {"population": "routine", "num_cases": MAX_NUM_CASES + 1}
            with pytest.raises(ProtocolError, match="num_cases"):
                parse(body)

    @pytest.mark.parametrize(
        "field, limit", [("draws", MAX_DRAWS), ("trials", MAX_TRIALS)]
    )
    def test_count_limits(self, field, limit):
        assert getattr(parse_uncertainty_request({"seed": 0, field: limit}), field) == limit
        for value in (limit + 1, 10**9 + 10**8, 10**400):
            with pytest.raises(ProtocolError, match=field):
                parse_uncertainty_request({"seed": 0, field: value})

    def test_compare_takes_at_most_max_batch_systems(self):
        service = ScreeningService(ServiceConfig(workers=1, max_batch=3))
        try:
            with pytest.raises(ProtocolError, match="max_batch=3"):
                asyncio.run(
                    service.compare(WorkloadSpec("routine", num_cases=50), [SystemSpec()] * 4, seed=1)
                )
        finally:
            service.close()

    def test_over_limit_requests_are_400_and_keep_the_connection(self):
        config = ServiceConfig(workers=1, chunk_size=128, max_batch=2)
        workload = {"population": "routine", "num_cases": 60}
        requests = [
            ("/v1/evaluate", evaluate_body(workload={"population": "routine",
                                                     "num_cases": MAX_NUM_CASES + 1})),
            ("/v1/uncertainty", {"seed": 1, "draws": 10**9}),
            ("/v1/uncertainty", {"seed": 1, "trials": 10**400}),
            ("/v1/compare", {"workload": workload, "systems": [{}, {}, {}], "seed": 1}),
            ("/v1/evaluate", evaluate_body(workload=workload)),
        ]

        async def exchange(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            try:
                for path, body in requests:
                    payload = json.dumps(body).encode()
                    writer.write(
                        f"POST {path} HTTP/1.1\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
                        + payload
                    )
                    await writer.drain()
                    status_line = await reader.readline()
                    headers = {}
                    while (line := await reader.readline()) not in (b"\r\n", b""):
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    data = await reader.readexactly(int(headers["content-length"]))
                    replies.append((int(status_line.split()[1]), json.loads(data)))
            finally:
                writer.close()
            return replies

        async def main():
            service = ScreeningService(config)
            ready = asyncio.Event()
            task = asyncio.create_task(serve(service, port=8967, ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=10.0)
            try:
                return await exchange(8967)
            finally:
                task.cancel()
                await task

        replies = asyncio.run(main())
        assert [status for status, _ in replies] == [400, 400, 400, 400, 200]
        for (_, body), word in zip(replies, ("num_cases", "draws", "trials", "max_batch")):
            assert word in body["error"]


class TestEvaluationPayload:
    def test_round_trips_rates_and_classes(self):
        workload = WorkloadSpec(population="routine", num_cases=80).build()
        system = SystemSpec().build(5)
        evaluation = evaluate_system_batch(system, workload, seed=5, chunk_size=64)
        payload = evaluation_payload(evaluation)
        assert payload["system"] == evaluation.system_name
        assert payload["false_negative"]["failures"] == (
            evaluation.false_negative.failures
        )
        assert payload["false_negative"]["trials"] == evaluation.false_negative.trials
        assert payload["false_negative"]["lower"] == pytest.approx(
            evaluation.false_negative.interval.lower
        )
        assert set(payload["per_class_false_negative"]) == {
            cls.name for cls in evaluation.per_class_false_negative
        }
