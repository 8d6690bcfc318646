"""The ``service`` workload: request mix, closed-loop HTTP client, oracles.

Two keep-alive connections (``nproc`` on the machine the design was
sized for) each send their next request only when the previous reply
has arrived, in half-second blocks with the speed reference timed in the
idle gap between blocks, while the server is stopped.  Request bodies
are generated here from the run seed with plain ``random``; the client
imports nothing from the package while it drives load, so its own CPU
stays small (reported as ``loadgen.cpu_share``).  Outputs are checked after the timed phase, when
:func:`check` imports the package to compute the oracles.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

import speed

CONNECTIONS = 2
#: Length of one block of the closed loop.  A run is a series of blocks;
#: throughput is the median of per-block rates.  Short blocks let the
#: references around them follow the machine's speed: with one-second
#: blocks, most of a run's p99 tail came from one or two blocks.
BLOCK_S = 0.5
#: Distinct seeds per request kind.  The service caches workloads, not
#: results, so a repeated seed costs the server as much as a new one; the
#: count only bounds the oracle's cost, which recomputes each distinct
#: request once.  Every response is still checked.
SEEDS_PER_KIND = 32
#: Warm-up passes over every (workload, system): the pool has two workers.
WARMUP_ROUNDS = 2
#: Distinct ingest bodies, generated at start and sent in turn.
INGEST_BODIES = 48
#: Field records per ingest body: "a few hundred".
INGEST_RECORDS = (200, 400)
#: Request mix (kind, weight).  No measured traffic exists for this
#: service, so every kind of request the benchmark is meant to cover gets
#: an equal share rather than a guessed one.
MIX = (("evaluate", 1), ("compare", 1), ("uncertainty", 1), ("ingest", 1), ("monitor", 1))
COMPARE_SYSTEMS = (
    {"kind": "unaided", "bias": "mild"},
    {"kind": "assisted", "bias": "mild"},
    {"kind": "assisted", "bias": "strong", "operating_point": 0.2},
)
EVALUATE_SYSTEMS = COMPARE_SYSTEMS + ({"kind": "assisted", "bias": "mild", "dynamics": "fatigue"},)
#: The paper's field demand profile and Table 1 probabilities, used to
#: synthesise field records.
CLASS_MIX = (("easy", 0.9), ("difficult", 0.1))
P_MACHINE_FAILS = {"easy": 0.07, "difficult": 0.41}
P_HUMAN_FAILS = {"easy": (0.18, 0.14), "difficult": (0.90, 0.40)}


def workload_specs(seed: int) -> list[dict[str, Any]]:
    """The two workload specs every request uses (both fit the cache)."""
    return [
        {"population": "routine", "profile": "trial", "num_cases": 2000,
         "population_seed": seed},
        {"population": "symptomatic", "profile": "field", "num_cases": 2000,
         "population_seed": seed},
    ]


def ingest_bodies(seed: int) -> list[list[dict[str, Any]]]:
    """Batches of field records in the ``record_to_entry`` wire format."""
    rng = random.Random(seed)
    case_id = 0
    bodies = []
    for _ in range(INGEST_BODIES):
        records = []
        for _ in range(rng.randint(*INGEST_RECORDS)):
            case_id += 1
            name = "easy" if rng.random() < CLASS_MIX[0][1] else "difficult"
            if rng.random() < 0.1:  # a healthy case: only false prompts matter
                prompts = int(rng.random() < 0.3)
                records.append({
                    "case_id": case_id, "reader_name": f"reader{rng.randint(1, 4)}",
                    "case_class": name, "has_cancer": False, "aided": True,
                    "machine_failed": prompts > 0, "machine_false_prompts": prompts,
                    "recalled": rng.random() < 0.1,
                })
                continue
            machine_failed = rng.random() < P_MACHINE_FAILS[name]
            p_miss = P_HUMAN_FAILS[name][0 if machine_failed else 1]
            records.append({
                "case_id": case_id, "reader_name": f"reader{rng.randint(1, 4)}",
                "case_class": name, "has_cancer": True, "aided": True,
                "machine_failed": machine_failed,
                "machine_false_prompts": rng.randint(0, 2),
                "recalled": rng.random() >= p_miss,
            })
        bodies.append(records)
    return bodies


@dataclass
class Plan:
    """Everything the client sends, generated from the run seed."""

    seed: int
    specs: list[dict[str, Any]]
    ingests: list[bytes]
    ingest_records: list[list[dict[str, Any]]]

    @classmethod
    def build(cls, seed: int) -> "Plan":
        records = ingest_bodies(seed)
        return cls(
            seed=seed,
            specs=workload_specs(seed),
            ingests=[json.dumps({"records": body}).encode() for body in records],
            ingest_records=records,
        )

    def stream(self, connection: int):
        """This connection's endless request sequence: ``(kind, path, body, key)``."""
        rng = random.Random(self.seed * 1009 + connection)
        kinds = [kind for kind, _ in MIX]
        weights = [weight for _, weight in MIX]
        seeds = [self.seed * 100 + i for i in range(SEEDS_PER_KIND)]
        ingest = connection
        while True:
            kind = rng.choices(kinds, weights)[0]
            if kind == "evaluate":
                body = {"workload": rng.choice(self.specs),
                        "system": rng.choice(EVALUATE_SYSTEMS), "seed": rng.choice(seeds)}
                yield kind, "/v1/evaluate", json.dumps(body).encode(), body
            elif kind == "compare":
                body = {"workload": rng.choice(self.specs),
                        "systems": list(COMPARE_SYSTEMS), "seed": rng.choice(seeds)}
                yield kind, "/v1/compare", json.dumps(body).encode(), body
            elif kind == "uncertainty":
                body = {"profile": rng.choice(("trial", "field")), "seed": rng.choice(seeds)}
                yield kind, "/v1/uncertainty", json.dumps(body).encode(), body
            elif kind == "ingest":
                index = ingest % len(self.ingests)
                ingest += CONNECTIONS
                yield kind, "/v1/ingest", self.ingests[index], index
            else:
                yield kind, "/v1/monitor", None, None

    def warmup(self):
        """Set-up requests: build and cache both workloads, spawn the pool,
        and run every system and request kind once per pool worker."""
        for _ in range(WARMUP_ROUNDS):
            for spec in self.specs:
                for system in EVALUATE_SYSTEMS:
                    body = {"workload": spec, "system": system, "seed": self.seed * 100}
                    yield "evaluate", "/v1/evaluate", json.dumps(body).encode(), body
                body = {"workload": spec, "systems": list(COMPARE_SYSTEMS),
                        "seed": self.seed * 100}
                yield "compare", "/v1/compare", json.dumps(body).encode(), body
        for profile in ("trial", "field"):
            body = {"profile": profile, "seed": self.seed * 100}
            yield "uncertainty", "/v1/uncertainty", json.dumps(body).encode(), body
        yield "ingest", "/v1/ingest", self.ingests[0], 0
        yield "monitor", "/v1/monitor", None, None


@dataclass
class Reply:
    kind: str
    key: Any
    status: int
    body: bytes
    latency: float
    done: float


@dataclass
class Client:
    """One keep-alive connection in a closed loop."""

    host: str
    port: int
    _reader: Any = None
    _writer: Any = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def send(self, kind: str, path: str, body: bytes | None, key: Any) -> Reply:
        """One request; a dropped connection is a failed reply (status 0)."""
        method = "GET" if body is None else "POST"
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        start = time.perf_counter()
        try:
            if self._writer is None:
                await self.connect()
            self._writer.write(head.encode() + b"\r\n" + (body or b""))
            await self._writer.drain()
            status_line = await self._reader.readline()
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            payload = await self._reader.readexactly(length)
        except (ConnectionError, OSError, asyncio.IncompleteReadError, IndexError, ValueError):
            await self.close()
            status, payload = 0, b""
        done = time.perf_counter()
        return Reply(kind, key, status, payload, done - start, done)


def ok(reply: Reply) -> bool:
    return 200 <= reply.status < 300


@dataclass
class Block:
    """One block of the closed loop, with the speed references around it."""

    index: int
    start: float
    end: float
    ref_before: float
    ref_after: float
    #: Load-generator CPU seconds spent during the block.
    cpu: float
    replies: list[Reply]

    def raw_rate(self) -> float:
        """Successful requests per second, as measured."""
        return sum(ok(reply) for reply in self.replies) / (self.end - self.start)

    def slowdown(self) -> float:
        """The machine's slowdown, from the references around the block."""
        return speed.slowdown(self.ref_before, self.ref_after)

    def rate(self) -> float:
        """Successful requests per second at nominal machine speed."""
        return self.raw_rate() * self.slowdown()

    def latencies(self) -> list[float]:
        """Normalised latencies; failed or refused requests are infinitely slow."""
        factor = self.slowdown()
        return [reply.latency / factor if ok(reply) else math.inf for reply in self.replies]


async def closed_loop(
    clients: list[Client],
    plan: Plan,
    seconds: float,
    reference: Callable[[], float],
    before_block: Any = None,
) -> list[Block]:
    """Drive every client for ``seconds``, in blocks of :data:`BLOCK_S`.

    Each connection sends its next request when its reply has arrived,
    until the block's time is up.  Between blocks every connection is
    idle: ``reference()`` times the machine's speed then (the runner
    stops the server meanwhile), and ``before_block(index)`` (the traced
    run flips server-side tracing) is awaited.
    """
    streams = [plan.stream(index) for index in range(len(clients))]
    blocks: list[Block] = []
    ref = reference()
    for index in range(max(1, round(seconds / BLOCK_S))):
        if before_block is not None:
            await before_block(index)
        replies: list[Reply] = []
        cpu = time.process_time()
        start = time.perf_counter()
        deadline = start + BLOCK_S

        async def drive(client: Client, stream: Any) -> None:
            while time.perf_counter() < deadline:
                replies.append(await client.send(*next(stream)))

        await asyncio.gather(*(drive(c, s) for c, s in zip(clients, streams)))
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        after = reference()
        blocks.append(Block(index, start, end, ref, after, cpu, replies))
        ref = after
    return blocks


# -- oracles -------------------------------------------------------------


def check(plan: Plan, replies: list[Reply], final_monitor: Reply, ingested: list[int]) -> list[str]:
    """Every successful reply against the package's own standalone paths.

    * evaluate/compare: ``evaluate_system_batch`` of a fresh system at the
      request's seed and the service's chunk size;
    * uncertainty: ``failure_probability_interval`` at the request's seed;
    * the final ``/v1/monitor`` report: batch ``monitor_records`` over
      every ingested record, in arrival order.
    """
    import warnings

    from repro.analysis import monitor_records
    from repro.core import PAPER_FIELD_PROFILE, PAPER_TRIAL_PROFILE, paper_example_parameters
    from repro.engine.executor import DEFAULT_CHUNK_SIZE, evaluate_system_batch
    from repro.service.protocol import evaluation_payload, interval_payload, monitoring_report_payload
    from repro.sweep.grid import SystemSpec, WorkloadSpec
    from repro.trial import TrialRecords, record_from_entry

    import workloads

    warnings.simplefilter("ignore")
    built: dict[str, Any] = {}
    evaluations: dict[tuple, dict] = {}
    intervals: dict[tuple, dict] = {}
    uncertain = workloads.uncertain_model()
    profiles = {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE}

    def roundtrip(payload: dict) -> dict:
        return json.loads(json.dumps(payload))

    def expected_evaluation(spec: dict, system: dict, seed: int) -> dict:
        key = (json.dumps(spec, sort_keys=True), json.dumps(system, sort_keys=True), seed)
        if key not in evaluations:
            workload_spec = WorkloadSpec(**spec)
            if workload_spec.key() not in built:
                built[workload_spec.key()] = workload_spec.build()
            system_spec = SystemSpec(**system)
            evaluations[key] = roundtrip(evaluation_payload(evaluate_system_batch(
                system_spec.build(seed), built[workload_spec.key()],
                seed=seed, chunk_size=DEFAULT_CHUNK_SIZE,
            )))
        return evaluations[key]

    problems = []
    for reply in replies:
        if not ok(reply):
            continue
        got = json.loads(reply.body)
        key = reply.key
        if reply.kind == "evaluate":
            if got["evaluation"] != expected_evaluation(key["workload"], key["system"], key["seed"]):
                problems.append(f"evaluate {key}: response differs from standalone")
        elif reply.kind == "compare":
            expected = [expected_evaluation(key["workload"], system, key["seed"])
                        for system in key["systems"]]
            if got["evaluations"] != expected:
                problems.append(f"compare {key}: response differs from standalone")
        elif reply.kind == "uncertainty":
            cache_key = (key["profile"], key["seed"])
            if cache_key not in intervals:
                intervals[cache_key] = roundtrip(interval_payload(
                    uncertain.failure_probability_interval(
                        profiles[key["profile"]], num_samples=10_000, seed=key["seed"]
                    )
                ))
            if got["interval"] != intervals[cache_key]:
                problems.append(f"uncertainty {key}: interval differs")
        elif reply.kind == "ingest":
            if got["received"] != len(plan.ingest_records[key]):
                problems.append(f"ingest {key}: received {got['received']}")
    records = TrialRecords()
    for index in ingested:
        for entry in plan.ingest_records[index]:
            records.append(record_from_entry(entry))
    expected_report = roundtrip(monitoring_report_payload(
        monitor_records(records, paper_example_parameters(), PAPER_FIELD_PROFILE, alpha=0.01)
    ))
    if not ok(final_monitor):
        problems.append(f"final /v1/monitor failed with status {final_monitor.status}")
    elif json.loads(final_monitor.body)["report"] != expected_report:
        problems.append("final /v1/monitor report differs from batch monitor_records")
    return problems

