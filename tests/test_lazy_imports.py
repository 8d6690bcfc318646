"""``import repro`` stays cheap: scipy loads only when a computation needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The source directory the running tests imported ``repro`` from.
SRC = Path(repro.__file__).resolve().parents[1]


def run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    loaded = run(
        "import sys, repro, repro.analysis, repro.core, repro.service, repro.sweep\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_first_use_loads_scipy():
    pytest.importorskip("scipy.stats")
    loaded = run(
        "import sys\n"
        "from repro.core.uncertainty import BetaPosterior\n"
        "BetaPosterior(3.0, 5.0).quantile(0.975)\n"
        "print('scipy.stats' in sys.modules)"
    )
    assert loaded == "True"


#: Drives a service through its HTTP handler: one request of each kind,
#: an evaluate at a level outside the Wilson table, and an ingest whose
#: 200 records cross three monitoring checkpoints.  Prints the statuses,
#: the response bodies and the scipy modules loaded, as JSON.
SERVE_EVERY_KIND = r"""
import asyncio, json, sys
from repro.service import ScreeningService, ServiceConfig
from repro.service.app import _handle_request

workload = {"population": "routine", "num_cases": 300}
records = [
    {"case_id": i, "reader_name": "r", "case_class": "easy" if i % 10 else "difficult",
     "has_cancer": True, "aided": True, "machine_failed": i % 7 == 0,
     "machine_false_prompts": 0, "recalled": i % 5 != 0}
    for i in range(200)
]
requests = [
    ("POST", "/v1/evaluate", {"workload": workload, "system": {}, "seed": 1, "level": 0.93}),
    ("POST", "/v1/compare",
     {"workload": workload, "systems": [{"kind": "unaided"}, {}], "seed": 2}),
    ("POST", "/v1/uncertainty", {"seed": 3, "draws": 1000}),
    ("POST", "/v1/ingest", {"records": records}),
    ("GET", "/v1/monitor", None),
    ("GET", "/v1/metrics", None),
]

async def main():
    answers = {}
    async with ScreeningService(ServiceConfig(workers=1, monitor_check_every=64)) as service:
        for method, path, body in requests:
            raw = await _handle_request(
                service, method, path, {}, json.dumps(body).encode() if body else b""
            )
            head, _, payload = raw.partition(b"\r\n\r\n")
            answers[path] = [head.split(b"\r\n")[0].decode(), json.loads(payload)]
    return answers

answers = asyncio.run(main())
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"answers": answers, "scipy": scipy}))
"""


def test_service_answers_every_request_kind_without_scipy():
    result = json.loads(run(SERVE_EVERY_KIND))
    answers = result["answers"]
    assert list(answers) == [
        "/v1/evaluate", "/v1/compare", "/v1/uncertainty", "/v1/ingest", "/v1/monitor",
        "/v1/metrics",
    ]
    assert {status for status, _ in answers.values()} == {"HTTP/1.1 200 OK"}
    assert answers["/v1/evaluate"][1]["evaluation"]["false_negative"]["rate"] is not None
    assert answers["/v1/ingest"][1]["checkpoints"] == 3
    assert answers["/v1/monitor"][1]["report"]["tests"]
    assert result["scipy"] == []
