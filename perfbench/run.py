"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {study,sweep,service} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a value and a unit).  The exit code is 0 only
when every op succeeded and every output matched its oracle.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups measured per untraced run (the reported ``setup_s`` is their
#: median): four set-up-only probes plus the measured run's own.  One
#: study set-up, normalised, spread 19% across 15 samples; medians of
#: three still spread 15-22% across runs.
SETUP_SAMPLES = 5
#: The whole run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Pause after switching server-side tracing, so the server's event loop
#: has handled the signal before the next block of requests starts.
TOGGLE_SETTLE_S = 0.02

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU; returns the CPU.

    The speed reference (:mod:`speed`) must time the CPU the work ran
    on.  For the service it also steadies the pipeline: on a small shared
    VM, waking a process on another (idle, halted) vCPU costs a host
    round trip whose latency swings with the host's load, and a request
    crosses processes several times.  On a 2-vCPU VM, five unpinned
    service runs (the reference timed on each CPU) spread 17% in
    throughput and 34% in p99; ten pinned runs spread 7% and 6%, at the
    same median throughput.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Lines:
    """Line reader over a child's stdout with a timeout per line."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self._fd = proc.stdout.fileno()
        self._buffer = b""
        self._eof = False

    def readline(self, timeout: float) -> str | None:
        """The next line, or ``None`` at end of output."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer and not self._eof:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("child produced no line in time")
            readable, _, _ = select.select([self._fd], [], [], remaining)
            if readable:
                chunk = os.read(self._fd, 1 << 16)
                self._eof = not chunk
                self._buffer += chunk
        if not self._buffer:
            return None
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()


class Budget:
    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def spawn(args: list[str]) -> tuple[subprocess.Popen, Lines]:
    """Start a child in its own session, so its process group id is its
    pid: :func:`reap` can end the pool a server may leave behind, and
    :func:`frozen_reference` can pause the server and its pool."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, bufsize=0, env=env,
        start_new_session=True,
    )
    return proc, Lines(proc)


def reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a child; kill its whole group if it does not end in time."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:  # a group member that outlived its leader
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def frozen_reference(proc: subprocess.Popen) -> float:
    """The speed reference, timed with ``proc``'s process group stopped.

    Work the server or its pool still does after a reply would otherwise
    slow the reference, and the program's own CPU time would read as
    machine slowness.
    """
    try:
        os.killpg(proc.pid, signal.SIGSTOP)
    except ProcessLookupError:  # the server is gone; its requests fail
        return speed.reference_seconds()
    try:
        return speed.reference_seconds()
    finally:
        os.killpg(proc.pid, signal.SIGCONT)


def wait_for(lines: Lines, prefix: str, budget: Budget) -> str:
    while True:
        line = lines.readline(budget.left())
        if line is None:
            raise RuntimeError(f"child exited before printing {prefix!r}")
        if line.startswith(prefix):
            return line


# -- study and sweep: one worker process per set-up -------------------------


def run_worker(
    args: argparse.Namespace, budget: Budget, setup_only: bool
) -> tuple[float, float, dict]:
    """Start ``worker.py``.

    Returns the set-up time (until the worker prints ``ready``)
    normalised and raw, and the worker's result.
    """
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    before = speed.reference_seconds()
    start = time.perf_counter()
    proc, lines = spawn(argv)
    try:
        wait_for(lines, "ready", budget)
        setup = time.perf_counter() - start
        result: dict = {}
        while (line := lines.readline(budget.left())) is not None:
            if line.startswith("{"):
                result = json.loads(line)
        proc.wait(timeout=budget.left())
    finally:
        reap(proc, 5.0)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    # The measured run's worker times the reference right after set-up.
    after = speed.reference_seconds() if setup_only else result["refs"][0]
    return speed.normalise_seconds(setup, before, after), setup, result


def run_inprocess(args: argparse.Namespace, budget: Budget) -> dict:
    samples = []
    if not args.trace:
        samples = [run_worker(args, budget, True)[:2] for _ in range(SETUP_SAMPLES - 1)]
    setup, raw_setup, result = run_worker(args, budget, False)
    samples.append((setup, raw_setup))
    latencies = stats.latencies_with_failures(
        (x for x in result["latencies_s"] if x is not None),
        sum(x is None for x in result["latencies_s"]),
    )
    report = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "setups": [normalised for normalised, _ in samples],
        "raw_setups": [raw for _, raw in samples],
        "rates": result["rates"],
        "raw_rates": result["raw_rates"],
        "latencies": latencies,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        report["layers"] = result["layers"]
    return report


# -- service: server process + closed-loop client in this process ------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def stop_server(proc: subprocess.Popen, lines: Lines, budget: Budget) -> float:
    """SIGTERM (drain), then collect the peak-RSS line; returns MB."""
    peak = 0.0
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            while (line := lines.readline(min(budget.left(), 60.0))) is not None:
                if line.startswith("peak_rss_mb "):
                    peak = float(line.split()[1])
        except TimeoutError:
            pass
    reap(proc, 10.0)
    return peak


def run_service(args: argparse.Namespace, budget: Budget) -> dict:
    import service_load as load

    plan = load.Plan.build(args.seed)

    async def warm(port: int) -> list:
        client = load.Client("127.0.0.1", port)
        replies = [await client.send(*request) for request in plan.warmup()]
        await client.close()
        return replies

    def start(trace: int, trace_out: Path) -> tuple:
        """Server up and warm: ``(proc, lines, port, setup, raw setup, replies)``."""
        port = free_port()
        before = speed.reference_seconds()
        began = time.perf_counter()
        proc, lines = spawn([str(HERE / "server.py"), "--port", str(port),
                             "--trace", str(trace), "--trace-out", str(trace_out)])
        try:
            wait_for(lines, "ready", budget)
            replies = asyncio.run(warm(port))
        except BaseException:
            stop_server(proc, lines, budget)
            raise
        setup = time.perf_counter() - began
        after = frozen_reference(proc)
        return (proc, lines, port, speed.normalise_seconds(setup, before, after), setup,
                replies)

    trace_out = OUT / f"server-trace-seed{args.seed}-{os.getpid()}.json"
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, lines, _, setup, raw_setup, _ = start(0, trace_out)
            stop_server(proc, lines, budget)
            samples.append((setup, raw_setup))
    proc, lines, port, setup, raw_setup, warm_replies = start(args.trace, trace_out)
    samples.append((setup, raw_setup))
    try:
        clients = [load.Client("127.0.0.1", port) for _ in range(load.CONNECTIONS)]

        async def before_block(index: int) -> None:
            # Even blocks run untraced, odd blocks traced.  The server
            # starts traced (so its warm-up is traced).
            proc.send_signal(signal.SIGUSR1 if index % 2 else signal.SIGUSR2)
            await asyncio.sleep(TOGGLE_SETTLE_S)

        async def timed() -> tuple[list, load.Reply]:
            blocks = await load.closed_loop(
                clients, plan, args.seconds, lambda: frozen_reference(proc),
                before_block if args.trace else None,
            )
            for client in clients:
                await client.close()
            final = load.Client("127.0.0.1", port)
            monitor = await final.send("monitor", "/v1/monitor", None, None)
            await final.close()
            return blocks, monitor

        blocks, final_monitor = asyncio.run(timed())
    finally:
        peak = stop_server(proc, lines, budget)

    replies = sorted((r for block in blocks for r in block.replies), key=lambda r: r.done)
    ingested = [r.key for r in warm_replies + replies if r.kind == "ingest" and load.ok(r)]
    problems = load.check(plan, warm_replies + replies, final_monitor, ingested)
    problems += [f"warm-up {r.kind} failed with status {r.status}"
                 for r in warm_replies if not load.ok(r)]
    failed = sum(not load.ok(r) for r in replies) + len(problems)
    plain = [block for block in blocks if not (args.trace and block.index % 2)]
    report = {
        "attempted": len(replies),
        "failed": min(failed, len(replies)),
        "problems": problems,
        "setups": [normalised for normalised, _ in samples],
        "raw_setups": [raw for _, raw in samples],
        "rates": [block.rate() for block in plain],
        "raw_rates": [block.raw_rate() for block in plain],
        "latencies": [latency for block in plain for latency in block.latencies()],
        "peak_rss_mb": peak,
    }
    if args.trace:
        import service_trace

        report["layers"] = service_trace.from_trace(trace_out, blocks)
        trace_out.replace(OUT / f"trace-service-seed{args.seed}.json")
    return report


# -- output ------------------------------------------------------------------


def end_to_end(report: dict) -> tuple[dict[str, float], list[str]]:
    latencies = report["latencies"]
    q, tail = stats.tail(latencies)
    values = {
        "setup_s": statistics.median(report["setups"]),
        "throughput_per_s": statistics.median(report["rates"]),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": tail * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(report['setups'])} set-ups "
        + ", ".join(f"{s:.3f}" for s in report["setups"])
        + " (raw " + ", ".join(f"{s:.3f}" for s in report["raw_setups"]) + ")",
        f"throughput_per_s: median of {len(report['rates'])} samples "
        f"(range {min(report['rates']):.4g} to {max(report['rates']):.4g}; "
        f"raw median {statistics.median(report['raw_rates']):.4g})",
        f"p50_ms/p99_ms: {len(latencies)} latency samples; p99_ms reports p{q * 100:g} "
        f"(p99 needs at least {stats.MIN_BEYOND} samples beyond it, else the median)",
        f"error_rate: {stats.failure_share(report['attempted'], report['failed']):.4f} "
        f"({report['failed']} of {report['attempted']} ops failed)",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["study", "sweep", "service"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # The client imports the package only after the timed phase, to check.
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    budget = Budget(RUN_BUDGET_S)
    if args.workload == "service":
        report = run_service(args, budget)
    else:
        report = run_inprocess(args, budget)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, pinned to CPU {cpu}")
    for problem in report["problems"]:
        print(f"oracle mismatch: {problem}")
    if args.trace:
        import layers

        units = {spec["name"]: spec["unit"] for spec in layers.metric_specs()}
        values = report["layers"]
    else:
        units = UNITS
        values, notes = end_to_end(report)
        for note in notes:
            print(f"  {note}")
    metrics = {}
    for name, unit in units.items():
        value = stats.finite_or_none(float(values[name]))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40} {value!r:>24} {unit}")
    correct = not report["problems"] and report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
