"""Launch the screening service with ``repro serve`` defaults.

Started by ``run.py`` in its own process.  Prints ``ready <port>`` once
listening.  ``SIGTERM`` stops it the way Ctrl-C stops ``repro serve``:
the service drains, then this process prints the peak resident memory
of itself and its engine pool and exits.

With ``--trace 1`` the layer wrappers are installed before the service
is built (so warm-up is traced), ``SIGUSR2`` removes them and ``SIGUSR1``
puts them back, letting the load generator alternate untraced and
traced blocks.  Spans are written to ``--trace-out`` on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import signal
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set of one process, from the kernel's own counter."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def install_service_layers(tracer, pending: dict[int, int]) -> None:
    """Wrap the public functions the server process calls per request.

    The plain wrappers come from :data:`layers.WRAPS`; the micro-batcher
    gets its own here, to link each submitted item to its dispatch.
    """
    import layers
    from repro.service import MicroBatcher

    layers.install(tracer, layers.SERVER)

    original_submit = MicroBatcher.submit

    def submit(self: Any, key: Any, item: Any) -> Any:
        span_id = tracer.new_id()
        pending[id(item)] = span_id
        start = time.perf_counter()
        context = tracer.context()
        future = original_submit(self, key, item)
        future.add_done_callback(
            lambda _: tracer.record(span_id, "service.submit", start, time.perf_counter(), context)
        )
        return future

    tracer.replace(MicroBatcher, "submit", submit)

    original_init = MicroBatcher.__init__

    def init(self: Any, dispatch: Any, **kwargs: Any) -> None:
        async def traced_dispatch(key: Any, items: Any) -> Any:
            if not tracer.installed:
                return await dispatch(key, items)
            span_id = tracer.new_id()
            for item in items:
                submitted = pending.pop(id(item), None)
                if submitted is not None:
                    tracer.links.append((submitted, span_id))
            start = time.perf_counter()
            try:
                return await dispatch(key, items)
            finally:
                tracer.record(span_id, "service.dispatch", start, time.perf_counter(),
                              (None, None), units=len(items))

        original_init(self, traced_dispatch, **kwargs)

    tracer.replace(MicroBatcher, "__init__", init)


async def run(args: argparse.Namespace, imported: tuple[float, float]) -> None:
    from repro.service import ScreeningService, ServiceConfig, serve

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    pending: dict[int, int] = {}
    if tracer is not None:
        tracer.record(tracer.new_id(), "import.repro", *imported, (None, None))
        install_service_layers(tracer, pending)
    service = ScreeningService(ServiceConfig())
    loop = asyncio.get_running_loop()
    ready = asyncio.Event()
    server = asyncio.ensure_future(serve(service, "127.0.0.1", args.port, ready=ready))
    peak: dict[str, float] = {}

    def stop() -> None:
        pool = [child.pid for child in multiprocessing.active_children()]
        peak["server"] = vm_hwm_mb("self")
        peak["pool"] = sum(vm_hwm_mb(pid) for pid in pool)
        server.cancel()

    def toggle(on: bool) -> None:
        if tracer is None:
            return
        if on and not tracer.installed:
            install_service_layers(tracer, pending)
        elif not on and tracer.installed:
            tracer.uninstall()
        now = time.perf_counter()
        tracer.record(tracer.new_id(), "trace.on" if on else "trace.off", now, now, (None, None))

    loop.add_signal_handler(signal.SIGTERM, stop)
    loop.add_signal_handler(signal.SIGUSR1, toggle, True)
    loop.add_signal_handler(signal.SIGUSR2, toggle, False)
    waiter = asyncio.ensure_future(ready.wait())
    await asyncio.wait([server, waiter], return_when=asyncio.FIRST_COMPLETED)
    if not ready.is_set():
        waiter.cancel()
        await server  # surfaces the bind error
        return
    print(f"ready {args.port}", flush=True)
    try:
        await server
    except asyncio.CancelledError:
        pass
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(args.trace_out))
    print(f"peak_rss_mb {peak.get('server', 0.0) + peak.get('pool', 0.0)!r}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=str(HERE / "out" / "server-trace.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    began = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import is a set-up layer)

    asyncio.run(run(args, (began, time.perf_counter())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
