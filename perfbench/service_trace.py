"""Per-layer metrics of a traced ``service`` run.

The server (``server.py``) records spans from its own wrappers; the load
generator switches them off before even blocks and on before odd ones.
Both processes read the same monotonic clock, so server spans and client
blocks line up: a span belongs to a traced block when it starts inside
one.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from pathlib import Path

import layers
import tracing


def _inside(at: float, windows: list[tuple[float, float]]) -> bool:
    return any(start <= at < end for start, end in windows)


def layers_from(spans, links, blocks, import_s) -> dict[str, float]:
    """Metrics from server spans and the client's blocks."""
    traced_blocks = [block for block in blocks if block.index % 2]
    plain_blocks = [block for block in blocks if not block.index % 2]
    windows = [(block.start, block.end) for block in traced_blocks]
    work = [s for s in spans if not s.name.startswith("trace.") and s.name != "import.repro"]
    timed = [s for s in work if _inside(s.start, windows)]
    traced_replies = [reply for block in traced_blocks for reply in block.replies]
    slowdown = statistics.median([block.slowdown() for block in blocks])
    values = layers.timed_metrics(
        tracing.layer_totals(work), tracing.layer_totals(timed), len(traced_replies), slowdown
    )

    by_id = {s.id: s for s in timed}
    waits = [by_id[submit].duration - by_id[dispatch].duration
             for submit, dispatch in links if submit in by_id and dispatch in by_id]
    dispatches = [s for s in timed if s.name == "service.dispatch"]
    gets = [s for s in timed if s.name == "service.cache_get"]
    builds_under = {s.parent for s in timed if s.name == "screening.build"}
    busy = sum(s.duration for s in timed if s.name in ("engine.map", "engine.posterior"))
    traced_wall = sum(end - start for start, end in windows)

    overhead = 0.0
    if plain_blocks and traced_blocks:
        plain = statistics.median([block.rate() for block in plain_blocks])
        traced = statistics.median([block.rate() for block in traced_blocks])
        overhead = 100.0 * (plain - traced) / plain

    per_request: dict[int, list[tuple[float, float]]] = {}
    for s in timed:
        if s.request is not None:
            per_request.setdefault(s.request, []).append((s.start, s.end))
    covered = sum(tracing.union_length(v) for v in per_request.values())
    client_wall = sum(reply.latency for reply in traced_replies)
    block_wall = sum(block.end - block.start for block in blocks)

    values.update({
        "import.repro_s": import_s / slowdown,
        "trial.journal_bytes": 0.0,
        "service.batch_wait_ms": (1e3 * sum(waits) / len(waits) / slowdown
                                  if waits else 0.0),
        "service.batch_size": (sum(s.units for s in dispatches) / len(dispatches)
                               if dispatches else 0.0),
        "service.cache_hit_ratio": (sum(s.id not in builds_under for s in gets) / len(gets)
                                    if gets else 0.0),
        "service.engine_busy_share": busy / traced_wall if traced_wall else 0.0,
        "loadgen.cpu_share": sum(block.cpu for block in blocks) / block_wall,
        "trace.overhead_pct": overhead,
        "trace.coverage_share": covered / client_wall if client_wall else 0.0,
    })
    print(tracing.render_table(tracing.layer_totals(timed), traced_wall), file=sys.stderr)
    print(mix_table(timed, per_request, traced_replies), file=sys.stderr)
    return values


def mix_table(timed, per_request, replies) -> str:
    """Requests and server time per request kind, in the traced blocks.

    A request's server time is the wall time its spans cover (parsing,
    handling, batching, serialising); its kind is the handler it reached.
    """
    kind_of = {s.request: s.name.rsplit(".", 1)[1] for s in timed
               if s.name.startswith("service.handle.")}
    server: Counter[str] = Counter()
    for request, intervals in per_request.items():
        server[kind_of.get(request, "unknown")] += tracing.union_length(intervals)
    counts = Counter(reply.kind for reply in replies)
    total_server, total_count = sum(server.values()), len(replies)
    lines = [f"{'request kind':16} {'requests':>9} {'share %':>8} {'server ms':>10} "
             f"{'server %':>9}"]
    for kind in sorted(set(counts) | set(server)):
        lines.append(
            f"{kind:16} {counts[kind]:9d} {100.0 * counts[kind] / max(total_count, 1):8.1f} "
            f"{1e3 * server[kind]:10.1f} {100.0 * server[kind] / (total_server or 1.0):9.1f}"
        )
    return "\n".join(lines)


def from_trace(trace_path: Path, blocks) -> dict[str, float]:
    """Load the server's spans and compute the per-layer metrics."""
    spans, links = tracing.load_spans(trace_path)
    imports = [s for s in spans if s.name == "import.repro"]
    import_s = imports[0].duration if imports else 0.0
    return layers_from(spans, links, blocks, import_s)
