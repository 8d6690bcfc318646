"""Spans recorded from outside the program, around its public functions.

A :class:`Tracer` replaces chosen public functions and methods of the
``repro`` package with thin wrappers that record one span per call —
name, start, end, the enclosing span, the request (or op) it serves, the
thread it ran on, and how many units of work it covered (cases, draws,
items, records).  Spans stay in memory and are written out when the run
ends.  Nothing inside ``src/`` is edited: :meth:`Tracer.uninstall` puts
every original back, so untraced phases run the unmodified program.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: ``units(args, kwargs, result) -> int`` — work units one call covered.
Units = Callable[[tuple, dict, Any], int]


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int | None
    thread: int
    units: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


class Tracer:
    """Collects spans from wrapped public functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._requests = itertools.count(1)
        #: ``(submit span, dispatch span)`` pairs: which batch an item rode in.
        self.links: list[tuple[int, int]] = []

    # -- recording -----------------------------------------------------

    def next_request(self) -> int:
        """Mint a request id and make it current in this context."""
        request = next(self._requests)
        _REQUEST.set(request)
        return request

    def new_id(self) -> int:
        return next(self._ids)

    @staticmethod
    def context() -> tuple[int | None, int | None]:
        """The current ``(span, request)``, for spans recorded later."""
        return _CURRENT.get(), _REQUEST.get()

    def record(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        context: tuple[int | None, int | None],
        units: int = 1,
    ) -> None:
        """Record a span whose start and end were taken by the caller."""
        parent, request = context
        self.spans.append(
            Span(span_id, parent, name, start, end, request, threading.get_ident(), units)
        )

    @contextlib.contextmanager
    def span(self, name: str, *, request: int | None = None, units: int = 1) -> Iterator[int]:
        """Record a span around a block (ops, phases)."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        span_token = _CURRENT.set(span_id)
        request_token = _REQUEST.set(request) if request is not None else None
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(span_id, parent, name, start, end, _REQUEST.get(),
                     threading.get_ident(), units)
            )
            if request_token is not None:
                _REQUEST.reset(request_token)
            _CURRENT.reset(span_token)

    def wrap(
        self, name: str, fn: Callable, units: Units = _one, mint: bool = False
    ) -> Callable:
        """A recording wrapper around ``fn`` (sync or async).

        ``mint`` starts a new request first: the call is the first one a
        request makes into the program.
        """
        spans, ids = self.spans, self._ids
        if mint:
            inner = fn

            @functools.wraps(inner)
            def fn(*args: Any, **kwargs: Any) -> Any:
                self.next_request()
                return inner(*args, **kwargs)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = next(ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        Span(span_id, parent, name, start, end, _REQUEST.get(),
                             threading.get_ident(), units(args, kwargs, result))
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(
                    Span(span_id, parent, name, start, end, _REQUEST.get(),
                         threading.get_ident(), units(args, kwargs, result))
                )

        return wrapper

    # -- installation --------------------------------------------------

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_method(
        self, cls: type, attr: str, name: str, units: Units = _one, mint: bool = False
    ) -> None:
        """Wrap ``cls.attr`` (a plain function defined on ``cls``)."""
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr], units, mint))

    def patch_function(
        self, fn: Callable, name: str, units: Units = _one, mint: bool = False
    ) -> None:
        """Wrap a module-level function wherever ``repro`` modules bound it.

        ``from x import f`` copies the reference into the importing
        module, so every ``repro.*`` module attribute that *is* ``fn``
        is replaced by one shared wrapper.
        """
        wrapper = self.wrap(name, fn, units, mint)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original (in reverse order of installation)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output --------------------------------------------------------

    def dump(self, path: Path, **meta: Any) -> None:
        """Write every span (and run metadata) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "fields": list(Span._fields),
                   "spans": [list(span) for span in self.spans], "links": self.links}
        path.write_text(json.dumps(payload))


def load_spans(path: Path) -> tuple[list[Span], list[tuple[int, int]]]:
    """Read the spans and links written by :meth:`Tracer.dump`."""
    payload = json.loads(path.read_text())
    return [Span(*row) for row in payload["spans"]], [tuple(link) for link in payload["links"]]


# -- analysis -----------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class LayerTotals(NamedTuple):
    calls: int
    seconds: float
    self_seconds: float
    units: int


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, inclusive time, self time and units per span name.

    Self time is a span's duration minus the part of its interval that
    its own child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for span in spans:
        row = acc[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += span.duration - union_length(children.get(span.id, ()))
        row[3] += span.units
    return {
        name: LayerTotals(int(c), s, self_s, int(u))
        for name, (c, s, self_s, u) in acc.items()
    }


def coverage_share(spans: list[Span], root: str, exclude: Iterable[str] = ()) -> float:
    """Share of ``root`` spans' wall time covered by the spans under them.

    Spans at any depth count, except those named in ``exclude`` (phases
    that mark a part of the op rather than a layer of the program).
    """
    by_id = {span.id: span for span in spans}
    roots = {span.id: span for span in spans if span.name == root}
    skip = set(exclude)
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.name in skip or span.id in roots:
            continue
        ancestor = span.parent
        while ancestor is not None and ancestor not in roots:
            ancestor = by_id[ancestor].parent if ancestor in by_id else None
        if ancestor is not None:
            covered[ancestor].append((span.start, span.end))
    wall = sum(span.duration for span in roots.values())
    if wall <= 0:
        return 0.0
    return sum(union_length(covered[i]) for i in roots) / wall


def render_table(totals: dict[str, LayerTotals], wall: float) -> str:
    """Per-span table: calls, inclusive ms, self ms, self share of ``wall``."""
    lines = [f"{'span':34} {'calls':>8} {'total ms':>11} {'self ms':>11} {'self %':>7}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1].self_seconds):
        share = 100.0 * row.self_seconds / wall if wall > 0 else 0.0
        lines.append(
            f"{name:34} {row.calls:8d} {row.seconds * 1e3:11.1f} "
            f"{row.self_seconds * 1e3:11.1f} {share:7.1f}"
        )
    return "\n".join(lines)
