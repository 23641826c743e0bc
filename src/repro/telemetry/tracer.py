"""Tracing spans: nested wall/CPU timing of the placement pipeline.

A :class:`Tracer` records *spans* — named, nested intervals measured
with ``time.perf_counter`` (wall) and ``time.process_time`` (CPU) — and
*instants* (zero-duration annotations, e.g. recovery events).  Spans
are opened with a context manager or a decorator::

    tracer = Tracer()
    with tracing(tracer):
        with span("cg_solve", axis="x") as sp:
            ...
            sp.annotate("iterations", 42)

    tracer.write_jsonl("run.trace.jsonl")          # one span per line
    tracer.write_chrome_trace("run.trace.json")    # chrome://tracing

Zero overhead when disabled
---------------------------
No tracer is installed by default.  The module-level :func:`span` and
:func:`instant` helpers check the active tracer and, when none is
installed, return the shared :data:`NULL_SPAN` singleton / return
immediately — no allocation, no record, no timing call.  Instrumented
hot paths therefore pay a single attribute load and comparison per
call site.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "NULL_SPAN",
    "SpanRecord",
    "StageStats",
    "Tracer",
    "get_tracer",
    "instant",
    "set_tracer",
    "span",
    "traced",
    "tracing",
]


@dataclass
class SpanRecord:
    """One completed span (or instant, when ``duration_s`` is 0 and
    ``phase`` is ``"instant"``)."""

    name: str
    start_s: float            # seconds since the tracer's origin (wall)
    duration_s: float         # wall-clock duration
    cpu_s: float              # CPU time consumed inside the span
    depth: int                # nesting depth (0 = top level)
    parent: str | None = None  # name of the enclosing open span
    phase: str = "span"       # "span" | "instant"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "cpu_s": self.cpu_s,
            "depth": self.depth,
            "parent": self.parent,
            "phase": self.phase,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


@dataclass
class StageStats:
    """Aggregate of all spans sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    total_cpu_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def observe(self, duration_s: float, cpu_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.total_cpu_s += cpu_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)

    def to_json(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "total_cpu_s": self.total_cpu_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _NullSpan:
    """Shared no-op span returned while tracing is disabled.

    A singleton: entering, exiting and annotating allocate nothing, so
    instrumented hot paths stay allocation-free when no tracer is
    installed.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, key: str, value: Any) -> None:
        pass


#: The singleton no-op span (identity-testable: ``span("x") is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class _Span:
    """One live span; created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_cpu_start", "_depth",
                 "_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def annotate(self, key: str, value: Any) -> None:
        """Attach a key/value to the span (shows up in ``args`` in the
        trace viewer)."""
        self.attrs[key] = value

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._depth = len(tracer._stack)
        self._parent = tracer._stack[-1].name if tracer._stack else None
        tracer._stack.append(self)
        self._cpu_start = time.process_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        cpu_end = time.process_time()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        tracer._close(self, end, cpu_end)
        return False


class Tracer:
    """Collects spans and instants for one run.

    Spans are recorded on *exit*, in completion order; sort by
    ``start_s`` to recover chronological opening order.  A tracer is
    single-threaded by design (the placer is single-threaded); nesting
    is tracked with an explicit span stack.
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._stack: list[_Span] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _Span:
        """A context manager timing the enclosed block."""
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """A zero-duration annotation event (e.g. a recovery action)."""
        self.records.append(SpanRecord(
            name=name,
            start_s=time.perf_counter() - self._origin,
            duration_s=0.0,
            cpu_s=0.0,
            depth=len(self._stack),
            parent=self._stack[-1].name if self._stack else None,
            phase="instant",
            attrs=attrs,
        ))

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        cpu_s: float = 0.0,
        **attrs: Any,
    ) -> None:
        """Append a span timed externally (``time.perf_counter`` values).

        The span stack is not thread-safe, so code running work off the
        main thread times it locally and records the completed interval
        from the main thread afterwards.  Depth/parent come from the
        *current* stack — call this while the logical parent span is
        still open.
        """
        self.records.append(SpanRecord(
            name=name,
            start_s=start - self._origin,
            duration_s=end - start,
            cpu_s=cpu_s,
            depth=len(self._stack),
            parent=self._stack[-1].name if self._stack else None,
            attrs=attrs,
        ))

    def _close(self, live: _Span, end: float, cpu_end: float) -> None:
        self.records.append(SpanRecord(
            name=live.name,
            start_s=live._start - self._origin,
            duration_s=end - live._start,
            cpu_s=cpu_end - live._cpu_start,
            depth=live._depth,
            parent=live._parent,
            attrs=live.attrs,
        ))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans(self, name: str | None = None) -> list[SpanRecord]:
        """Completed spans (not instants), optionally filtered by name,
        in chronological (start) order."""
        out = [r for r in self.records
               if r.phase == "span" and (name is None or r.name == name)]
        out.sort(key=lambda r: r.start_s)
        return out

    def instants(self, name: str | None = None) -> list[SpanRecord]:
        return [r for r in self.records
                if r.phase == "instant" and (name is None or r.name == name)]

    def total(self, name: str) -> float:
        """Total wall seconds across all spans with this name."""
        return sum(r.duration_s for r in self.records
                   if r.phase == "span" and r.name == name)

    def aggregate(self) -> dict[str, StageStats]:
        """Per-name aggregate statistics over all completed spans.

        Durations are *inclusive* (a parent's total contains its
        children), so shares of distinct nesting levels do not add up
        to 100%.
        """
        out: dict[str, StageStats] = {}
        for record in self.records:
            if record.phase != "span":
                continue
            stats = out.get(record.name)
            if stats is None:
                stats = out[record.name] = StageStats(record.name)
            stats.observe(record.duration_s, record.cpu_s)
        return out

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> str:
        """One JSON object per record, chronological by start time."""
        ordered = sorted(self.records, key=lambda r: r.start_s)
        with open(path, "w") as handle:
            for record in ordered:
                handle.write(json.dumps(record.to_json()) + "\n")
        return path

    def chrome_trace_events(self) -> list[dict[str, Any]]:
        """The Chrome-trace event list: process/thread metadata first,
        then spans/instants chronologically."""
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "repro placer"},
        }, {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "main"},
        }, {
            "name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 1,
            "args": {"sort_index": 1},
        }]
        for record in sorted(self.records, key=lambda r: r.start_s):
            event: dict[str, Any] = {
                "name": record.name,
                "cat": "placer",
                "ph": "X" if record.phase == "span" else "i",
                "ts": record.start_s * 1e6,
                "pid": 1,
                "tid": 1,
                "args": dict(record.attrs),
            }
            if record.phase == "span":
                event["dur"] = record.duration_s * 1e6
            else:
                event["s"] = "t"
            events.append(event)
        return events

    def write_chrome_trace(self, path: str) -> str:
        """Chrome trace format: load in ``chrome://tracing`` or
        https://ui.perfetto.dev (timestamps in microseconds)."""
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_trace_events(),
                       "displayTimeUnit": "ms"}, handle)
        return path


# ----------------------------------------------------------------------
# the module-level active tracer
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or None while tracing is disabled."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or with None, remove) the active tracer; returns the
    previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextlib.contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scoped installation: ``with tracing() as t: ...`` traces the
    block and restores the previous tracer afterwards."""
    if tracer is None:
        tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Open a span on the active tracer; a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record an instant annotation on the active tracer, if any."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form: time every call of the function as one span."""

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _ACTIVE
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(span_name):
                return func(*args, **kwargs)

        return wrapper

    return decorate
