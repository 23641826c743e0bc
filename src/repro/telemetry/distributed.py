"""The distributed telemetry plane: cross-process tracing and rollup.

The serve and race runtimes execute every placement attempt in its own
``multiprocessing.Process``.  Before this module, whatever that worker
measured about itself — spans, per-iteration series, memory gauges —
died with the process: the parent saw progress events and a terminal
result, nothing more.  Four cooperating pieces fix that:

* :class:`TraceContext` — the propagation token.  The parent (the serve
  :class:`~repro.serve.runtime.JobRuntime`, the race
  :class:`~repro.race.controller.RaceController`) mints one per job or
  race, derives a child context per worker with a stable integer
  *lane*, and ships it inside the worker payload.  A worker that finds
  no context in its payload ships nothing and allocates nothing — the
  repo's zero-overhead-when-disabled contract extends across the
  process boundary.
* :class:`TelemetryShipper` — the worker side.  Wraps the worker's
  local :class:`~repro.telemetry.Tracer`/
  :class:`~repro.telemetry.MetricsRegistry` and, at natural flush
  points (per-iteration progress callbacks, the terminal message),
  builds a bounded *telemetry frame*: the span records completed since
  the last frame, series increments, gauge values and counter deltas.
  Budgets are enforced per frame and per worker; overflow is *counted*,
  never silent.
* :class:`TraceMerger` — the parent side.  Accumulates frames per
  worker plus the parent's own spans and renders one Chrome-trace
  document for the whole job/race: parent on pid 1, each worker on its
  context's lane pid with a named process, worker-internal thread
  lanes (the PR 4 per-axis solver tids) preserved.  The merge is a
  pure function of the observed frames, so re-rendering the same
  evidence is byte-identical — tested.
* :class:`FleetAggregator` — the rollup.  Folds every worker's frames
  into one fleet-wide registry snapshot: counters sum, gauges keep
  last-and-max, span durations feed bounded per-stage reservoirs that
  answer with medians, and service times feed an EWMA.  The serve
  ``/metricz`` endpoint merges this snapshot with the service's own
  counters.

Wire format (one frame)::

    {"v": 1, "trace_id": ..., "worker": ..., "lane": 3, "seq": 2,
     "epoch": 12345.678,            # perf_counter at tracer origin
     "spans": [<SpanRecord.to_json() + "tid">, ...],
     "series": {"lam": {"iterations": [...], "values": [...]}, ...},
     "gauges": {...}, "counters": {...},
     "dropped_spans": 0}

Frames ride the existing worker result pipes as ``("telemetry", frame)``
messages; nothing about the transport is new.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = [
    "FleetAggregator",
    "TelemetryShipper",
    "TraceContext",
    "TraceMerger",
]

#: Frame protocol version; bumped only on incompatible layout changes.
FRAME_VERSION = 1

#: Default budget of span records in one frame.
DEFAULT_FRAME_RECORDS = 256

#: Default budget of span records one worker may ship in total.
DEFAULT_TOTAL_RECORDS = 5000


@dataclass(frozen=True)
class TraceContext:
    """The cross-process trace propagation token.

    ``trace_id`` names the whole distributed trace (one job, one race);
    ``parent_span`` is the parent-side span the worker's spans nest
    under; ``worker`` labels this process's lane in the merged view and
    ``lane`` is its stable Chrome-trace pid (>= 2; pid 1 is the
    parent).  The record budgets ride along so the worker needs no
    other configuration.
    """

    trace_id: str
    parent_span: str = "root"
    worker: str = "parent"
    lane: int = 1
    max_frame_records: int = DEFAULT_FRAME_RECORDS
    max_total_records: int = DEFAULT_TOTAL_RECORDS

    def child(self, worker: str, lane: int) -> "TraceContext":
        """Derive the context handed to one worker process."""
        if lane < 2:
            raise ValueError("worker lanes start at 2 (pid 1 is the parent)")
        return TraceContext(
            trace_id=self.trace_id,
            parent_span=self.parent_span,
            worker=worker,
            lane=int(lane),
            max_frame_records=self.max_frame_records,
            max_total_records=self.max_total_records,
        )

    def to_wire(self) -> dict[str, Any]:
        """The JSON-safe form carried inside a worker payload."""
        return {
            "trace_id": self.trace_id,
            "parent_span": self.parent_span,
            "worker": self.worker,
            "lane": self.lane,
            "max_frame_records": self.max_frame_records,
            "max_total_records": self.max_total_records,
        }

    @classmethod
    def from_wire(cls, doc: dict[str, Any] | None) -> "TraceContext | None":
        """Rebuild a context from a payload entry; None stays None.

        The None passthrough is the worker-side gate: payloads from a
        runtime with tracing disabled simply lack the entry, and every
        shipping call site guards on the rebuilt context being
        installed.
        """
        if doc is None:
            return None
        return cls(
            trace_id=str(doc["trace_id"]),
            parent_span=str(doc.get("parent_span", "root")),
            worker=str(doc.get("worker", "worker")),
            lane=int(doc.get("lane", 2)),
            max_frame_records=int(doc.get("max_frame_records",
                                          DEFAULT_FRAME_RECORDS)),
            max_total_records=int(doc.get("max_total_records",
                                          DEFAULT_TOTAL_RECORDS)),
        )


class TelemetryShipper:
    """Worker-side incremental frame builder (bounded, drop-counting).

    One shipper wraps one worker attempt's tracer and registry.  Every
    :meth:`flush_frame` call collects what completed since the previous
    frame; the caller sends the returned dict over its pipe (or drops
    it — the shipper's cursors only advance for what it handed out).

    Budgets: at most ``context.max_frame_records`` span records per
    frame and ``context.max_total_records`` per worker lifetime.  Spans
    beyond a budget are dropped *newest-last* (the early spans describe
    setup, the steady-state loop is self-similar) and counted in the
    frame's ``dropped_spans`` so the parent can surface the loss.
    Series increments, gauges and counters are small by construction
    (one float per name per flush) and ship unbounded.
    """

    def __init__(self, context: TraceContext, tracer: Tracer,
                 registry: MetricsRegistry | None = None) -> None:
        self.context = context
        self.tracer = tracer
        self.registry = registry
        self.dropped_spans = 0
        self._seq = 0
        self._spans_sent = 0      # index into tracer.records
        self._total_shipped = 0   # span records shipped so far
        self._series_sent: dict[str, int] = {}
        self._counters_seen: dict[str, float] = {}
        # Workers and the parent share CLOCK_MONOTONIC on the platforms
        # this repo targets, so shipping the tracer origin lets the
        # merger place worker spans on the parent's timeline.
        self._epoch = time.perf_counter()
        self._epoch_sent = False

    # ------------------------------------------------------------------
    def _collect_spans(self) -> list[dict[str, Any]]:
        records = self.tracer.records
        new = records[self._spans_sent:]
        self._spans_sent = len(records)
        budget = min(
            self.context.max_frame_records,
            max(self.context.max_total_records - self._total_shipped, 0),
        )
        if len(new) > budget:
            self.dropped_spans += len(new) - budget
            new = new[:budget]
        self._total_shipped += len(new)
        out = []
        for record in new:
            doc = record.to_json()
            doc["tid"] = record.tid
            out.append(doc)
        return out

    def _collect_series(self) -> dict[str, dict[str, list[float]]]:
        if self.registry is None:
            return {}
        out: dict[str, dict[str, list[float]]] = {}
        for name in self.registry.series_names():
            series = self.registry.series(name)
            sent = self._series_sent.get(name, 0)
            if len(series) > sent:
                out[name] = {
                    "iterations": list(series.iterations[sent:]),
                    "values": list(series.values[sent:]),
                }
                self._series_sent[name] = len(series)
        return out

    def _collect_scalars(self) -> tuple[dict[str, float], dict[str, float]]:
        if self.registry is None:
            return {}, {}
        gauges = dict(self.registry.gauges())
        deltas: dict[str, float] = {}
        for name, value in self.registry.counters().items():
            prior = self._counters_seen.get(name, 0.0)
            if value != prior:
                deltas[name] = value - prior
                self._counters_seen[name] = value
        return gauges, deltas

    # ------------------------------------------------------------------
    def flush_frame(self, force: bool = False) -> dict[str, Any] | None:
        """The next telemetry frame, or None when nothing new happened.

        ``force=True`` (the terminal flush) always returns a frame so
        the parent is guaranteed a final drop count even for a worker
        whose every span was shed.
        """
        spans = self._collect_spans()
        series = self._collect_series()
        gauges, counters = self._collect_scalars()
        if not (spans or series or gauges or counters or force):
            return None
        self._seq += 1
        frame: dict[str, Any] = {
            "v": FRAME_VERSION,
            "trace_id": self.context.trace_id,
            "worker": self.context.worker,
            "lane": self.context.lane,
            "seq": self._seq,
            "spans": spans,
            "series": series,
            "gauges": gauges,
            "counters": counters,
            "dropped_spans": self.dropped_spans,
        }
        if not self._epoch_sent:
            frame["epoch"] = self._epoch
            self._epoch_sent = True
        return frame


class TraceMerger:
    """Parent-side accumulator rendering one merged Chrome trace.

    ``ingest`` folds worker frames in arrival order; ``add_span``
    records parent-side (controller/runtime) intervals on pid 1.  :meth:`chrome_trace` renders the merged document — a
    pure function of everything ingested, so rendering twice from the
    same evidence is byte-identical.

    All mutators hold an internal lock: the serve runtime feeds a
    merger from per-job monitor threads, so the merge state must not
    assume single-threaded access.
    """

    def __init__(self, context: TraceContext,
                 process_name: str = "repro") -> None:
        self.context = context
        self.process_name = process_name
        #: perf_counter value all merged timestamps are relative to.
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._parent_events: list[dict[str, Any]] = []
        self._workers: dict[str, dict[str, Any]] = {}
        self._frames = 0

    # ------------------------------------------------------------------
    # parent-side spans (pid 1)
    # ------------------------------------------------------------------
    def add_span(self, name: str, start: float, end: float,
                 **attrs: Any) -> None:
        """Record a parent interval (``time.perf_counter`` readings)."""
        event = {
            "name": name,
            "ph": "X",
            "ts": (start - self.origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "cat": self.context.trace_id,
            "args": dict(attrs),
        }
        with self._lock:
            self._parent_events.append(event)

    # ------------------------------------------------------------------
    # worker frames
    # ------------------------------------------------------------------
    def ingest(self, frame: dict[str, Any]) -> None:
        """Fold one worker telemetry frame into the merge state."""
        worker = str(frame.get("worker", "worker"))
        with self._lock:
            state = self._workers.get(worker)
            if state is None:
                state = self._workers[worker] = {
                    "lane": int(frame.get("lane", 2)),
                    "epoch": None,
                    "spans": [],
                    "dropped": 0,
                    "frames": 0,
                }
            if frame.get("epoch") is not None:
                state["epoch"] = float(frame["epoch"])
            state["spans"].extend(frame.get("spans", ()))
            state["dropped"] = int(frame.get("dropped_spans", 0))
            state["frames"] += 1
            self._frames += 1

    @property
    def frames_observed(self) -> int:
        with self._lock:
            return self._frames

    @property
    def workers(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    def dropped_spans(self) -> int:
        """Total spans the workers had to shed under their budgets."""
        with self._lock:
            return sum(state["dropped"]
                       for state in self._workers.values())

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _worker_events(self, worker: str,
                       state: dict[str, Any]) -> list[dict[str, Any]]:
        pid = state["lane"]
        # Worker span timestamps are relative to the worker tracer's
        # origin; its shipped epoch places them on the parent timeline.
        # A missing epoch (never shipped) degrades to origin alignment.
        offset = 0.0
        if state["epoch"] is not None:
            offset = state["epoch"] - self.origin
        events: list[dict[str, Any]] = []
        tids = {1}
        for doc in state["spans"]:
            tids.add(int(doc.get("tid", 1)))
        for tid in sorted(tids):
            name = "main" if tid == 1 else f"solver-{tid}"
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": tid, "args": {"sort_index": tid},
            })
        spans = sorted(state["spans"],
                       key=lambda d: (float(d.get("start_s", 0.0)),
                                      d.get("name", "")))
        for doc in spans:
            event: dict[str, Any] = {
                "name": doc.get("name", "span"),
                "cat": self.context.trace_id,
                "ph": "X" if doc.get("phase", "span") == "span" else "i",
                "ts": (float(doc.get("start_s", 0.0)) + offset) * 1e6,
                "pid": pid,
                "tid": int(doc.get("tid", 1)),
                "args": dict(doc.get("attrs", {})),
            }
            if doc.get("parent"):
                event["args"]["parent"] = doc["parent"]
            if event["ph"] == "X":
                event["dur"] = float(doc.get("duration_s", 0.0)) * 1e6
            else:
                event["s"] = "t"
            events.append(event)
        if state["dropped"]:
            events.append({
                "name": "telemetry_frames_dropped",
                "cat": self.context.trace_id,
                "ph": "i", "s": "p",
                "ts": 0.0, "pid": pid, "tid": 1,
                "args": {"dropped_spans": state["dropped"]},
            })
        return events

    def chrome_trace(self) -> dict[str, Any]:
        """The merged Chrome-trace document (pure; render any time)."""
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": f"{self.process_name} (parent)"},
        }, {
            "name": "process_sort_index", "ph": "M", "pid": 1, "tid": 1,
            "args": {"sort_index": 1},
        }, {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "main"},
        }]
        with self._lock:
            events.extend(sorted(self._parent_events,
                                 key=lambda e: (e["ts"], e["name"])))
            for worker in sorted(self._workers):
                state = self._workers[worker]
                events.append({
                    "name": "process_name", "ph": "M",
                    "pid": state["lane"], "tid": 1,
                    "args": {"name": f"worker {worker}"},
                })
                events.append({
                    "name": "process_sort_index", "ph": "M",
                    "pid": state["lane"], "tid": 1,
                    "args": {"sort_index": state["lane"]},
                })
                events.extend(self._worker_events(worker, state))
            return {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "trace_id": self.context.trace_id,
                    "workers": sorted(self._workers),
                    "dropped_spans": sum(
                        state["dropped"]
                        for state in self._workers.values()),
                },
            }


class FleetAggregator:
    """Fleet-wide rollup of per-worker telemetry (thread-safe enough).

    The serve runtime feeds it from per-job monitor threads; every
    mutation is a single dict/list operation on structures only this
    class touches, guarded by the caller holding no lock — so the
    aggregator takes its own.  Snapshots are consistent.

    Rollup semantics:

    * counters — summed across workers and frames (frames carry
      deltas),
    * gauges — last write wins, with a parallel ``*_max`` watermark,
    * span durations — per-name bounded reservoir (newest kept) whose
      snapshot reports the median and count,
    * service times — exponentially weighted moving average.
    """

    def __init__(self, ewma_alpha: float = 0.2,
                 reservoir: int = 256) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self._lock = threading.Lock()
        self.ewma_alpha = ewma_alpha
        self.reservoir = reservoir
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._gauge_max: dict[str, float] = {}
        self._stage_durations: dict[str, list[float]] = {}
        self._service_ewma: float | None = None
        self._frames = 0
        self._workers: set[str] = set()
        self._dropped_spans: dict[str, int] = {}

    # ------------------------------------------------------------------
    def observe_frame(self, frame: dict[str, Any]) -> None:
        """Fold one worker telemetry frame into the fleet state."""
        with self._lock:
            self._frames += 1
            worker = str(frame.get("worker", "worker"))
            self._workers.add(worker)
            self._dropped_spans[worker] = int(frame.get("dropped_spans", 0))
            for name, delta in frame.get("counters", {}).items():
                self._counters[name] = \
                    self._counters.get(name, 0.0) + float(delta)
            for name, value in frame.get("gauges", {}).items():
                value = float(value)
                self._gauges[name] = value
                if value > self._gauge_max.get(name, float("-inf")):
                    self._gauge_max[name] = value
            for doc in frame.get("spans", ()):
                if doc.get("phase", "span") != "span":
                    continue
                name = str(doc.get("name", "span"))
                bucket = self._stage_durations.setdefault(name, [])
                bucket.append(float(doc.get("duration_s", 0.0)))
                if len(bucket) > self.reservoir:
                    del bucket[:len(bucket) - self.reservoir]

    def note_service_seconds(self, seconds: float) -> None:
        """Feed one completed attempt's service time into the EWMA."""
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = float(seconds)
            else:
                self._service_ewma += self.ewma_alpha * (
                    float(seconds) - self._service_ewma)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready consistent view of the fleet state."""
        with self._lock:
            stages = {
                name: {
                    "count": len(values),
                    "median_s": statistics.median(values),
                }
                for name, values in sorted(self._stage_durations.items())
                if values
            }
            doc: dict[str, Any] = {
                "frames": self._frames,
                "workers": sorted(self._workers),
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "gauge_max": dict(sorted(self._gauge_max.items())),
                "stages": stages,
                "dropped_spans": sum(self._dropped_spans.values()),
            }
            if self._service_ewma is not None:
                doc["service_seconds_ewma"] = self._service_ewma
            return doc

    def to_registry(self) -> MetricsRegistry:
        """The fleet snapshot as a ``fleet_``-prefixed registry."""
        snap = self.snapshot()
        registry = MetricsRegistry()
        registry.meta["component"] = "repro.telemetry.fleet"
        registry.counter("fleet_frames").inc(float(snap["frames"]))
        registry.gauge("fleet_workers").set(float(len(snap["workers"])))
        registry.counter("fleet_dropped_spans").inc(
            float(snap["dropped_spans"]))
        for name, value in snap["counters"].items():
            registry.counter(f"fleet_{name}").inc(float(value))
        for name, value in snap["gauges"].items():
            registry.gauge(f"fleet_{name}").set(float(value))
        for name, value in snap["gauge_max"].items():
            registry.gauge(f"fleet_{name}_max").set(float(value))
        for name, stats in snap["stages"].items():
            registry.gauge(f"fleet_stage_{name}_median_s").set(
                stats["median_s"])
            registry.gauge(f"fleet_stage_{name}_count").set(
                float(stats["count"]))
        if "service_seconds_ewma" in snap:
            registry.gauge("fleet_service_seconds_ewma").set(
                snap["service_seconds_ewma"])
        return registry
