"""Convergence metrics: counters, gauges and per-iteration series.

The :class:`MetricsRegistry` is the canonical store for everything a
ComPLx run measures about itself — the per-iteration trajectories the
paper plots (lambda, Pi, Phi, the Lagrangian), solver diagnostics (CG
iterations/residual), density overflow and stage byproducts (legalizer
displacement).  The registry round-trips through JSONL so trajectories
can be archived next to ``BENCH_*.json`` files and re-plotted without
re-running the placer.

Three instrument kinds:

* :class:`Counter` — monotonically accumulating total (``inc``),
* :class:`Gauge` — last-write-wins scalar (``set``),
* :class:`Series` — (iteration, value) pairs, the per-iteration
  trajectories (``record``).

A module-level *active registry* mirrors the tracer protocol: stage
code outside the placer loop (legalizers, solvers) records into
:func:`get_metrics` when one is installed and pays a single None check
otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Series",
    "get_metrics",
    "metrics",
    "set_metrics",
]


@dataclass
class Counter:
    """Accumulating total, e.g. total CG iterations across a run."""

    name: str
    value: float = 0.0
    # Counters are bumped from worker threads (the per-axis solves, the
    # serve runtime's job monitors), so the increment is locked.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def to_json(self) -> dict[str, Any]:
        return {"kind": "counter", "name": self.name, "value": self.value}


@dataclass
class Gauge:
    """Last-write-wins scalar, e.g. the most recent legalizer displacement."""

    name: str
    value: float = 0.0
    updates: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updates += 1

    def to_json(self) -> dict[str, Any]:
        return {"kind": "gauge", "name": self.name, "value": self.value,
                "updates": self.updates}


@dataclass
class Series:
    """A per-iteration trajectory: parallel (iteration, value) lists."""

    name: str
    iterations: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, iteration: int, value: float) -> None:
        self.iterations.append(int(iteration))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return self.values[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def iteration_array(self) -> np.ndarray:
        return np.asarray(self.iterations, dtype=np.int64)

    def to_json(self) -> dict[str, Any]:
        return {"kind": "series", "name": self.name,
                "iterations": self.iterations, "values": self.values}


class MetricsRegistry:
    """Named counters, gauges and series plus free-form string metadata."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._series: dict[str, Series] = {}
        self.meta: dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def series(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name)
        return series

    def has_series(self, name: str) -> bool:
        return name in self._series

    def series_names(self) -> list[str]:
        """Series names in insertion (recording) order."""
        return list(self._series)

    def counters(self) -> dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def gauges(self) -> dict[str, float]:
        return {name: g.value for name, g in self._gauges.items()}

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def record_iteration(self, iteration: int, **values: float) -> None:
        """Record one value into several series at the same iteration."""
        for name, value in values.items():
            self.series(name).record(iteration, value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add, gauges take the other's latest value, series are
        adopted wholesale (name collisions: the other registry wins).
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.updates:
                self.gauge(name).set(gauge.value)
        for name, series in other._series.items():
            ours = self.series(name)
            ours.iterations = list(series.iterations)
            ours.values = list(series.values)
        self.meta.update(other.meta)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "counters": [c.to_json() for c in self._counters.values()],
            "gauges": [g.to_json() for g in self._gauges.values()],
            "series": [s.to_json() for s in self._series.values()],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.meta.update(doc.get("meta", {}))
        for item in doc.get("counters", []):
            registry.counter(item["name"]).inc(float(item["value"]))
        for item in doc.get("gauges", []):
            gauge = registry.gauge(item["name"])
            gauge.value = float(item["value"])
            gauge.updates = int(item.get("updates", 1))
        for item in doc.get("series", []):
            series = registry.series(item["name"])
            series.iterations = [int(i) for i in item["iterations"]]
            series.values = [float(v) for v in item["values"]]
        return registry

    def write_json(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
        return path

    def write_jsonl(self, path: str) -> str:
        """One instrument per line: meta first, then counters, gauges,
        series in insertion order."""
        with open(path, "w") as handle:
            if self.meta:
                handle.write(json.dumps(
                    {"kind": "meta", "values": self.meta}) + "\n")
            for group in (self._counters, self._gauges, self._series):
                for instrument in group.values():
                    handle.write(json.dumps(instrument.to_json()) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path: str) -> "MetricsRegistry":
        registry = cls()
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                item = json.loads(line)
                kind = item.get("kind")
                if kind == "meta":
                    registry.meta.update(item["values"])
                elif kind == "counter":
                    registry.counter(item["name"]).inc(float(item["value"]))
                elif kind == "gauge":
                    gauge = registry.gauge(item["name"])
                    gauge.value = float(item["value"])
                    gauge.updates = int(item.get("updates", 1))
                elif kind == "series":
                    series = registry.series(item["name"])
                    series.iterations = [int(i) for i in item["iterations"]]
                    series.values = [float(v) for v in item["values"]]
                else:
                    raise ValueError(
                        f"{path}: unknown instrument kind {kind!r}")
        return registry

    def write_csv(self, path: str, series_names: list[str] | None = None,
                  index: str = "iteration") -> str:
        """Aligned iteration series as one CSV table.

        All exported series must share the same iteration index (true
        for the per-iteration placer series).  Column order follows
        ``series_names`` (default: insertion order).
        """
        names = series_names if series_names is not None else self.series_names()
        columns = [self.series(n) for n in names]
        if columns:
            length = len(columns[0])
            for column in columns:
                if len(column) != length:
                    raise ValueError(
                        f"series {column.name!r} has {len(column)} entries, "
                        f"expected {length}; CSV export needs aligned series"
                    )
            iterations = columns[0].iterations
        else:
            iterations = []
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([index, *names])
            for i, iteration in enumerate(iterations):
                writer.writerow([iteration, *(c.values[i] for c in columns)])
        return path


# ----------------------------------------------------------------------
# the module-level active registry
# ----------------------------------------------------------------------
_ACTIVE: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The installed cross-stage registry, or None when disabled."""
    return _ACTIVE


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or with None, remove) the active registry; returns the
    previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def metrics(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Scoped installation mirroring :func:`repro.telemetry.tracing`."""
    if registry is None:
        registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
