"""Job model: validated submissions and lock-guarded job records.

A :class:`JobSpec` is the immutable, validated form of one submission
payload; a :class:`JobRecord` is the service's mutable view of that job
as it moves through ``queued -> running -> {succeeded, failed,
cancelled}``.  Records are mutated from the dispatcher, per-job monitor
threads and HTTP handler threads, so every mutator holds the record's
lock and readers only ever see consistent snapshots.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Any

from ..core.config import ComPLxConfig
from ..core.effort import effort_preset
from .queue import BACKGROUND_PRIORITY

__all__ = [
    "CONFIG_OVERRIDES",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobValidationError",
    "TERMINAL_STATES",
]


class JobValidationError(ValueError):
    """A submission payload the service refuses (HTTP 400)."""


class JobState:
    """The job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)

#: ComPLx config fields a submission may override, with validators.
CONFIG_OVERRIDES = {
    "max_iterations": int,
    "gamma": float,
    "seed": int,
    "net_model": str,
    "projection_method": str,
    "gap_tol": float,
    "gap_tolerance": float,
    "pi_tol_fraction": float,
    "lambda_init_ratio": float,
    "lambda_growth_cap": float,
    "lambda_h_factor": float,
    "lambda_mode": str,
    "refine_every": int,
    "cg_tol": float,
    "cg_max_iter": int,
    "init_sweeps": int,
}

_WORKLOAD_KINDS = ("suite", "synthetic", "aux")
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,32}$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


def _non_finite_path(value: Any, path: str) -> str | None:
    """The dotted path of the first NaN or infinity inside ``value``.

    ``json.loads`` accepts ``NaN``, ``Infinity`` and ``-Infinity``; none
    of them is a valid value for any field of a submission.
    """
    stack = [(value, path)]
    while stack:
        item, where = stack.pop()
        if isinstance(item, float) and not math.isfinite(item):
            return where
        if isinstance(item, dict):
            stack.extend((v, f"{where}.{k}") for k, v in item.items())
        elif isinstance(item, list):
            stack.extend((v, f"{where}[{i}]") for i, v in enumerate(item))
    return None


@dataclass(frozen=True)
class JobSpec:
    """One validated placement job.

    ``workload`` describes the netlist source (already validated):

    * ``{"kind": "suite", "suite": <registered name>, "scale": f}`` —
      a registered synthetic benchmark,
    * ``{"kind": "synthetic", "num_cells": n, "seed": s, ...}`` — an ad
      hoc synthetic design (extra keys go to ``SyntheticSpec``),
    * ``{"kind": "aux", "path": p}`` — a Bookshelf ``.aux`` on the
      server (only when the runtime was configured with an aux root).
    """

    job_id: str
    tenant: str
    name: str
    priority: int
    workload: dict[str, Any]
    config: dict[str, Any]
    legalizer: str
    detailed: bool
    deadline_seconds: float | None
    max_retries: int | None
    include_placement: bool
    #: Coloquinte-style effort preset (1..9); the worker expands it into
    #: config knobs, with explicit ``config`` entries winning.
    effort: int | None = None

    @classmethod
    def from_payload(
        cls,
        payload: dict[str, Any],
        job_id: str,
        default_tenant: str = "default",
    ) -> "JobSpec":
        """Validate one submission payload into a spec.

        Raises :class:`JobValidationError` with a client-appropriate
        message on anything malformed.
        """
        _require(isinstance(payload, dict), "payload must be a JSON object")
        known = {"tenant", "name", "priority", "workload", "config",
                 "legalizer", "detailed", "deadline_seconds",
                 "max_retries", "include_placement", "effort"}
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown field(s): {', '.join(unknown)}")
        for key in sorted(payload):
            bad = _non_finite_path(payload[key], key)
            _require(bad is None, f"{bad} must be a finite number")

        tenant = payload.get("tenant", default_tenant)
        _require(isinstance(tenant, str) and bool(_TENANT_RE.match(tenant)),
                 "tenant must match [A-Za-z0-9._-]{1,32}")
        name = payload.get("name", "job")
        _require(isinstance(name, str) and bool(_NAME_RE.match(name)),
                 "name must match [A-Za-z0-9._-]{1,64}")
        priority = payload.get("priority", 5)
        _require(isinstance(priority, int) and not isinstance(priority, bool)
                 and 0 <= priority <= 2 * BACKGROUND_PRIORITY - 1,
                 f"priority must be an integer in "
                 f"[0, {2 * BACKGROUND_PRIORITY - 1}] (0 = most urgent; "
                 f">= {BACKGROUND_PRIORITY} is the background band)")

        workload = payload.get("workload")
        _require(isinstance(workload, dict), "workload object is required")
        kind = workload.get("kind")
        _require(kind in _WORKLOAD_KINDS,
                 f"workload.kind must be one of {', '.join(_WORKLOAD_KINDS)}")
        if kind == "suite":
            _require(isinstance(workload.get("suite"), str),
                     "workload.suite (a registered suite name) is required")
            scale = workload.get("scale", 1.0)
            _require(isinstance(scale, (int, float)) and 0 < scale <= 1,
                     "workload.scale must lie in (0, 1]")
        elif kind == "synthetic":
            cells = workload.get("num_cells")
            _require(isinstance(cells, int) and 2 <= cells <= 200_000,
                     "workload.num_cells must be an int in [2, 200000]")
        else:
            _require(isinstance(workload.get("path"), str),
                     "workload.path is required for kind aux")

        config = payload.get("config", {})
        _require(isinstance(config, dict), "config must be an object")
        clean_config: dict[str, Any] = {}
        for key, value in config.items():
            caster = CONFIG_OVERRIDES.get(key)
            _require(caster is not None,
                     f"config.{key} is not an overridable knob "
                     f"(allowed: {', '.join(sorted(CONFIG_OVERRIDES))})")
            _require(caster is not str or isinstance(value, str),
                     f"config.{key} must be a str")
            try:
                clean_config[key] = caster(value)
            except (TypeError, ValueError, OverflowError):
                raise JobValidationError(
                    f"config.{key} must be a {caster.__name__}"
                ) from None
            _require(caster is not float or math.isfinite(clean_config[key]),
                     f"config.{key} must be a finite number")
        try:
            ComPLxConfig(**clean_config)
        except ValueError as exc:
            raise JobValidationError(f"config: {exc}") from None

        effort = payload.get("effort")
        if effort is not None:
            _require(isinstance(effort, int)
                     and not isinstance(effort, bool) and 1 <= effort <= 9,
                     "effort must be an integer in [1, 9]")
        preset = effort_preset(effort) if effort is not None else None

        # Absent legalizer/detailed fall back to the effort preset's
        # flow choices; explicit values always win.
        legalizer = payload.get("legalizer")
        if legalizer is None:
            legalizer = preset.legalizer if preset is not None else "abacus"
        _require(legalizer in ("abacus", "tetris", "none"),
                 "legalizer must be abacus, tetris or none")
        detailed = payload.get("detailed")
        if detailed is None:
            detailed = preset.detailed if preset is not None else False
        _require(isinstance(detailed, bool), "detailed must be a boolean")

        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            _require(isinstance(deadline, (int, float)) and deadline > 0,
                     "deadline_seconds must be a positive number")
            try:
                deadline = float(deadline)
            except OverflowError:
                raise JobValidationError(
                    "deadline_seconds must be a finite number") from None
        retries = payload.get("max_retries")
        if retries is not None:
            _require(isinstance(retries, int) and 0 <= retries <= 10,
                     "max_retries must be an int in [0, 10]")
        include_placement = payload.get("include_placement", False)
        _require(isinstance(include_placement, bool),
                 "include_placement must be a boolean")

        return cls(
            job_id=job_id, tenant=tenant, name=name, priority=priority,
            workload=dict(workload), config=clean_config,
            legalizer=legalizer, detailed=detailed,
            deadline_seconds=deadline, max_retries=retries,
            include_placement=include_placement, effort=effort,
        )


def _append_bounded(events: list[dict[str, Any]], event: dict[str, Any],
                    keep: int) -> int:
    """Append ``event``, dropping the oldest beyond ``keep``; returns how
    many were dropped.  The caller holds the record's lock."""
    events.append(event)
    drop = max(len(events) - keep, 0)
    del events[:drop]
    return drop


@dataclass
class JobRecord:
    """The service-side mutable state of one job (lock-guarded)."""

    spec: JobSpec
    keep_events: int = 2000
    state: str = JobState.QUEUED
    attempts: int = 0
    tier: str = "full"
    error: str | None = None
    result: dict[str, Any] | None = None
    report_html: str | None = None
    metrics: dict[str, Any] | None = None
    trace_doc: dict[str, Any] | None = None
    run_dir: str | None = None
    enqueued_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    recovery: list[dict[str, Any]] = field(default_factory=list)
    _events: list[dict[str, Any]] = field(default_factory=list, repr=False)
    _events_dropped: int = 0
    _cancel: threading.Event = field(default_factory=threading.Event,
                                     repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)
    #: Notified, under ``_lock``, whenever an event is appended or the
    #: state changes, so event streams wait instead of polling.
    _changed: threading.Condition = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._changed = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # mutation (all under the lock)
    # ------------------------------------------------------------------
    def add_event(self, event: dict[str, Any]) -> None:
        """Append one progress event (bounded; oldest dropped first)."""
        with self._lock:
            self._events_dropped += _append_bounded(
                self._events, event, self.keep_events)
            self._changed.notify_all()

    def record_recovery(self, entry: dict[str, Any]) -> None:
        """Append one service-level recovery action (attempt crash/retry)."""
        with self._lock:
            self.recovery.append(entry)

    def transition(self, state: str, *, error: str | None = None,
                   now: float | None = None,
                   event: dict[str, Any] | None = None) -> None:
        """Change state; ``event`` is appended in the same locked step,
        so a reader that sees a terminal state also sees its event."""
        with self._lock:
            if event is not None:
                self._events_dropped += _append_bounded(
                    self._events, event, self.keep_events)
            self.state = state
            if error is not None:
                self.error = error
            if state == JobState.RUNNING and self.started_at is None:
                self.started_at = now
            if state in TERMINAL_STATES:
                self.finished_at = now
            self._changed.notify_all()

    def start_attempt(self, tier: str, now: float) -> int:
        """Mark one worker attempt started; returns its 1-based ordinal."""
        with self._lock:
            self.attempts += 1
            self.tier = tier
            self.state = JobState.RUNNING
            if self.started_at is None:
                self.started_at = now
            return self.attempts

    def complete(self, result: dict[str, Any], report_html: str | None,
                 metrics: dict[str, Any] | None, now: float,
                 run_dir: str | None = None,
                 event: dict[str, Any] | None = None) -> None:
        """Succeed with the archived ``run_dir`` and the terminal
        ``event`` in one locked step."""
        with self._lock:
            if event is not None:
                self._events_dropped += _append_bounded(
                    self._events, event, self.keep_events)
            self.result = result
            self.report_html = report_html
            self.metrics = metrics
            self.run_dir = run_dir
            self.state = JobState.SUCCEEDED
            self.finished_at = now
            self._changed.notify_all()

    def set_trace(self, doc: dict[str, Any]) -> None:
        """Attach the merged Chrome-trace document (tracing runs only)."""
        with self._lock:
            self.trace_doc = doc

    def trace(self) -> dict[str, Any] | None:
        with self._lock:
            return self.trace_doc

    # ------------------------------------------------------------------
    # cancellation flag (Event is internally synchronized)
    # ------------------------------------------------------------------
    def request_cancel(self) -> None:
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def wait_cancel(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds, waking early on cancel."""
        return self._cancel.wait(timeout)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        with self._lock:
            return self.state in TERMINAL_STATES

    def wait_events(self, since: int, timeout: float) -> bool:
        """Block until an event past ordinal ``since`` exists or the job is
        terminal; False if ``timeout`` seconds pass first."""
        with self._changed:
            return self._changed.wait_for(
                lambda: (self._events_dropped + len(self._events) > since
                         or self.state in TERMINAL_STATES),
                timeout)

    def events_since(
        self, since: int,
    ) -> tuple[list[dict[str, Any]], int, int]:
        """Events with ordinal > ``since``.

        Returns ``(events, next_since, dropped)``.  Event ordinals are
        1-based and *stable*: the bounded buffer drops oldest-first, and
        ``dropped`` counts how many ordinals have been shed so far.  A
        client whose cursor ``since`` is below ``dropped`` has a gap of
        ``dropped - since`` events it can never fetch — the serving
        layer surfaces that as an explicit marker instead of silently
        resuming.
        """
        with self._lock:
            total = self._events_dropped + len(self._events)
            start = max(since - self._events_dropped, 0)
            return (list(self._events[start:]), total,
                    self._events_dropped)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready consistent view for the status endpoint."""
        with self._lock:
            doc: dict[str, Any] = {
                "job_id": self.spec.job_id,
                "tenant": self.spec.tenant,
                "name": self.spec.name,
                "priority": self.spec.priority,
                "state": self.state,
                "attempts": self.attempts,
                "tier": self.tier,
                "events": self._events_dropped + len(self._events),
                "events_dropped": self._events_dropped,
                "cancel_requested": self._cancel.is_set(),
            }
            if self.error is not None:
                doc["error"] = self.error
            if self.run_dir is not None:
                doc["run_dir"] = self.run_dir
            if self.recovery:
                doc["recovery"] = list(self.recovery)
            if self.started_at is not None and self.enqueued_at:
                doc["queue_wait_seconds"] = round(
                    self.started_at - self.enqueued_at, 6)
            if self.finished_at is not None and self.started_at is not None:
                doc["run_seconds"] = round(
                    self.finished_at - self.started_at, 6)
            return doc
