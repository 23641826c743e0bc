"""The job runtime: admission, dispatch, isolation, retries, archiving.

One :class:`JobRuntime` owns the bounded queue, the per-tenant token
buckets, and up to ``workers`` concurrently running job attempts.  Every
attempt executes in its *own* child process (:mod:`repro.serve.worker`),
so nothing a job does — OOM kill, an injected
:class:`~repro.faults.SimulatedCrash`, a SIGKILL from the outside — can
take the service down; the monitor thread classifies the abnormal exit
as a crash and re-dispatches with exponential backoff until the retry
budget is spent, at which point the job is marked failed with its
recovery log attached.

Threading model (everything shared is lock-guarded or internally
synchronized):

* HTTP handler threads call ``submit``/``cancel``/``job``/``snapshot``,
* one dispatcher thread moves jobs from the queue onto free worker
  slots, choosing the degradation tier from queue pressure,
* one monitor thread per running job drives its attempts and archives
  the outcome into the tenant's run-registry namespace.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import threading
import time
from typing import Any

from .. import faults
from ..runs import RunRegistry
from ..telemetry import (
    FleetAggregator,
    MetricsRegistry,
    TraceContext,
    TraceMerger,
)
from .config import DegradationTier, ServeConfig
from .jobs import JobRecord, JobSpec, JobState, JobValidationError
from .queue import BACKGROUND_PRIORITY, BoundedPriorityQueue, QueueFull
from .tenants import RateLimited, TenantTable
from .worker import worker_entry

__all__ = ["JobRuntime", "ServiceStats", "ServiceUnavailable"]

logger = logging.getLogger(__name__)


class ServiceUnavailable(Exception):
    """The runtime is draining and no longer accepts work (HTTP 503)."""


class ServiceStats:
    """Service-level counters and aggregates (lock-guarded).

    ``to_registry`` snapshots everything into a fresh
    :class:`~repro.telemetry.MetricsRegistry`, which is what the
    ``/metricz`` endpoint serializes — the service's own health flows
    through the same telemetry format as placement runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._wait_total = 0.0
        self._wait_max = 0.0
        self._wait_count = 0
        self._running = 0

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def note_wait(self, seconds: float) -> None:
        with self._lock:
            self._wait_total += seconds
            self._wait_count += 1
            if seconds > self._wait_max:
                self._wait_max = seconds

    def running_delta(self, delta: int) -> None:
        with self._lock:
            self._running += delta

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    def value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            doc: dict[str, Any] = dict(sorted(self._counters.items()))
            doc["running"] = self._running
            if self._wait_count:
                doc["queue_wait_avg_seconds"] = \
                    self._wait_total / self._wait_count
                doc["queue_wait_max_seconds"] = self._wait_max
            return doc

    def to_registry(self, queue_depth: int) -> MetricsRegistry:
        snap = self.snapshot()
        registry = MetricsRegistry()
        registry.meta["component"] = "repro.serve"
        for name, value in snap.items():
            if name.endswith("_seconds"):
                registry.gauge(name).set(float(value))
            elif name == "running":
                registry.gauge("jobs_running").set(float(value))
            else:
                registry.counter(name).inc(float(value))
        registry.gauge("queue_depth").set(float(queue_depth))
        return registry


class JobRuntime:
    """The placement service minus HTTP (see :mod:`repro.serve.api`)."""

    def __init__(self, config: ServeConfig | None = None,
                 aux_root: str | None = None) -> None:
        self.config = config or ServeConfig()
        self.aux_root = aux_root
        self.queue = BoundedPriorityQueue(self.config.queue_capacity)
        self.tenants = TenantTable(self.config.tenant_rate,
                                   self.config.tenant_burst)
        self.stats = ServiceStats()
        #: Fleet-wide rollup of worker telemetry; always on (service
        #: times feed it even without tracing, frames only with it).
        self.fleet = FleetAggregator()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._next_job = 0
        self._draining = False
        self._stopped = threading.Event()
        self._slots = threading.Semaphore(self.config.workers)
        #: Background-band jobs (priority >= BACKGROUND_PRIORITY) may
        #: occupy at most this many slots, so at least one worker stays
        #: free for interactive traffic whenever workers > 1.
        self._background_limit = max(self.config.workers - 1, 1)
        self._background_running = 0
        self._monitors: list[threading.Thread] = []
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True)

    def start(self) -> "JobRuntime":
        self._dispatcher.start()
        logger.info("job runtime up: %d workers (%s), queue capacity %d",
                    self.config.workers, self.config.start_method,
                    self.config.queue_capacity)
        return self

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, payload: dict[str, Any],
               tenant_hint: str | None = None) -> JobRecord:
        """Validate and enqueue one submission.

        Raises :class:`JobValidationError` (400),
        :class:`~repro.serve.tenants.RateLimited` (429),
        :class:`~repro.serve.queue.QueueFull` (429) or
        :class:`ServiceUnavailable` (503, draining).
        """
        self.stats.inc("submitted")
        with self._lock:
            if self._draining:
                self.stats.inc("rejected_draining")
                raise ServiceUnavailable("service is draining")
            self._next_job += 1
            job_id = f"j-{self._next_job:06d}"
        try:
            spec = JobSpec.from_payload(
                payload, job_id,
                default_tenant=tenant_hint or "default")
        except JobValidationError:
            self.stats.inc("rejected_invalid")
            raise
        if spec.workload.get("kind") == "aux" and self.aux_root is None:
            self.stats.inc("rejected_invalid")
            raise JobValidationError(
                "aux workloads are disabled on this server")
        deadline = spec.deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        if deadline is not None \
                and deadline > self.config.max_deadline_seconds:
            self.stats.inc("rejected_invalid")
            raise JobValidationError(
                f"deadline_seconds exceeds the server cap "
                f"({self.config.max_deadline_seconds:g}s)")
        spec = dataclasses.replace(spec, deadline_seconds=deadline)
        try:
            self.tenants.admit(spec.tenant)
        except RateLimited:
            self.stats.inc("rejected_rate_limited")
            raise
        record = JobRecord(spec=spec, keep_events=self.config.keep_events,
                           enqueued_at=time.monotonic())
        with self._lock:
            self._jobs[job_id] = record
        try:
            depth = self.queue.put(job_id, spec.priority, record,
                                   workers=self.config.workers)
        except QueueFull:
            with self._lock:
                del self._jobs[job_id]
            self.stats.inc("rejected_queue_full")
            raise
        except RuntimeError:
            with self._lock:
                del self._jobs[job_id]
            self.stats.inc("rejected_draining")
            raise ServiceUnavailable("service is draining") from None
        self.stats.inc("accepted")
        record.add_event({"stage": "queued", "depth": depth})
        logger.info("accepted %s (%s/%s) at depth %d",
                    job_id, spec.tenant, spec.name, depth)
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        with self._lock:
            records = list(self._jobs.values())
        if tenant is not None:
            records = [r for r in records if r.spec.tenant == tenant]
        return sorted(records, key=lambda r: r.spec.job_id)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def ready(self) -> bool:
        """Readiness: accepting submissions with queue headroom."""
        return not self.draining \
            and self.queue.depth() < self.config.queue_capacity

    def registry_for(self, tenant: str) -> RunRegistry:
        return RunRegistry(os.path.join(self.config.registry_root, tenant))

    def metrics_registry(self) -> MetricsRegistry:
        """Service counters merged with the fleet telemetry rollup."""
        registry = self.stats.to_registry(self.queue.depth())
        registry.merge(self.fleet.to_registry())
        registry.meta["component"] = "repro.serve"
        return registry

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; True if anything changed."""
        record = self.job(job_id)
        if record is None or record.done:
            return False
        record.request_cancel()
        if self.queue.remove(job_id):
            record.transition(JobState.CANCELLED, now=time.monotonic(),
                              event={"stage": "cancelled", "where": "queue"})
            self.stats.inc("cancelled")
            logger.info("cancelled %s while queued", job_id)
        # A running job's monitor notices the flag within its poll
        # interval and terminates the worker process.
        return True

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` finishes every accepted job (queued and running)
        before returning, up to ``timeout`` (default: the config's
        ``drain_timeout_seconds``); whatever is still unfinished at the
        deadline is cancelled.  ``drain=False`` cancels everything
        immediately.
        """
        with self._lock:
            if self._stopped.is_set():
                return
            self._draining = True
        if timeout is None:
            timeout = self.config.drain_timeout_seconds
        logger.info("shutdown: drain=%s timeout=%.1fs", drain, timeout)
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if self.queue.depth() == 0 and self.stats.running == 0:
                    break
                time.sleep(0.05)
        # Cancel whatever is left (no-op after a clean drain).
        for item in self.queue.drain():
            item.transition(JobState.CANCELLED, now=time.monotonic(),
                            event={"stage": "cancelled", "where": "shutdown"})
            self.stats.inc("cancelled")
        for record in self.jobs():
            if not record.done:
                record.request_cancel()
        self.queue.close()
        self._stopped.set()
        self._dispatcher.join(timeout=10.0)
        with self._lock:
            monitors = list(self._monitors)
        for thread in monitors:
            thread.join(timeout=10.0)
        logger.info("job runtime stopped")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _select_tier(self, record: JobRecord) -> DegradationTier:
        """Pick the degradation tier from observed queue pressure."""
        waited = time.monotonic() - record.enqueued_at
        backlog = self.queue.estimated_wait_seconds(self.config.workers)
        pressure = max(waited, backlog)
        chosen = self.config.tiers[0]
        for tier in self.config.tiers:
            if pressure >= tier.activate_wait_seconds:
                chosen = tier
        return chosen

    def _dispatch_loop(self) -> None:
        while not self._stopped.is_set():
            if not self._slots.acquire(timeout=0.1):
                continue
            with self._lock:
                background_ok = \
                    self._background_running < self._background_limit
            record = self.queue.get(timeout=0.1,
                                    background_ok=background_ok)
            if record is None:
                self._slots.release()
                continue
            if record.cancel_requested:
                record.transition(JobState.CANCELLED, now=time.monotonic(),
                                  event={"stage": "cancelled",
                                         "where": "dispatch"})
                self.stats.inc("cancelled")
                self._slots.release()
                continue
            if record.spec.priority >= BACKGROUND_PRIORITY:
                with self._lock:
                    self._background_running += 1
                self.stats.inc("background_dispatched")
            monitor = threading.Thread(
                target=self._run_job, args=(record,),
                name=f"serve-job-{record.spec.job_id}", daemon=True)
            with self._lock:
                self._monitors.append(monitor)
                self._monitors = [t for t in self._monitors if t.is_alive()
                                  or t is monitor]
            self.stats.running_delta(1)
            monitor.start()

    # ------------------------------------------------------------------
    # one job, all attempts (runs on its monitor thread)
    # ------------------------------------------------------------------
    def _run_job(self, record: JobRecord) -> None:
        spec = record.spec
        started = time.monotonic()
        wait = started - record.enqueued_at
        self.stats.note_wait(wait)
        tier = self._select_tier(record)
        if tier is not self.config.tiers[0]:
            self.stats.inc(f"degraded_{tier.name}")
            record.add_event({"stage": "degraded", "tier": tier.name})
            logger.warning("%s degraded to tier %s (queue pressure)",
                           spec.job_id, tier.name)
        retries = spec.max_retries
        if retries is None:
            retries = self.config.max_retries
        merger: TraceMerger | None = None
        if self.config.trace:
            context = TraceContext(
                trace_id=spec.job_id,
                parent_span=f"job:{spec.job_id}",
                max_frame_records=self.config.telemetry_frame_records,
                max_total_records=self.config.telemetry_max_records,
            )
            merger = TraceMerger(context,
                                 process_name=f"serve {spec.job_id}")
        try:
            outcome: str | None = None
            for attempt in range(1, retries + 2):
                outcome = self._run_attempt(record, tier, attempt, merger)
                if outcome in ("succeeded", "failed", "cancelled"):
                    break
                # outcome == "crashed": back off, then go again.
                if attempt <= retries:
                    backoff = (self.config.retry_backoff_seconds
                               * self.config.retry_backoff_factor
                               ** (attempt - 1))
                    self.stats.inc("retries")
                    record.record_recovery({
                        "action": "retry", "attempt": attempt,
                        "backoff_seconds": backoff,
                    })
                    record.add_event({"stage": "retry_scheduled",
                                      "attempt": attempt,
                                      "backoff_seconds": backoff})
                    logger.warning(
                        "%s attempt %d crashed; retrying in %.2fs",
                        spec.job_id, attempt, backoff)
                    if record.wait_cancel(backoff):
                        record.transition(JobState.CANCELLED,
                                          now=time.monotonic(),
                                          event={"stage": "cancelled",
                                                 "where": "backoff"})
                        self.stats.inc("cancelled")
                        outcome = "cancelled"
                        break
            if outcome == "crashed":
                record.transition(
                    JobState.FAILED, now=time.monotonic(),
                    error=f"worker crashed on all "
                          f"{retries + 1} attempt(s)",
                    event={"stage": "failed",
                           "reason": "retry_budget_exhausted"})
                self.stats.inc("failed")
                logger.error("%s failed: retry budget exhausted",
                             spec.job_id)
        finally:
            if merger is not None and record.trace() is None:
                # Failed/cancelled jobs keep whatever trace evidence
                # their attempts shipped before dying.
                record.set_trace(merger.chrome_trace())
            service_seconds = time.monotonic() - started
            self.fleet.note_service_seconds(service_seconds)
            self.queue.note_service_seconds(service_seconds)
            self.stats.running_delta(-1)
            if spec.priority >= BACKGROUND_PRIORITY:
                with self._lock:
                    self._background_running -= 1
            self._slots.release()

    def _spawn_attempt(self, record: JobRecord, tier: DegradationTier,
                       attempt: int = 1,
                       merger: TraceMerger | None = None):
        """Fire parent-side fault sites and start one worker process."""
        spec = record.spec
        payload: dict[str, Any] = {
            "spec": dict(spec.__dict__),
            "tier": {
                "name": tier.name,
                "max_iterations_factor": tier.max_iterations_factor,
                "legalizer": tier.legalizer,
                "skip_detailed": tier.skip_detailed,
            },
            "aux_root": self.aux_root,
        }
        if merger is not None:
            # Stable lane per attempt: attempt 1 -> pid 2, ... so the
            # merged trace is deterministic given the retry history.
            payload["trace"] = merger.context.child(
                f"{spec.job_id}/a{attempt}", lane=attempt + 1).to_wire()
        crash = faults.fire("serve.worker.crash")
        if crash is not None:
            payload["_inject"] = {"mode": "crash",
                                  "at": crash.seed if crash.seed > 0 else 2}
        else:
            hang = faults.fire("serve.worker.hang")
            if hang is not None:
                payload["_inject"] = {
                    "mode": "hang",
                    "seconds": hang.seed if hang.seed > 0 else 3600.0,
                }
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_entry, args=(payload, child_conn),
            name=f"serve-worker-{spec.job_id}", daemon=True)
        process.start()
        child_conn.close()
        return process, parent_conn

    def _hard_kill_seconds(self, spec: JobSpec) -> float:
        if spec.deadline_seconds is not None:
            return spec.deadline_seconds * self.config.deadline_grace_factor
        return self.config.no_deadline_kill_seconds

    @staticmethod
    def _trace_attempt(merger: TraceMerger | None, attempt: int,
                       tier: DegradationTier, start: float,
                       outcome: str) -> None:
        """Close the parent-side span over one worker attempt."""
        if merger is not None:
            merger.add_span(f"attempt {attempt}", start,
                            time.perf_counter(),
                            tier=tier.name, outcome=outcome)

    def _run_attempt(self, record: JobRecord, tier: DegradationTier,
                     attempt: int,
                     merger: TraceMerger | None = None) -> str:
        """One isolated worker attempt; returns the outcome class:
        ``succeeded`` / ``failed`` / ``cancelled`` / ``crashed``."""
        spec = record.spec
        record.start_attempt(tier.name, time.monotonic())
        record.add_event({"stage": "attempt_started", "attempt": attempt,
                          "tier": tier.name})
        process, conn = self._spawn_attempt(record, tier, attempt, merger)
        kill_after = self._hard_kill_seconds(spec)
        attempt_start = time.monotonic()
        span_start = time.perf_counter()
        result: dict[str, Any] | None = None
        error: dict[str, Any] | None = None
        try:
            while True:
                if record.cancel_requested:
                    self._reap(process, kill=False)
                    record.transition(JobState.CANCELLED,
                                      now=time.monotonic(),
                                      event={"stage": "cancelled",
                                             "where": "running",
                                             "attempt": attempt})
                    self.stats.inc("cancelled")
                    logger.info("%s cancelled while running", spec.job_id)
                    self._trace_attempt(merger, attempt, tier,
                                        span_start, "cancelled")
                    return "cancelled"
                got = False
                try:
                    if conn.poll(0.05):
                        kind, body = conn.recv()
                        got = True
                        if kind == "event":
                            record.add_event(body)
                        elif kind == "telemetry":
                            if merger is not None:
                                merger.ingest(body)
                                self.fleet.observe_frame(body)
                        elif kind == "result":
                            result = body
                        else:
                            error = body
                except (EOFError, OSError):
                    pass  # worker died with the pipe open -> crash path
                if result is not None or error is not None:
                    process.join(timeout=10.0)
                    break
                if not got and not process.is_alive():
                    process.join(timeout=1.0)
                    # Drain messages the worker sent just before exiting
                    # so a clean finish is never misread as a crash.
                    try:
                        while conn.poll(0):
                            kind, body = conn.recv()
                            if kind == "event":
                                record.add_event(body)
                            elif kind == "telemetry":
                                if merger is not None:
                                    merger.ingest(body)
                                    self.fleet.observe_frame(body)
                            elif kind == "result":
                                result = body
                            else:
                                error = body
                    except (EOFError, OSError):
                        pass
                    break
                if time.monotonic() - attempt_start > kill_after:
                    self._reap(process, kill=True)
                    self.stats.inc("timeouts")
                    record.record_recovery({
                        "action": "hard_kill", "attempt": attempt,
                        "after_seconds": kill_after,
                    })
                    record.add_event({"stage": "hard_killed",
                                      "attempt": attempt,
                                      "after_seconds": kill_after})
                    logger.warning("%s attempt %d hard-killed after %.1fs",
                                   spec.job_id, attempt, kill_after)
                    self._trace_attempt(merger, attempt, tier,
                                        span_start, "hard_killed")
                    return "crashed"
        finally:
            conn.close()

        if result is not None:
            self._trace_attempt(merger, attempt, tier, span_start,
                                "succeeded")
            self._finish_success(record, result, merger)
            return "succeeded"
        if error is not None:
            self._trace_attempt(merger, attempt, tier, span_start,
                                "failed")
            record.transition(
                JobState.FAILED, now=time.monotonic(),
                error=f"{error.get('type', 'Error')}: "
                      f"{error.get('message', '')}",
                event={"stage": "failed", "attempt": attempt,
                       "reason": error.get("type")})
            self.stats.inc("failed")
            logger.warning("%s failed deterministically: %s",
                           spec.job_id, record.error)
            return "failed"
        # Abnormal exit with nothing on the pipe: a crash.
        self._trace_attempt(merger, attempt, tier, span_start, "crashed")
        self.stats.inc("crashes")
        record.record_recovery({
            "action": "crash_detected", "attempt": attempt,
            "exitcode": process.exitcode,
        })
        record.add_event({"stage": "worker_crashed", "attempt": attempt,
                          "exitcode": process.exitcode})
        logger.warning("%s attempt %d: worker exited abnormally (%s)",
                       spec.job_id, attempt, process.exitcode)
        return "crashed"

    def _reap(self, process, kill: bool) -> None:
        """Terminate (or kill) a worker and wait for the OS to reap it."""
        if process.is_alive():
            if kill:
                process.kill()
            else:
                process.terminate()
        process.join(timeout=10.0)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
            process.join(timeout=10.0)

    def _finish_success(self, record: JobRecord,
                        body: dict[str, Any],
                        merger: TraceMerger | None = None) -> None:
        metrics = body.pop("metrics", None)
        report_html = body.pop("report_html", None)
        trace_doc = None
        if merger is not None:
            trace_doc = merger.chrome_trace()
            record.set_trace(trace_doc)
        # Archive before the job turns terminal: a client that sees
        # ``succeeded`` must also see its run_dir and its last event.
        run_dir = None
        try:
            run_dir = self.registry_for(record.spec.tenant).capture(
                metrics or {}, name=record.spec.name,
                report_html=report_html,
                trace_doc=trace_doc,
                manifest_extra={
                    "job_id": record.spec.job_id,
                    "tenant": record.spec.tenant,
                    "attempts": record.attempts,
                    "tier": record.tier,
                },
            )
        except OSError:
            logger.exception("failed to archive %s into the run registry",
                             record.spec.job_id)
        record.complete(body, report_html, metrics, time.monotonic(),
                        run_dir=run_dir,
                        event={"stage": "succeeded",
                               "hpwl_legal": body.get("hpwl_legal")})
        self.stats.inc("completed")
        logger.info("%s succeeded: HPWL %.1f in %s iterations",
                    record.spec.job_id, body.get("hpwl_legal", -1.0),
                    body.get("iterations"))
