"""The HTTP face of the service: a thin JSON layer over the runtime.

Stdlib-only (:mod:`http.server`), because the point of this repo's
service is the *runtime* semantics — crash isolation, backpressure,
degradation — not web framework ergonomics.  Endpoints:

================================  ======================================
``POST /v1/jobs``                 submit; 202 + job id, 400 invalid,
                                  429 + ``Retry-After`` (queue full or
                                  tenant rate limit), 503 draining
``GET /v1/jobs``                  list this tenant's jobs
``GET /v1/jobs/<id>``             status snapshot
``GET /v1/jobs/<id>/events``      progress events (``?since=N`` cursor);
                                  ``?stream=1`` upgrades to Server-Sent
                                  Events with ``Last-Event-ID`` resume
``GET /v1/jobs/<id>/result``      result body; 409 until terminal
``GET /v1/jobs/<id>/report``      the run's HTML report
``GET /v1/jobs/<id>/trace``       merged Chrome trace (tracing runs)
``DELETE /v1/jobs/<id>``          cancel (queued or running)
``GET /healthz``                  liveness: 200 while the process works
``GET /readyz``                   readiness: 200 only with queue headroom
``GET /metricz``                  service + fleet metrics; JSON by
                                  default, Prometheus text with
                                  ``?format=prom`` or an ``Accept:
                                  text/plain`` header
================================  ======================================

Event cursors are absolute ordinals: the bounded per-job buffer drops
oldest-first, and a client resuming below the drop watermark gets an
explicit gap marker (JSON: ``"gap"``; SSE: a ``gap`` event) instead of
a silent skip.

Tenancy rides on the ``X-Tenant`` header (or the payload's ``tenant``
field); a tenant only ever sees its own jobs.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, to_prometheus
from .config import ServeConfig
from .jobs import JobRecord, JobValidationError, TERMINAL_STATES
from .queue import QueueFull
from .runtime import JobRuntime, ServiceUnavailable
from .tenants import RateLimited

__all__ = ["PlacementService", "serve_forever"]

logger = logging.getLogger(__name__)

#: Submission bodies above this are refused outright (1 MiB).
MAX_BODY_BYTES = 1 << 20

#: An event stream silent this long sends a keep-alive comment.
KEEP_ALIVE_SECONDS = 5.0


class _Handler(BaseHTTPRequestHandler):
    """One request; the runtime lives on ``self.server``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> JobRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, body: dict[str, Any],
                   headers: dict[str, str] | None = None) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_html(self, status: int, html: str) -> None:
        data = html.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8",
                   ) -> None:
        data = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    @staticmethod
    def _query_params(query: str) -> dict[str, str]:
        params: dict[str, str] = {}
        for chunk in query.split("&"):
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            params[key] = value
        return params

    def _error(self, status: int, message: str,
               retry_after: float | None = None) -> None:
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(int(round(retry_after)), 1))
        self._send_json(status, {"error": message}, headers)

    def _tenant(self) -> str:
        return self.headers.get("X-Tenant", "default")

    def _read_body(self) -> dict[str, Any] | None:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    def _owned_job(self, job_id: str) -> JobRecord | None:
        """The job, provided it exists and belongs to this tenant."""
        record = self.runtime.job(job_id)
        if record is None or record.spec.tenant != self._tenant():
            self._error(404, f"no such job {job_id!r}")
            return None
        return record

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/jobs":
            self._error(404, "unknown endpoint")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            record = self.runtime.submit(body, tenant_hint=self._tenant())
        except JobValidationError as exc:
            self._error(400, str(exc))
        except RateLimited as exc:
            self._error(429, str(exc), retry_after=exc.retry_after)
        except QueueFull as exc:
            self._error(429, str(exc), retry_after=exc.retry_after)
        except ServiceUnavailable as exc:
            self._error(503, str(exc))
        else:
            self._send_json(202, record.snapshot())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/readyz":
            if self.runtime.ready():
                self._send_json(200, {"status": "ready"})
            else:
                self._error(503, "draining" if self.runtime.draining
                            else "queue at capacity")
        elif path == "/metricz":
            registry = self.runtime.metrics_registry()
            params = self._query_params(query)
            accept = self.headers.get("Accept", "")
            wants_prom = params.get("format") == "prom" \
                or ("text/plain" in accept
                    and "application/json" not in accept)
            if wants_prom:
                self._send_text(200, to_prometheus(registry),
                                content_type=PROMETHEUS_CONTENT_TYPE)
            else:
                self._send_json(200, registry.to_dict())
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 2:
            records = self.runtime.jobs(tenant=self._tenant())
            self._send_json(200, {"jobs": [r.snapshot() for r in records]})
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
            record = self._owned_job(parts[2])
            if record is not None:
                self._send_json(200, record.snapshot())
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 4:
            record = self._owned_job(parts[2])
            if record is None:
                return
            if parts[3] == "events":
                params = self._query_params(query)
                since = 0
                if params.get("since", "").isdigit():
                    since = int(params["since"])
                last_id = self.headers.get("Last-Event-ID", "")
                if last_id.isdigit():
                    since = int(last_id)
                if params.get("stream") == "1":
                    self._stream_events(record, since)
                    return
                events, next_since, dropped = record.events_since(since)
                self._send_json(200, {"events": events,
                                      "next_since": next_since,
                                      "dropped": dropped,
                                      "gap": max(dropped - since, 0),
                                      "done": record.done})
            elif parts[3] == "result":
                self._job_result(record)
            elif parts[3] == "report":
                if record.report_html is None:
                    self._error(409, "no report (job not finished "
                                     "or it failed before reporting)")
                else:
                    self._send_html(200, record.report_html)
            elif parts[3] == "trace":
                trace = record.trace()
                if trace is None:
                    self._error(409, "no trace (tracing disabled or the "
                                     "job has not finished an attempt)")
                else:
                    self._send_json(200, trace)
            else:
                self._error(404, "unknown endpoint")
        else:
            self._error(404, "unknown endpoint")

    def _sse(self, event_id: int, event_type: str,
             body: dict[str, Any]) -> None:
        """Write one Server-Sent Event frame."""
        data = json.dumps(body)
        self.wfile.write(
            f"id: {event_id}\nevent: {event_type}\n"
            f"data: {data}\n\n".encode())

    def _stream_events(self, record: JobRecord, since: int) -> None:
        """``GET .../events?stream=1``: live Server-Sent Events.

        Event ids are the absolute event ordinals, so a client that
        reconnects with ``Last-Event-ID`` resumes exactly where it left
        off; if the bounded buffer already shed part of that range the
        stream opens with an explicit ``gap`` event.  The stream closes
        itself (a ``done`` event, then EOF) once the job is terminal.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.flush()
        cursor = since
        try:
            while True:
                # ``done`` before the drain: a terminal job already holds
                # its last event, so ``done`` never overtakes an event.
                done = record.done
                events, next_since, dropped = record.events_since(cursor)
                if dropped > cursor:
                    self._sse(dropped, "gap",
                              {"missed": dropped - cursor,
                               "resume_at": dropped})
                    cursor = dropped
                for offset, event in enumerate(events):
                    self._sse(cursor + offset + 1, "progress", event)
                cursor = next_since
                if events:
                    self.wfile.flush()
                if done:
                    self._sse(cursor, "done",
                              {"state": record.snapshot()["state"]})
                    self.wfile.flush()
                    return
                # Wait until the job appends an event or finishes.
                if not record.wait_events(cursor, KEEP_ALIVE_SECONDS):
                    # Comment heartbeat keeps proxies from timing the
                    # idle connection out.
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing to clean up

    def _job_result(self, record: JobRecord) -> None:
        snapshot = record.snapshot()
        if snapshot["state"] not in TERMINAL_STATES:
            self._error(409, f"job is {snapshot['state']}; poll until "
                             "it reaches a terminal state")
            return
        body = {"status": snapshot["state"], "job": snapshot}
        if record.result is not None:
            body["result"] = record.result
        self._send_json(200, body)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in self.path.split("/") if p]
        if parts[:2] != ["v1", "jobs"] or len(parts) != 3:
            self._error(404, "unknown endpoint")
            return
        record = self._owned_job(parts[2])
        if record is None:
            return
        changed = self.runtime.cancel(record.spec.job_id)
        self._send_json(202 if changed else 200, record.snapshot())


class PlacementService:
    """The HTTP server plus its runtime, with a clean shutdown path."""

    def __init__(self, config: ServeConfig | None = None,
                 aux_root: str | None = None) -> None:
        self.config = config or ServeConfig()
        self.runtime = JobRuntime(self.config, aux_root=aux_root)
        self.httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.runtime = self.runtime  # type: ignore[attr-defined]
        self._state_lock = threading.Lock()
        self._serve_thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is concrete even for port 0."""
        return self.httpd.server_address[:2]

    def start(self) -> "PlacementService":
        """Run the accept loop on a background thread (tests, smoke)."""
        self.runtime.start()
        thread = threading.Thread(target=self.httpd.serve_forever,
                                  name="serve-http", daemon=True)
        with self._state_lock:
            self._serve_thread = thread
        thread.start()
        host, port = self.address
        logger.info("placement service listening on http://%s:%d",
                    host, port)
        return self

    def stop(self, drain: bool = True,
             timeout: float | None = None) -> None:
        """Stop accepting, optionally drain, then shut the socket down."""
        self.runtime.shutdown(drain=drain, timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        logger.info("placement service stopped")


def serve_forever(config: ServeConfig | None = None,
                  aux_root: str | None = None) -> None:
    """Blocking entry point used by ``python -m repro.serve``."""
    service = PlacementService(config, aux_root=aux_root)
    service.runtime.start()
    host, port = service.address
    logger.info("placement service listening on http://%s:%d", host, port)
    try:
        service.httpd.serve_forever()
    except KeyboardInterrupt:
        logger.info("interrupt: draining before shutdown")
    finally:
        service.stop(drain=True)
