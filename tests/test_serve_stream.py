"""Live SSE streaming, the trace endpoint, Prometheus negotiation, and
the frames-off byte-identity guarantee.

The HTTP tests run against a real in-process service on an ephemeral
port with tracing enabled; the byte-identity tests call the worker
entry functions directly (no processes) and diff the observable output
of a traced run against an untraced one.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.serve.api
from repro.race.portfolio import build_portfolio
from repro.race.worker import clear_shared, run_variant
from repro.runs import RunRegistry
from repro.serve import PlacementService, ServeConfig
from repro.serve.jobs import JobSpec
from repro.serve.worker import run_job
from repro.telemetry import TraceContext


def request(method, url, payload=None, tenant="t1", headers=None):
    data = None if payload is None else json.dumps(payload).encode()
    all_headers = {"X-Tenant": tenant}
    all_headers.update(headers or {})
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=all_headers)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            raw = response.read()
            resp_headers = dict(response.headers)
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        resp_headers = dict(exc.headers)
        status = exc.code
    if resp_headers.get("Content-Type", "").startswith("application/json"):
        return status, resp_headers, json.loads(raw or b"{}")
    return status, resp_headers, raw.decode()


def stream_sse(url, tenant="t1", last_event_id=None, timeout=60.0):
    """Consume one SSE stream until its ``done`` event.

    Returns ``(content_type, [(id, type, body), ...])``.
    """
    headers = {"X-Tenant": tenant}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    req = urllib.request.Request(url, headers=headers)
    events = []
    with urllib.request.urlopen(req, timeout=timeout) as response:
        content_type = response.headers.get("Content-Type", "")
        event_id, event_type, data = None, "message", []
        for raw in response:
            line = raw.decode().rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("id:"):
                event_id = int(line[3:].strip())
            elif line.startswith("event:"):
                event_type = line[6:].strip()
            elif line.startswith("data:"):
                data.append(line[5:].strip())
            elif line == "":
                if data:
                    events.append((event_id, event_type,
                                   json.loads("\n".join(data))))
                    if event_type == "done":
                        break
                event_id, event_type, data = None, "message", []
    return content_type, events


def poll_done(base, job_id, tenant="t1", timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request("GET", f"{base}/v1/jobs/{job_id}",
                                  tenant=tenant)
        assert status == 200
        if body["state"] in ("succeeded", "failed", "cancelled"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"{job_id} did not finish within {timeout}s")


def payload(cells=40, iterations=8, **overrides):
    base = {
        "name": "stream",
        "workload": {"kind": "synthetic", "num_cells": cells, "seed": 5},
        "config": {"max_iterations": iterations, "seed": 1},
        "legalizer": "tetris",
    }
    base.update(overrides)
    return base


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One shared *traced* service."""
    root = tmp_path_factory.mktemp("serve-stream")
    svc = PlacementService(ServeConfig(
        port=0, workers=2, queue_capacity=8,
        registry_root=str(root / "runs"),
        retry_backoff_seconds=0.05,
        trace=True,
    )).start()
    yield svc
    svc.stop(drain=False, timeout=5.0)


@pytest.fixture(scope="module")
def base(service):
    host, port = service.address
    return f"http://{host}:{port}"


@pytest.fixture(scope="module")
def finished_job(base):
    """One traced job run to completion, shared by the read-only tests."""
    status, _, body = request("POST", f"{base}/v1/jobs",
                              payload(include_placement=True))
    assert status == 202
    job_id = body["job_id"]
    final = poll_done(base, job_id)
    assert final["state"] == "succeeded"
    return job_id, final


class TestEventStream:
    def test_stream_delivers_progress_doctor_and_done(self, base,
                                                      finished_job):
        job_id, _ = finished_job
        content_type, events = stream_sse(
            f"{base}/v1/jobs/{job_id}/events?stream=1")
        assert content_type.startswith("text/event-stream")
        assert events, "stream produced no events"
        types = [t for _, t, _ in events]
        assert types[-1] == "done"
        assert "progress" in types
        stages = [body.get("stage") for _, t, body in events
                  if t == "progress"]
        assert "iteration" in stages
        assert "doctor" in stages, "doctor findings never streamed"
        done_body = events[-1][2]
        assert done_body["state"] == "succeeded"
        # ids are strictly increasing ordinals.
        ids = [i for i, t, _ in events if t == "progress"]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_doctor_event_carries_structured_findings(self, base,
                                                      finished_job):
        job_id, _ = finished_job
        _, events = stream_sse(
            f"{base}/v1/jobs/{job_id}/events?stream=1")
        [doctor] = [body for _, t, body in events
                    if t == "progress" and body.get("stage") == "doctor"]
        assert isinstance(doctor["findings"], list)

    def test_last_event_id_resumes_without_duplicates(self, base,
                                                      finished_job):
        job_id, _ = finished_job
        _, full = stream_sse(f"{base}/v1/jobs/{job_id}/events?stream=1")
        progress = [(i, body) for i, t, body in full if t == "progress"]
        assert len(progress) > 3
        cursor = progress[2][0]
        _, resumed = stream_sse(
            f"{base}/v1/jobs/{job_id}/events?stream=1",
            last_event_id=cursor)
        resumed_ids = [i for i, t, _ in resumed if t == "progress"]
        assert resumed_ids and min(resumed_ids) == cursor + 1
        assert resumed_ids == [i for i, _ in progress[3:]]

    def test_since_beyond_buffer_yields_just_done(self, base,
                                                  finished_job):
        job_id, _ = finished_job
        _, events = stream_sse(
            f"{base}/v1/jobs/{job_id}/events?stream=1&since=100000")
        assert [t for _, t, _ in events] == ["done"]

    def test_json_endpoint_reports_dropped_and_gap(self, base,
                                                   finished_job):
        job_id, _ = finished_job
        status, _, body = request("GET",
                                  f"{base}/v1/jobs/{job_id}/events")
        assert status == 200
        assert body["dropped"] == 0
        assert body["gap"] == 0

    def test_stream_of_unknown_job_404s(self, base):
        status, _, _ = request(
            "GET", f"{base}/v1/jobs/j-424242/events?stream=1")
        assert status == 404


@pytest.fixture
def gated_capture(monkeypatch):
    """Hold every run-registry capture until ``release`` is set;
    ``entered`` is set when one starts."""
    entered, release = threading.Event(), threading.Event()
    original = RunRegistry.capture

    def capture(self, *args, **kwargs):
        entered.set()
        assert release.wait(90.0), "capture never released"
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RunRegistry, "capture", capture)
    yield entered, release
    release.set()


class TestFinishOrder:
    """A job turns terminal only once archived and holding its last
    event, so no client sees ``succeeded`` without ``run_dir`` and no
    stream sends ``done`` ahead of an event.  The slow archive is made
    deterministic by holding ``RunRegistry.capture``."""

    def test_terminal_only_after_archiving(self, base, gated_capture):
        entered, release = gated_capture
        status, _, body = request("POST", f"{base}/v1/jobs", payload())
        assert status == 202
        job_id = body["job_id"]
        assert entered.wait(90.0), "the job never reached its archive"
        _, _, during = request("GET", f"{base}/v1/jobs/{job_id}")
        assert during["state"] == "running"
        assert "run_dir" not in during
        release.set()
        _, events = stream_sse(f"{base}/v1/jobs/{job_id}/events?stream=1")
        assert events[-1][2]["state"] == "succeeded"
        _, _, final = request("GET", f"{base}/v1/jobs/{job_id}")
        assert final["state"] == "succeeded"
        assert final["run_dir"]

    def test_done_never_overtakes_the_last_event(self, base, service,
                                                 gated_capture,
                                                 monkeypatch):
        """The job finishes between a stream's drain and its ``done``
        check: the stream must still send ``succeeded`` first."""
        # The gate is released from the stream's next drain, which
        # follows one full keep-alive wait; a short one keeps the test
        # quick.  The server reads the global on every wait.
        monkeypatch.setattr(repro.serve.api, "KEEP_ALIVE_SECONDS", 0.5)
        entered, release = gated_capture
        status, _, body = request("POST", f"{base}/v1/jobs", payload())
        assert status == 202
        job_id = body["job_id"]
        record = service.runtime.job(job_id)
        finished = threading.Event()
        complete, events_since = record.complete, record.events_since

        def complete_then_signal(*args, **kwargs):
            complete(*args, **kwargs)
            finished.set()

        def drain_then_finish(since):
            drained = events_since(since)
            if entered.is_set() and not release.is_set():
                release.set()
                assert finished.wait(90.0), "the job never finished"
            return drained

        record.complete = complete_then_signal
        record.events_since = drain_then_finish
        _, events = stream_sse(f"{base}/v1/jobs/{job_id}/events?stream=1")
        assert finished.is_set()
        types = [t for _, t, _ in events]
        assert types[-1] == "done"
        assert events[-1][2]["state"] == "succeeded"
        assert events[-2][1] == "progress"
        assert events[-2][2]["stage"] == "succeeded"


class TestEventGap:
    """An overflowing event buffer is reported, never silent."""

    @pytest.fixture(scope="class")
    def tight_service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-tight")
        svc = PlacementService(ServeConfig(
            port=0, workers=1, queue_capacity=4,
            registry_root=str(root / "runs"),
            keep_events=10,
        )).start()
        yield svc
        svc.stop(drain=False, timeout=5.0)

    @pytest.fixture(scope="class")
    def overflowed(self, tight_service):
        host, port = tight_service.address
        base = f"http://{host}:{port}"
        _, _, body = request("POST", f"{base}/v1/jobs",
                             payload(iterations=30))
        job_id = body["job_id"]
        final = poll_done(base, job_id)
        assert final["state"] == "succeeded"
        return base, job_id

    def test_json_gap_math(self, overflowed):
        base, job_id = overflowed
        status, _, body = request("GET",
                                  f"{base}/v1/jobs/{job_id}/events")
        assert status == 200
        assert body["dropped"] > 0
        assert body["gap"] == body["dropped"]
        assert body["events"], "buffer kept nothing"

    def test_stream_emits_explicit_gap_marker_first(self, overflowed):
        base, job_id = overflowed
        _, events = stream_sse(
            f"{base}/v1/jobs/{job_id}/events?stream=1")
        first_id, first_type, first_body = events[0]
        assert first_type == "gap"
        assert first_body["missed"] > 0
        assert first_body["resume_at"] == first_body["missed"]
        # The first progress ordinal continues right after the gap.
        progress_ids = [i for i, t, _ in events if t == "progress"]
        assert progress_ids[0] == first_body["resume_at"] + 1

    def test_trace_endpoint_409s_when_tracing_is_off(self, overflowed):
        base, job_id = overflowed
        status, _, _ = request("GET",
                               f"{base}/v1/jobs/{job_id}/trace")
        assert status == 409


class TestTraceEndpoint:
    def test_trace_served_and_archived_identically(self, base, service,
                                                   finished_job):
        job_id, final = finished_job
        status, _, doc = request("GET",
                                 f"{base}/v1/jobs/{job_id}/trace")
        assert status == 200
        assert doc["otherData"]["trace_id"] == job_id
        assert doc["otherData"]["workers"] == [f"{job_id}/a1"]
        assert doc["traceEvents"]
        names = {e["args"]["name"]: e["pid"]
                 for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert names[f"worker {job_id}/a1"] == 2
        # The archived copy is the same document.
        with open(f"{final['run_dir']}/trace.json") as fh:
            archived = json.load(fh)
        assert archived == doc

    def test_trace_spans_cover_attempt_and_worker_stages(self, base,
                                                         finished_job):
        job_id, _ = finished_job
        _, _, doc = request("GET", f"{base}/v1/jobs/{job_id}/trace")
        parent = [e["name"] for e in doc["traceEvents"]
                  if e.get("pid") == 1 and e.get("ph") == "X"]
        assert "attempt 1" in parent
        worker = [e["name"] for e in doc["traceEvents"]
                  if e.get("pid") == 2 and e.get("ph") == "X"]
        assert worker, "no worker spans in the merged trace"

    def test_trace_of_unknown_job_404s(self, base):
        assert request("GET",
                       f"{base}/v1/jobs/j-424242/trace")[0] == 404


class TestMetricz:
    def test_default_is_json_with_fleet_rollup(self, base,
                                               finished_job):
        status, headers, body = request("GET", f"{base}/metricz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert body["meta"]["component"] == "repro.serve"
        counters = {c["name"]: c["value"] for c in body["counters"]}
        assert counters.get("fleet_frames", 0) >= 1
        assert "fleet_workers" in {g["name"] for g in body["gauges"]}

    def test_format_prom_query(self, base, finished_job):
        status, headers, text = request("GET",
                                        f"{base}/metricz?format=prom")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        assert "# TYPE repro_fleet_frames counter" in text
        assert "# TYPE repro_queue_depth gauge" in text

    def test_accept_header_negotiates_prom(self, base, finished_job):
        status, headers, text = request(
            "GET", f"{base}/metricz",
            headers={"Accept": "text/plain"})
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        assert text.startswith("# TYPE ")


class TestFramesOffByteIdentity:
    """Tracing must observe the work, never change it."""

    def _serve_payload(self):
        spec = JobSpec.from_payload(payload(cells=30, iterations=6,
                                            include_placement=True),
                                    "j-ident")
        return {"spec": dict(spec.__dict__), "tier": {}}

    def test_serve_worker_output_is_identical(self):
        events_off, events_on, frames = [], [], []
        body_off = run_job(self._serve_payload(), events_off.append)
        traced = self._serve_payload()
        traced["trace"] = TraceContext("j-ident").child(
            "j-ident/a1", lane=2).to_wire()
        body_on = run_job(traced, events_on.append, frames.append)

        assert frames, "traced run shipped no telemetry frames"
        assert body_on["placement"] == body_off["placement"]
        for key in ("hpwl_legal", "hpwl_upper", "iterations",
                    "stop_reason", "legalizer", "netlist"):
            assert body_on[key] == body_off[key], key
        assert [e.get("stage") for e in events_on] \
            == [e.get("stage") for e in events_off]
        # The numeric progress stream is identical event for event.
        numeric_off = [e for e in events_off
                       if e.get("stage") == "iteration"]
        numeric_on = [e for e in events_on
                      if e.get("stage") == "iteration"]
        assert numeric_on == numeric_off

    def test_untraced_serve_worker_ships_nothing(self):
        frames = []
        run_job(self._serve_payload(), lambda e: None, frames.append)
        assert frames == []

    def _race_payload(self):
        [spec] = [s for s in build_portfolio(
            base_overrides={"max_iterations": 6})
            if s.variant_id == "base"]
        return {"variant": dataclasses.asdict(spec),
                "workload": {"kind": "synthetic", "num_cells": 30,
                             "seed": 5}}

    def test_race_worker_output_is_identical(self):
        class Conn:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        clear_shared()
        off = Conn()
        body_off = run_variant(self._race_payload(), off)
        traced = self._race_payload()
        traced["trace"] = TraceContext("race:t").child("base", lane=2
                                                      ).to_wire()
        on = Conn()
        body_on = run_variant(traced, on)

        # Everything is identical except wall-clock gauges, which vary
        # between ANY two runs (traced or not).
        metrics_on = body_on.pop("metrics")
        metrics_off = body_off.pop("metrics")
        assert body_on == body_off

        def numeric_series(doc):
            return [s for s in doc["series"]
                    if "seconds" not in s["name"]]

        assert numeric_series(metrics_on) == numeric_series(metrics_off)
        assert metrics_on["counters"] == metrics_off["counters"]
        # ``run_variant`` returns the result; only frames go out first.
        assert off.sent == [], "untraced race worker sent messages"
        assert on.sent, "traced race worker shipped no frames"
        assert {k for k, _ in on.sent} == {"telemetry"}
