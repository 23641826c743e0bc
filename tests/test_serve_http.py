"""HTTP API tests against a real in-process server on an ephemeral port."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runs import RunRegistry
from repro.serve import PlacementService, ServeConfig, api

POLL = 0.05


def request(method, url, payload=None, tenant="t1"):
    """(status, headers, body-dict-or-text) for one API call."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"X-Tenant": tenant})
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            raw = response.read()
            headers = dict(response.headers)
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        headers = dict(exc.headers)
        status = exc.code
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, headers, json.loads(raw or b"{}")
    return status, headers, raw.decode()


def poll_done(base, job_id, tenant="t1", timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request("GET", f"{base}/v1/jobs/{job_id}",
                                  tenant=tenant)
        assert status == 200
        if body["state"] in ("succeeded", "failed", "cancelled"):
            return body
        time.sleep(POLL)
    raise AssertionError(f"{job_id} did not finish within {timeout}s")


def rejected_invalid(base):
    _, _, doc = request("GET", f"{base}/metricz")
    return {c["name"]: c["value"] for c in doc["counters"]
            }.get("rejected_invalid", 0.0)


def payload(cells=40, iterations=8, **overrides):
    base = {
        "name": "http",
        "workload": {"kind": "synthetic", "num_cells": cells, "seed": 5},
        "config": {"max_iterations": iterations, "seed": 1},
        "legalizer": "tetris",
    }
    base.update(overrides)
    return base


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One shared service for the happy-path tests."""
    root = tmp_path_factory.mktemp("serve-http")
    svc = PlacementService(ServeConfig(
        port=0, workers=2, queue_capacity=8,
        registry_root=str(root / "runs"),
        retry_backoff_seconds=0.05,
    )).start()
    yield svc
    svc.stop(drain=False, timeout=5.0)


@pytest.fixture(scope="module")
def base(service):
    host, port = service.address
    return f"http://{host}:{port}"


class TestProbesAndMetrics:
    def test_healthz(self, base):
        status, _, body = request("GET", f"{base}/healthz")
        assert (status, body["status"]) == (200, "ok")

    def test_readyz_when_idle(self, base):
        status, _, body = request("GET", f"{base}/readyz")
        assert (status, body["status"]) == (200, "ready")

    def test_metricz_is_a_metrics_document(self, base):
        status, _, body = request("GET", f"{base}/metricz")
        assert status == 200
        gauges = {g["name"] for g in body["gauges"]}
        assert "queue_depth" in gauges
        assert body["meta"]["component"] == "repro.serve"

    def test_unknown_endpoint_404s(self, base):
        assert request("GET", f"{base}/v2/nothing")[0] == 404
        assert request("POST", f"{base}/v1/other")[0] == 404
        assert request("DELETE", f"{base}/v1/jobs")[0] == 404


class TestJobLifecycle:
    def test_submit_poll_result_report(self, base):
        status, _, body = request("POST", f"{base}/v1/jobs",
                                  payload(include_placement=True))
        assert status == 202
        job_id = body["job_id"]
        assert body["state"] in ("queued", "running")

        final = poll_done(base, job_id)
        assert final["state"] == "succeeded"
        assert final["tenant"] == "t1"
        assert final["run_dir"]

        status, _, body = request("GET",
                                  f"{base}/v1/jobs/{job_id}/result")
        assert status == 200
        assert body["status"] == "succeeded"
        assert body["result"]["hpwl_legal"] > 0
        # Full placement vectors: movable cells plus pads/terminals.
        coords = body["result"]["placement"]
        assert len(coords["x"]) == len(coords["y"]) >= 40

        status, _, html = request("GET",
                                  f"{base}/v1/jobs/{job_id}/report")
        assert status == 200
        assert "<html" in html.lower()

        # Event stream with a cursor.
        status, _, body = request("GET",
                                  f"{base}/v1/jobs/{job_id}/events")
        assert status == 200
        stages = [e.get("stage") for e in body["events"]]
        assert "iteration" in stages
        assert body["done"]
        status, _, tail = request(
            "GET",
            f"{base}/v1/jobs/{job_id}/events?since={body['next_since']}")
        assert tail["events"] == []

        # And it shows up in the tenant's listing.
        status, _, body = request("GET", f"{base}/v1/jobs")
        assert job_id in [j["job_id"] for j in body["jobs"]]

    def test_tenant_isolation(self, base):
        status, _, body = request("POST", f"{base}/v1/jobs", payload(),
                                  tenant="alpha")
        job_id = body["job_id"]
        poll_done(base, job_id, tenant="alpha")
        # Another tenant can neither see nor cancel it.
        assert request("GET", f"{base}/v1/jobs/{job_id}",
                       tenant="beta")[0] == 404
        assert request("DELETE", f"{base}/v1/jobs/{job_id}",
                       tenant="beta")[0] == 404
        _, _, listing = request("GET", f"{base}/v1/jobs", tenant="beta")
        assert job_id not in [j["job_id"] for j in listing["jobs"]]

    def test_result_of_unknown_job_404s(self, base):
        assert request("GET", f"{base}/v1/jobs/j-424242")[0] == 404
        assert request("GET",
                       f"{base}/v1/jobs/j-424242/result")[0] == 404


class TestValidationErrors:
    def test_bad_json_400s(self, base):
        req = urllib.request.Request(
            f"{base}/v1/jobs", data=b"{not json", method="POST",
            headers={"X-Tenant": "t1"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10.0)
        assert info.value.code == 400

    def test_invalid_payload_400s_with_message(self, base):
        status, _, body = request("POST", f"{base}/v1/jobs",
                                  payload(priority=77))
        assert status == 400
        assert "priority" in body["error"]

    def test_non_object_payload_400s(self, base):
        req = urllib.request.Request(
            f"{base}/v1/jobs", data=b"[1, 2]", method="POST",
            headers={"X-Tenant": "t1"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10.0)
        assert info.value.code == 400

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_override_400s_and_counts_as_invalid(self, base,
                                                           literal):
        before = rejected_invalid(base)
        # json.dumps writes a non-finite float as the bare literal that
        # json.loads on the server accepts.
        status, _, body = request(
            "POST", f"{base}/v1/jobs",
            payload(config={"max_iterations": float(literal)}))
        assert status == 400
        assert "config.max_iterations" in body["error"]
        assert rejected_invalid(base) == before + 1

    @pytest.mark.parametrize("overrides, fragment", [
        ({"workload": {"kind": "synthetic", "num_cells": 20, "bogus": 1}},
         "workload.bogus"),
        ({"workload": {"kind": "suite", "suite": "no_such_suite"}},
         "workload.suite"),
        ({"deadline_seconds": True}, "deadline_seconds"),
    ])
    def test_payload_the_worker_would_fail_on_400s_as_invalid(
            self, base, overrides, fragment):
        before = rejected_invalid(base)
        status, _, body = request("POST", f"{base}/v1/jobs",
                                  payload(**overrides))
        assert status == 400
        assert fragment in body["error"]
        assert rejected_invalid(base) == before + 1


class TestOverload:
    def test_burst_gets_429_with_retry_after(self, tmp_path):
        svc = PlacementService(ServeConfig(
            port=0, workers=1, queue_capacity=1,
            registry_root=str(tmp_path / "runs"),
            tenant_rate=1000.0, tenant_burst=1000,
        )).start()
        try:
            host, port = svc.address
            base = f"http://{host}:{port}"
            # Occupy the worker, then fill the single queue slot.
            slow = payload(cells=200, iterations=400)
            status, _, body = request("POST", f"{base}/v1/jobs", slow)
            assert status == 202
            statuses = []
            retry_after = None
            for _ in range(12):
                status, headers, _ = request("POST", f"{base}/v1/jobs",
                                             payload())
                statuses.append(status)
                if status == 429:
                    retry_after = headers.get("Retry-After")
                    break
                time.sleep(0.02)
            assert 429 in statuses, f"no 429 in burst: {statuses}"
            assert retry_after is not None and int(retry_after) >= 1
            # Queue at capacity -> not ready, but still alive.
            assert request("GET", f"{base}/readyz")[0] == 503
            assert request("GET", f"{base}/healthz")[0] == 200
        finally:
            svc.stop(drain=False, timeout=5.0)

    def test_tenant_rate_limit_429(self, tmp_path):
        svc = PlacementService(ServeConfig(
            port=0, workers=1, queue_capacity=8,
            registry_root=str(tmp_path / "runs"),
            tenant_rate=0.001, tenant_burst=1,
        )).start()
        try:
            host, port = svc.address
            base = f"http://{host}:{port}"
            assert request("POST", f"{base}/v1/jobs",
                           payload())[0] == 202
            status, headers, body = request("POST", f"{base}/v1/jobs",
                                            payload())
            assert status == 429
            assert "rate" in body["error"]
            assert int(headers["Retry-After"]) >= 1
        finally:
            svc.stop(drain=False, timeout=5.0)


class TestCancelAndDrain:
    def test_delete_cancels_running_job(self, tmp_path):
        svc = PlacementService(ServeConfig(
            port=0, workers=1, queue_capacity=4,
            registry_root=str(tmp_path / "runs"),
        )).start()
        try:
            host, port = svc.address
            base = f"http://{host}:{port}"
            _, _, body = request("POST", f"{base}/v1/jobs",
                                 payload(cells=200, iterations=400))
            job_id = body["job_id"]
            status, _, body = request("DELETE",
                                      f"{base}/v1/jobs/{job_id}")
            assert status == 202
            final = poll_done(base, job_id, timeout=30.0)
            assert final["state"] == "cancelled"
        finally:
            svc.stop(drain=False, timeout=5.0)

    def test_draining_rejects_submissions_and_finishes_work(self,
                                                            tmp_path):
        svc = PlacementService(ServeConfig(
            port=0, workers=2, queue_capacity=8,
            registry_root=str(tmp_path / "runs"),
        )).start()
        try:
            host, port = svc.address
            base = f"http://{host}:{port}"
            _, _, body = request("POST", f"{base}/v1/jobs", payload())
            job_id = body["job_id"]
            # Drain the runtime while the HTTP front end still answers.
            svc.runtime.shutdown(drain=True, timeout=120.0)
            status, _, final = request("GET", f"{base}/v1/jobs/{job_id}")
            assert status == 200
            assert final["state"] == "succeeded"
            assert request("POST", f"{base}/v1/jobs",
                           payload())[0] == 503
            assert request("GET", f"{base}/readyz")[0] == 503
            assert request("GET", f"{base}/healthz")[0] == 200
        finally:
            svc.stop(drain=False, timeout=5.0)


class _ClockThatFailsOnSleep:
    """Stands in for ``time`` in ``repro.serve.api``: any sleep fails."""

    def __getattr__(self, name):
        return getattr(time, name)

    @staticmethod
    def sleep(seconds):
        raise AssertionError(f"the event stream slept {seconds} s to poll")


class TestEventStreamWakeup:
    def test_stream_waits_on_the_job_instead_of_polling(self, base,
                                                        monkeypatch):
        """A stream that is idle while its job runs must be woken by the
        job itself: with every sleep in the HTTP layer failing, it still
        delivers the last event and ``done``.  The job is held at its
        archive step until the stream is open and has drained."""
        monkeypatch.setattr(api, "time", _ClockThatFailsOnSleep(),
                            raising=False)
        entered, release = threading.Event(), threading.Event()
        capture = RunRegistry.capture

        def held_capture(self, *args, **kwargs):
            entered.set()
            assert release.wait(90.0), "capture never released"
            return capture(self, *args, **kwargs)

        monkeypatch.setattr(RunRegistry, "capture", held_capture)
        lines = []
        try:
            status, _, body = request("POST", f"{base}/v1/jobs", payload())
            assert status == 202
            assert entered.wait(90.0), "the job never reached its archive"
            req = urllib.request.Request(
                f"{base}/v1/jobs/{body['job_id']}/events?stream=1",
                headers={"X-Tenant": "t1"})
            with urllib.request.urlopen(req, timeout=60.0) as response:
                for raw in response:  # until the server closes the stream
                    line = raw.decode().rstrip("\n")
                    lines.append(line)
                    if line.startswith("id:"):
                        # The stream has reached the running job's events.
                        release.set()
        finally:
            release.set()
        assert "event: done" in lines
        data = [json.loads(line[5:]) for line in lines
                if line.startswith("data:")]
        assert data[-1] == {"state": "succeeded"}
        assert data[-2]["stage"] == "succeeded"
