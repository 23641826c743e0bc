"""Unit tests for the serve building blocks: queue, tenants, config, jobs."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ComPLxConfig
from repro.serve.config import DEFAULT_TIERS, DegradationTier, ServeConfig
from repro.serve.jobs import (CONFIG_OVERRIDES, JobRecord, JobSpec,
                              JobState, JobValidationError)
from repro.serve.queue import (BACKGROUND_PRIORITY, BoundedPriorityQueue,
                               QueueFull)
from repro.serve.tenants import RateLimited, TenantTable


def _payload(**overrides):
    base = {
        "name": "unit",
        "workload": {"kind": "synthetic", "num_cells": 20, "seed": 1},
    }
    base.update(overrides)
    return base


class TestBoundedPriorityQueue:
    def test_priority_then_fifo_order(self):
        q = BoundedPriorityQueue(capacity=8)
        q.put("a", 5, "a")
        q.put("b", 1, "b")
        q.put("c", 5, "c")
        q.put("d", 0, "d")
        assert [q.get(0.1) for _ in range(4)] == ["d", "b", "a", "c"]

    def test_full_queue_raises_with_retry_after(self):
        q = BoundedPriorityQueue(capacity=2)
        q.put("a", 5, "a")
        q.put("b", 5, "b")
        with pytest.raises(QueueFull) as info:
            q.put("c", 5, "c", workers=2)
        assert info.value.retry_after >= 0.5
        assert q.depth() == 2

    def test_remove_reclaims_slot_and_get_skips_tombstone(self):
        q = BoundedPriorityQueue(capacity=2)
        q.put("a", 1, "a")
        q.put("b", 5, "b")
        assert q.remove("a")
        assert not q.remove("a")
        q.put("c", 9, "c")  # slot freed immediately
        assert q.get(0.1) == "b"
        assert q.get(0.1) == "c"
        assert q.get(0.05) is None

    def test_close_unblocks_getters_and_rejects_puts(self):
        q = BoundedPriorityQueue(capacity=2)
        q.put("a", 5, "a")
        q.close()
        with pytest.raises(RuntimeError):
            q.put("b", 5, "b")
        assert q.get(0.1) == "a"  # close drains what is queued
        assert q.get(0.1) is None

    def test_drain_empties_and_skips_tombstones(self):
        q = BoundedPriorityQueue(capacity=4)
        q.put("a", 5, "a")
        q.put("b", 5, "b")
        q.remove("a")
        assert q.drain() == ["b"]
        assert q.depth() == 0

    def test_wait_estimates_scale_with_backlog_and_service_time(self):
        q = BoundedPriorityQueue(capacity=16)
        for i in range(4):
            q.put(f"j{i}", 5, i)
        one_worker = q.estimated_wait_seconds(1)
        assert one_worker == pytest.approx(4 * 1.0)  # EWMA starts at 1s
        assert q.estimated_wait_seconds(4) == pytest.approx(one_worker / 4)
        for _ in range(50):
            q.note_service_seconds(10.0)
        assert q.estimated_wait_seconds(1) > one_worker

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(capacity=0)


class TestPriorityBands:
    def test_interactive_always_beats_background(self):
        q = BoundedPriorityQueue(capacity=8)
        q.put("bg", BACKGROUND_PRIORITY, "bg")
        q.put("fg", BACKGROUND_PRIORITY - 1, "fg")
        assert q.get(0.1) == "fg"
        assert q.get(0.1) == "bg"

    def test_interactive_only_get_skips_background(self):
        q = BoundedPriorityQueue(capacity=8)
        q.put("bg", BACKGROUND_PRIORITY, "bg")
        assert q.get(0.05, background_ok=False) is None
        q.put("fg", 0, "fg")
        assert q.get(0.1, background_ok=False) == "fg"
        # the background entry is still queued, not lost
        assert q.get(0.1) == "bg"

    def test_depth_counts_both_bands(self):
        q = BoundedPriorityQueue(capacity=8)
        q.put("bg1", BACKGROUND_PRIORITY, "bg1")
        q.put("bg2", BACKGROUND_PRIORITY + 5, "bg2")
        q.put("fg", 3, "fg")
        assert q.depth() == 3

    def test_closed_queue_still_drains_background(self):
        q = BoundedPriorityQueue(capacity=8)
        q.put("bg", BACKGROUND_PRIORITY, "bg")
        q.close()
        assert q.get(0.05, background_ok=False) is None
        assert q.get(0.1) == "bg"


class TestTenantTable:
    def test_burst_exhaustion_rate_limits(self):
        table = TenantTable(rate=0.001, burst=2)
        table.admit("acme")
        table.admit("acme")
        with pytest.raises(RateLimited) as info:
            table.admit("acme")
        assert info.value.tenant == "acme"
        assert info.value.retry_after > 0

    def test_tenants_are_independent(self):
        table = TenantTable(rate=0.001, burst=1)
        table.admit("acme")
        table.admit("globex")  # unaffected by acme's empty bucket
        with pytest.raises(RateLimited):
            table.admit("acme")
        assert table.known_tenants() == ["acme", "globex"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantTable(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TenantTable(rate=1.0, burst=0)


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.tiers == DEFAULT_TIERS
        assert config.tiers[0].name == "full"

    def test_with_overrides(self):
        config = ServeConfig().with_overrides(workers=4, port=0)
        assert config.workers == 4
        assert config.port == 0

    @pytest.mark.parametrize("bad", [
        {"workers": 0},
        {"queue_capacity": 0},
        {"max_retries": -1},
        {"retry_backoff_seconds": -0.1},
        {"default_deadline_seconds": -1.0},
        {"tenant_rate": 0.0},
        {"drain_timeout_seconds": -1.0},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)

    def test_first_tier_must_be_undegraded(self):
        bad = (DegradationTier(name="half", activate_wait_seconds=0.0,
                               max_iterations_factor=0.5),)
        with pytest.raises(ValueError):
            ServeConfig(tiers=bad)

    def test_tier_thresholds_must_increase(self):
        tiers = (
            DEFAULT_TIERS[0],
            DegradationTier(name="b", activate_wait_seconds=30.0,
                            max_iterations_factor=0.5),
            DegradationTier(name="c", activate_wait_seconds=10.0,
                            max_iterations_factor=0.25),
        )
        with pytest.raises(ValueError):
            ServeConfig(tiers=tiers)

    def test_tier_validation(self):
        with pytest.raises(ValueError):
            DegradationTier(name="x", activate_wait_seconds=-1.0,
                            max_iterations_factor=1.0)
        with pytest.raises(ValueError):
            DegradationTier(name="x", activate_wait_seconds=0.0,
                            max_iterations_factor=1.5)
        with pytest.raises(ValueError):
            DegradationTier(name="x", activate_wait_seconds=0.0,
                            max_iterations_factor=1.0, legalizer="magic")


class TestJobSpec:
    def test_valid_payload_round_trips(self):
        spec = JobSpec.from_payload(_payload(
            tenant="acme", priority=2, config={"max_iterations": 10},
            legalizer="tetris", deadline_seconds=30, max_retries=1,
        ), "j-000001")
        assert spec.job_id == "j-000001"
        assert spec.tenant == "acme"
        assert spec.priority == 2
        assert spec.config == {"max_iterations": 10}
        assert spec.deadline_seconds == 30.0
        assert spec.max_retries == 1

    def test_default_tenant_comes_from_hint(self):
        spec = JobSpec.from_payload(_payload(), "j-1",
                                    default_tenant="globex")
        assert spec.tenant == "globex"

    @pytest.mark.parametrize("mutation, fragment", [
        ({"bogus": 1}, "unknown field"),
        ({"tenant": "no spaces"}, "tenant"),
        ({"name": ""}, "name"),
        ({"priority": 42}, "priority"),
        ({"priority": True}, "priority"),
        ({"effort": 0}, "effort"),
        ({"effort": 10}, "effort"),
        ({"effort": "high"}, "effort"),
        ({"workload": {"kind": "starlink"}}, "workload.kind"),
        ({"workload": {"kind": "synthetic"}}, "num_cells"),
        ({"workload": {"kind": "suite"}}, "workload.suite"),
        ({"workload": {"kind": "aux"}}, "workload.path"),
        ({"config": {"secret_knob": 1}}, "not an overridable knob"),
        ({"config": {"max_iterations": "many"}}, "must be a int"),
        ({"legalizer": "greedy"}, "legalizer"),
        ({"deadline_seconds": -5}, "deadline_seconds"),
        ({"max_retries": 99}, "max_retries"),
        # What the worker would fail on, rejected at submission instead.
        ({"workload": {"kind": "synthetic", "num_cells": 20, "bogus": 1}},
         "workload.bogus"),
        ({"workload": {"kind": "synthetic", "num_cells": 20,
                       "seed": "abc"}}, "workload.seed"),
        ({"workload": {"kind": "synthetic", "num_cells": 20,
                       "row_height": 0.0}}, "row_height"),
        ({"workload": {"kind": "synthetic", "num_cells": 20,
                       "num_movable_macros": 1, "macro_rows": [24, 8]}},
         "macro_rows"),
        ({"workload": {"kind": "suite", "suite": "no_such_suite"}},
         "workload.suite"),
        ({"workload": {"kind": "suite", "suite": "adaptec1_s",
                       "scale": True}}, "workload.scale"),
        ({"deadline_seconds": True}, "deadline_seconds"),
        ({"max_retries": True}, "max_retries"),
    ])
    def test_rejects_malformed_payloads(self, mutation, fragment):
        with pytest.raises(JobValidationError, match=fragment):
            JobSpec.from_payload(_payload(**mutation), "j-1")

    def test_payload_must_be_object(self):
        with pytest.raises(JobValidationError):
            JobSpec.from_payload(["nope"], "j-1")  # type: ignore[arg-type]


#: Any JSON value ``json.loads`` can return, NaN and infinities included.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6,
)
#: Numbers first: most fields and every override are numeric, and the
#: three non-finite literals are what ``json.loads`` lets through.
_JUNK = st.sampled_from([math.inf, -math.inf, math.nan]) | st.integers() \
    | st.floats(allow_nan=True, allow_infinity=True) | _JSON
#: Mostly well-formed workloads, so validation gets past them.
_WORKLOADS = (
    st.fixed_dictionaries({"kind": st.just("synthetic"),
                           "num_cells": st.just(20)},
                          optional={"seed": _JUNK, "bogus": _JUNK})
    | st.fixed_dictionaries({"kind": st.just("suite"),
                             "suite": st.just("adaptec1_s")},
                            optional={"scale": _JUNK})
    | _JSON
)
_PAYLOADS = st.fixed_dictionaries(
    {
        "workload": _WORKLOADS,
        "config": st.dictionaries(
            st.sampled_from(sorted(CONFIG_OVERRIDES)) | st.text(max_size=6),
            _JUNK, max_size=4) | _JSON,
    },
    optional={key: _JUNK for key in (
        "tenant", "name", "priority", "legalizer", "detailed",
        "deadline_seconds", "max_retries", "include_placement", "effort",
        "bogus")},
) | _JSON


class TestJobSpecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS)
    def test_junk_gives_a_spec_or_a_validation_error(self, payload):
        try:
            spec = JobSpec.from_payload(payload, "j-fuzz")
        except JobValidationError:
            return
        # What passes validation is strict JSON and a config the placer
        # accepts.
        json.dumps(dataclasses.asdict(spec), allow_nan=False)
        ComPLxConfig(**spec.config)


class TestJobRecord:
    def _record(self, keep_events: int = 2000) -> JobRecord:
        spec = JobSpec.from_payload(_payload(), "j-1")
        return JobRecord(spec=spec, keep_events=keep_events)

    def test_event_cursor(self):
        record = self._record()
        for i in range(5):
            record.add_event({"i": i})
        events, cursor, dropped = record.events_since(0)
        assert [e["i"] for e in events] == [0, 1, 2, 3, 4]
        assert dropped == 0
        record.add_event({"i": 5})
        events, cursor, _ = record.events_since(cursor)
        assert [e["i"] for e in events] == [5]
        assert record.events_since(cursor) == ([], 6, 0)

    def test_event_buffer_is_bounded(self):
        record = self._record(keep_events=3)
        for i in range(10):
            record.add_event({"i": i})
        events, cursor, dropped = record.events_since(0)
        assert [e["i"] for e in events] == [7, 8, 9]
        assert cursor == 10
        assert dropped == 7
        # A cursor pointing into the dropped range clamps cleanly and
        # reports the watermark so callers can surface the gap.
        events, _, dropped = record.events_since(5)
        assert [e["i"] for e in events] == [7, 8, 9]
        assert dropped - 5 == 2  # the gap this cursor can never see

    def test_lifecycle_snapshot(self):
        record = self._record()
        record.enqueued_at = 100.0
        assert not record.done
        assert record.start_attempt("full", now=101.0) == 1
        record.transition(JobState.SUCCEEDED, now=103.5)
        assert record.done
        snap = record.snapshot()
        assert snap["state"] == "succeeded"
        assert snap["attempts"] == 1
        assert snap["queue_wait_seconds"] == pytest.approx(1.0)
        assert snap["run_seconds"] == pytest.approx(2.5)

    def test_wait_events(self):
        record = self._record()
        assert not record.wait_events(0, 0.0)
        record.add_event({"i": 0})
        assert record.wait_events(0, 0.0)
        assert not record.wait_events(1, 0.0)
        record.transition(JobState.FAILED, now=1.0)
        assert record.wait_events(1, 0.0)

    def test_waiting_readers_see_every_event_and_the_end(self):
        """More waiting readers than cores, one writer, a short switch
        interval: readers that only wake on the record's notifications
        still collect every event, in order, and then the terminal
        state."""
        record = self._record()
        seen: list[list[int]] = [[] for _ in range(6)]

        def reader(out):
            cursor = 0
            while True:
                done = record.done
                events, cursor, _ = record.events_since(cursor)
                out.extend(e["i"] for e in events)
                if done:
                    return
                record.wait_events(cursor, 30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(out,))
                       for out in seen]
            for thread in threads:
                thread.start()
            for i in range(300):
                record.add_event({"i": i})
            record.transition(JobState.SUCCEEDED, now=1.0)
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [list(range(300))] * 6

    def test_cancel_flag(self):
        record = self._record()
        assert not record.cancel_requested
        assert not record.wait_cancel(0.01)
        record.request_cancel()
        assert record.cancel_requested
        assert record.wait_cancel(0.01)
