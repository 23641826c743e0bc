"""Unit tests for the distributed telemetry plane.

Covers the four pieces end to end at the unit level: context
propagation (wire round trips, the None gate, lane discipline), the
worker-side shipper (frame layout, budgets, drop counting, delta
cursors), the parent-side merger (byte-identical re-renders, lane
metadata, epoch alignment) and the fleet aggregator (rollup math),
plus the Prometheus text exposition.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    FleetAggregator,
    MetricsRegistry,
    TelemetryShipper,
    TraceContext,
    TraceMerger,
    Tracer,
    sanitize_metric_name,
    to_prometheus,
)


def make_frame(worker="w1", lane=2, seq=1, *, spans=(), gauges=None,
               counters=None, dropped=0, epoch=None):
    frame = {
        "v": 1, "trace_id": "t", "worker": worker, "lane": lane,
        "seq": seq, "spans": list(spans),
        "gauges": gauges or {}, "counters": counters or {},
        "dropped_spans": dropped,
    }
    if epoch is not None:
        frame["epoch"] = epoch
    return frame


def span_doc(name="solve", start=0.0, dur=0.1, **attrs):
    doc = {"name": name, "start_s": start, "duration_s": dur,
           "cpu_s": dur, "depth": 0, "parent": None, "phase": "span"}
    if attrs:
        doc["attrs"] = attrs
    return doc


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext("job-1", parent_span="job:job-1",
                           max_frame_records=16, max_total_records=100)
        child = ctx.child("job-1/a1", lane=2)
        rebuilt = TraceContext.from_wire(child.to_wire())
        assert rebuilt == child
        assert rebuilt.trace_id == "job-1"
        assert rebuilt.worker == "job-1/a1"
        assert rebuilt.lane == 2
        assert rebuilt.max_frame_records == 16
        assert rebuilt.max_total_records == 100

    def test_from_wire_none_is_the_disabled_gate(self):
        assert TraceContext.from_wire(None) is None

    def test_child_lane_must_leave_pid_1_to_the_parent(self):
        ctx = TraceContext("job-1")
        with pytest.raises(ValueError):
            ctx.child("w", lane=1)
        with pytest.raises(ValueError):
            ctx.child("w", lane=0)

    def test_wire_form_is_json_safe(self):
        doc = TraceContext("job-1").child("w", lane=3).to_wire()
        assert json.loads(json.dumps(doc)) == doc


# ----------------------------------------------------------------------
# TelemetryShipper
# ----------------------------------------------------------------------
class TestTelemetryShipper:
    def ctx(self, **kw):
        base = {"max_frame_records": 256, "max_total_records": 5000}
        base.update(kw)
        return TraceContext("t", worker="w1", lane=2, **base)

    def test_idle_flush_returns_none_unless_forced(self):
        shipper = TelemetryShipper(self.ctx(), Tracer())
        assert shipper.flush_frame() is None
        frame = shipper.flush_frame(force=True)
        assert frame is not None
        assert frame["seq"] == 1
        assert frame["spans"] == []
        assert frame["dropped_spans"] == 0

    def test_frames_carry_only_new_spans(self):
        tracer = Tracer()
        shipper = TelemetryShipper(self.ctx(), tracer)
        with tracer.span("a"):
            pass
        first = shipper.flush_frame()
        assert [s["name"] for s in first["spans"]] == ["a"]
        with tracer.span("b"):
            pass
        second = shipper.flush_frame()
        assert [s["name"] for s in second["spans"]] == ["b"]
        assert second["seq"] == first["seq"] + 1

    def test_epoch_ships_exactly_once(self):
        tracer = Tracer()
        shipper = TelemetryShipper(self.ctx(), tracer)
        with tracer.span("a"):
            pass
        assert "epoch" in shipper.flush_frame()
        with tracer.span("b"):
            pass
        assert "epoch" not in shipper.flush_frame()

    def test_frame_budget_drops_newest_and_counts(self):
        tracer = Tracer()
        shipper = TelemetryShipper(self.ctx(max_frame_records=3), tracer)
        for k in range(5):
            with tracer.span(f"s{k}"):
                pass
        frame = shipper.flush_frame()
        assert [s["name"] for s in frame["spans"]] == ["s0", "s1", "s2"]
        assert frame["dropped_spans"] == 2

    def test_lifetime_budget_caps_total_shipped(self):
        tracer = Tracer()
        shipper = TelemetryShipper(
            self.ctx(max_frame_records=10, max_total_records=4), tracer)
        for k in range(3):
            with tracer.span(f"a{k}"):
                pass
        assert len(shipper.flush_frame()["spans"]) == 3
        for k in range(3):
            with tracer.span(f"b{k}"):
                pass
        frame = shipper.flush_frame()
        assert len(frame["spans"]) == 1
        assert frame["dropped_spans"] == 2

    def test_counters_ship_as_deltas(self):
        registry = MetricsRegistry()
        shipper = TelemetryShipper(self.ctx(), Tracer(), registry)
        registry.counter("iters").inc(3)
        assert shipper.flush_frame()["counters"] == {"iters": 3.0}
        registry.counter("iters").inc(2)
        assert shipper.flush_frame()["counters"] == {"iters": 2.0}

    def test_frames_are_json_safe(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        shipper = TelemetryShipper(self.ctx(), tracer, registry)
        registry.gauge("rss_mb").set(12.5)
        with tracer.span("solve", axis="x"):
            pass
        frame = shipper.flush_frame(force=True)
        assert json.loads(json.dumps(frame)) == frame


# ----------------------------------------------------------------------
# TraceMerger
# ----------------------------------------------------------------------
class TestTraceMerger:
    def merger(self):
        return TraceMerger(TraceContext("job-1"), process_name="serve")

    def test_render_is_byte_identical(self):
        merger = self.merger()
        merger.add_span("attempt 1", 0.0, 1.0, tier="full")
        merger.ingest(make_frame(epoch=5.0, spans=[span_doc()]))
        merger.ingest(make_frame(worker="w2", lane=3, spans=[span_doc()]))
        once = json.dumps(merger.chrome_trace(), sort_keys=True)
        twice = json.dumps(merger.chrome_trace(), sort_keys=True)
        assert once == twice

    def test_workers_get_their_lane_pid_and_a_named_process(self):
        merger = self.merger()
        merger.ingest(make_frame(worker="a1", lane=2,
                                 spans=[span_doc("solve")]))
        merger.ingest(make_frame(worker="a2", lane=3, seq=1,
                                 spans=[span_doc("solve")]))
        doc = merger.chrome_trace()
        names = {e["args"]["name"]: e["pid"]
                 for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert names["worker a1"] == 2
        assert names["worker a2"] == 3
        assert names["serve (parent)"] == 1
        spans = [e for e in doc["traceEvents"]
                 if e.get("name") == "solve"]
        assert sorted(e["pid"] for e in spans) == [2, 3]

    def test_epoch_places_worker_spans_on_parent_timeline(self):
        merger = self.merger()
        epoch = merger.origin + 2.0
        merger.ingest(make_frame(
            epoch=epoch, spans=[span_doc("solve", start=0.5)]))
        doc = merger.chrome_trace()
        [event] = [e for e in doc["traceEvents"]
                   if e.get("name") == "solve"]
        assert event["ts"] == pytest.approx(2.5e6)

    def test_dropped_spans_surface_in_other_data_and_a_marker(self):
        merger = self.merger()
        merger.ingest(make_frame(dropped=4, spans=[span_doc()]))
        doc = merger.chrome_trace()
        assert doc["otherData"]["dropped_spans"] == 4
        markers = [e for e in doc["traceEvents"]
                   if e.get("name") == "telemetry_frames_dropped"]
        assert markers and markers[0]["args"]["dropped_spans"] == 4

    def test_bookkeeping_properties(self):
        merger = self.merger()
        assert merger.frames_observed == 0
        merger.ingest(make_frame(seq=1))
        merger.ingest(make_frame(seq=2))
        merger.ingest(make_frame(worker="w2", lane=3))
        assert merger.frames_observed == 3
        assert merger.workers == ["w1", "w2"]


# ----------------------------------------------------------------------
# FleetAggregator
# ----------------------------------------------------------------------
class TestFleetAggregator:
    def test_counters_sum_across_workers_and_frames(self):
        fleet = FleetAggregator()
        fleet.observe_frame(make_frame(counters={"iters": 3.0}))
        fleet.observe_frame(make_frame(seq=2, counters={"iters": 2.0}))
        fleet.observe_frame(make_frame(worker="w2", lane=3,
                                       counters={"iters": 5.0}))
        snap = fleet.snapshot()
        assert snap["counters"] == {"iters": 10.0}
        assert snap["frames"] == 3
        assert snap["workers"] == ["w1", "w2"]

    def test_gauges_keep_last_and_max(self):
        fleet = FleetAggregator()
        fleet.observe_frame(make_frame(gauges={"rss_mb": 40.0}))
        fleet.observe_frame(make_frame(seq=2, gauges={"rss_mb": 80.0}))
        fleet.observe_frame(make_frame(seq=3, gauges={"rss_mb": 60.0}))
        snap = fleet.snapshot()
        assert snap["gauges"] == {"rss_mb": 60.0}
        assert snap["gauge_max"] == {"rss_mb": 80.0}

    def test_stage_medians_from_span_durations(self):
        fleet = FleetAggregator()
        for dur in (0.1, 0.3, 0.2):
            fleet.observe_frame(make_frame(
                spans=[span_doc("solve", dur=dur)]))
        snap = fleet.snapshot()
        assert snap["stages"]["solve"]["count"] == 3
        assert snap["stages"]["solve"]["median_s"] == pytest.approx(0.2)

    def test_stage_reservoir_is_bounded(self):
        fleet = FleetAggregator(reservoir=4)
        for k in range(10):
            fleet.observe_frame(make_frame(
                spans=[span_doc("solve", dur=float(k))]))
        assert fleet.snapshot()["stages"]["solve"]["count"] == 4

    def test_service_time_ewma(self):
        fleet = FleetAggregator(ewma_alpha=0.5)
        fleet.note_service_seconds(2.0)
        fleet.note_service_seconds(4.0)
        snap = fleet.snapshot()
        assert snap["service_seconds_ewma"] == pytest.approx(3.0)

    def test_registry_view_prefixes_fleet(self):
        fleet = FleetAggregator()
        fleet.observe_frame(make_frame(counters={"iters": 7.0},
                                       gauges={"rss_mb": 12.0}))
        fleet.note_service_seconds(1.5)
        registry = fleet.to_registry()
        counters = registry.counters()
        gauges = registry.gauges()
        assert counters["fleet_frames"] == 1.0
        assert counters["fleet_iters"] == 7.0
        assert gauges["fleet_rss_mb"] == 12.0
        assert gauges["fleet_rss_mb_max"] == 12.0
        assert gauges["fleet_service_seconds_ewma"] == 1.5

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FleetAggregator(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            FleetAggregator(reservoir=0)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_sanitize(self):
        assert sanitize_metric_name("jobs.running") == "jobs_running"
        assert sanitize_metric_name("2fast") == "_2fast"
        assert sanitize_metric_name("ok_name") == "ok_name"
        assert sanitize_metric_name("x-y", prefix="repro_") == "repro_x_y"

    def test_registry_renders_typed_families(self):
        registry = MetricsRegistry()
        registry.counter("jobs_done").inc(3)
        registry.gauge("queue_depth").set(2)
        registry.series("lam").record(1, 0.25)
        text = to_prometheus(registry)
        assert "# TYPE repro_jobs_done counter" in text
        assert "repro_jobs_done 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert "repro_lam_last 0.25" in text
        assert text.endswith("\n")

    def test_collisions_are_suffixed_not_lost(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(1)
        registry.counter("a-b").inc(2)
        text = to_prometheus(registry)
        assert "repro_a_b 1" in text
        assert "repro_a_b_2 2" in text

    def test_two_renders_are_identical(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(1)
        registry.gauge("g").set(0.5)
        assert to_prometheus(registry) == to_prometheus(registry)

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
