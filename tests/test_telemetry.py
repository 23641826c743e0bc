"""Tests for repro.telemetry: tracer spans, metrics registry, and the
instrumentation threaded through the placer.

The hard guarantees under test:

* disabled telemetry is zero-overhead (the shared NULL_SPAN singleton,
  no records, no allocations on the hot path),
* span nesting depth/parent/ordering is recorded correctly,
* metrics round-trip losslessly through JSONL,
* a placer run exposes its trajectory via ``result.metrics`` and its
  stage timings via an installed tracer.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.core.convergence import trajectory_summary
from repro.telemetry import MetricsRegistry, Tracer


# ----------------------------------------------------------------------
# tracer: disabled path
# ----------------------------------------------------------------------
class TestDisabledTracer:
    def test_no_tracer_installed_by_default(self):
        assert telemetry.get_tracer() is None

    def test_span_returns_the_shared_null_singleton(self):
        assert telemetry.span("anything") is telemetry.NULL_SPAN
        assert telemetry.span("other", attr=1) is telemetry.NULL_SPAN

    def test_null_span_is_a_noop_context_manager(self):
        with telemetry.span("x") as sp:
            sp.annotate("key", "value")  # must not raise

    def test_instant_is_a_noop_when_disabled(self):
        telemetry.instant("event", detail=1)  # must not raise

    def test_disabled_hot_path_allocates_nothing(self):
        # Warm up so interned strings / code objects exist.
        for _ in range(10):
            with telemetry.span("warmup"):
                pass
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            with telemetry.span("hot"):
                pass
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The loop must not retain memory: same singleton every time.
        assert after - before < 512

    def test_traced_decorator_passes_through_when_disabled(self):
        calls = []

        @telemetry.traced("decorated")
        def fn(a, b=2):
            calls.append((a, b))
            return a + b

        assert fn(1, b=3) == 4
        assert calls == [(1, 3)]


# ----------------------------------------------------------------------
# tracer: recording
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("work", axis="x") as sp:
                sp.annotate("iters", 7)
        assert len(tracer.records) == 1
        rec = tracer.records[0]
        assert rec.name == "work"
        assert rec.duration_s >= 0.0
        assert rec.attrs == {"axis": "x", "iters": 7}
        assert rec.depth == 0 and rec.parent is None

    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    with telemetry.span("leaf"):
                        pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].parent == "outer"
        assert by_name["leaf"].depth == 2
        assert by_name["leaf"].parent == "inner"

    def test_spans_query_is_chronological(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("a"):
                pass
            with telemetry.span("b"):
                with telemetry.span("c"):
                    pass
        names = [r.name for r in tracer.spans()]
        assert names == ["a", "b", "c"]  # start order, not close order

    def test_sibling_spans_share_depth(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("parent"):
                with telemetry.span("first"):
                    pass
                with telemetry.span("second"):
                    pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["first"].depth == by_name["second"].depth == 1
        assert by_name["second"].parent == "parent"

    def test_instants_record_position_in_stack(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("outer"):
                telemetry.instant("recovery", action="retry")
        instants = tracer.instants("recovery")
        assert len(instants) == 1
        assert instants[0].parent == "outer"
        assert instants[0].attrs == {"action": "retry"}
        assert instants[0].phase == "instant"

    def test_aggregate_totals_and_counts(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            for _ in range(3):
                with telemetry.span("stage"):
                    pass
        stats = tracer.aggregate()["stage"]
        assert stats.count == 3
        assert stats.total_s >= stats.max_s >= stats.min_s >= 0.0
        assert tracer.total("stage") == pytest.approx(stats.total_s)

    def test_tracing_restores_previous_tracer(self):
        outer = Tracer()
        with telemetry.tracing(outer):
            inner = Tracer()
            with telemetry.tracing(inner):
                assert telemetry.get_tracer() is inner
            assert telemetry.get_tracer() is outer
        assert telemetry.get_tracer() is None

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with pytest.raises(RuntimeError):
                with telemetry.span("failing"):
                    raise RuntimeError("boom")
        assert [r.name for r in tracer.records] == ["failing"]

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("a", tag=1):
                pass
            telemetry.instant("evt")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"a", "evt"}
        span_line = next(line for line in lines if line["name"] == "a")
        assert span_line["attrs"] == {"tag": 1}

    def test_chrome_trace_export(self, tmp_path):
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with telemetry.span("stage"):
                telemetry.instant("mark")
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {
            "process_name", "thread_name", "thread_sort_index"}
        main = next(e for e in meta if e["name"] == "thread_name")
        assert main["args"]["name"] == "main" and main["tid"] == 1
        phases = {e["name"]: e["ph"] for e in events if e["ph"] != "M"}
        assert phases == {"stage": "X", "mark": "i"}
        stage = next(e for e in events if e["name"] == "stage")
        assert stage["dur"] >= 0.0 and "ts" in stage and stage["tid"] == 1

    def test_traced_decorator_records(self):
        tracer = Tracer()

        @telemetry.traced()
        def compute():
            return 42

        with telemetry.tracing(tracer):
            assert compute() == 42
        assert len(tracer.spans()) == 1
        assert "compute" in tracer.spans()[0].name


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_series_basics(self):
        reg = MetricsRegistry()
        reg.counter("solves").inc()
        reg.counter("solves").inc(2)
        reg.gauge("disp").set(1.5)
        reg.series("pi").record(1, 10.0)
        reg.series("pi").record(2, 5.0)
        assert reg.counters() == {"solves": 3.0}
        assert reg.gauges() == {"disp": 1.5}
        assert reg.series("pi").last == 5.0
        assert len(reg.series("pi")) == 2
        np.testing.assert_allclose(reg.series("pi").as_array(), [10.0, 5.0])

    def test_record_iteration_bulk(self):
        reg = MetricsRegistry()
        reg.record_iteration(1, lam=0.1, pi=9.0)
        reg.record_iteration(2, lam=0.2, pi=4.0)
        assert reg.series_names() == ["lam", "pi"]
        assert list(reg.series("lam").iterations) == [1, 2]

    def test_empty_series_last_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MetricsRegistry().series("nothing").last

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.meta["suite"] = "unit"
        reg.counter("cg_solves").inc(11)
        reg.gauge("disp").set(2.25)
        reg.record_iteration(1, lam=0.5, pi=100.0)
        reg.record_iteration(2, lam=0.75, pi=50.0)
        path = tmp_path / "metrics.jsonl"
        reg.write_jsonl(str(path))
        back = MetricsRegistry.read_jsonl(str(path))
        assert back.meta == {"suite": "unit"}
        assert back.counters() == reg.counters()
        assert back.gauges() == reg.gauges()
        for name in reg.series_names():
            assert back.series(name).iterations == reg.series(name).iterations
            assert back.series(name).values == reg.series(name).values

    def test_read_jsonl_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery", "name": "x"}\n')
        with pytest.raises(ValueError, match="unknown instrument kind"):
            MetricsRegistry.read_jsonl(str(path))

    def test_json_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.series("pi").record(0, 7.0)
        back = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.to_dict())))
        assert back.counters() == {"n": 3.0}
        assert back.series("pi").values == [7.0]

    def test_truncate_series_rollback(self):
        reg = MetricsRegistry()
        for k in range(5):
            reg.record_iteration(k, pi=float(k))
        reg.truncate_series(3)
        assert len(reg.series("pi")) == 3
        assert reg.series("pi").iterations == [0, 1, 2]

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        b.series("s").record(0, 1.0)
        b.meta["k"] = "v"
        a.merge(b)
        assert a.counters() == {"c": 3.0}
        assert a.gauges() == {"g": 5.0}
        assert a.series("s").values == [1.0]
        assert a.meta == {"k": "v"}

    def test_write_csv_aligned(self, tmp_path):
        reg = MetricsRegistry()
        reg.record_iteration(1, lam=0.1, pi=10.0)
        reg.record_iteration(2, lam=0.2, pi=5.0)
        path = tmp_path / "series.csv"
        reg.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,lam,pi"
        assert lines[1].startswith("1,")

    def test_write_csv_rejects_misaligned(self, tmp_path):
        reg = MetricsRegistry()
        reg.series("a").record(0, 1.0)
        reg.series("b").record(0, 1.0)
        reg.series("b").record(1, 2.0)
        with pytest.raises(ValueError, match="aligned"):
            reg.write_csv(str(tmp_path / "bad.csv"))

    def test_active_registry_protocol(self):
        assert telemetry.get_metrics() is None
        with telemetry.metrics() as reg:
            assert telemetry.get_metrics() is reg
        assert telemetry.get_metrics() is None


# ----------------------------------------------------------------------
# integration with the placer
# ----------------------------------------------------------------------
class TestPlacerIntegration:
    def test_result_metrics_carries_trajectories(self, placed_small):
        reg = placed_small.metrics
        for name in ("lam", "pi", "phi_lower", "phi_upper", "lagrangian",
                     "duality_gap", "overflow_percent", "grid_bins"):
            assert reg.has_series(name)
            assert len(reg.series(name)) == placed_small.iterations
        assert reg.gauges()["final_lambda"] == pytest.approx(
            placed_small.final_lambda)
        assert reg.meta.get("stop_reason") == \
            placed_small.history.stop_reason

    def test_metrics_match_history_records(self, placed_small):
        reg = placed_small.metrics
        history = placed_small.history
        np.testing.assert_allclose(
            reg.series("pi").as_array(),
            np.array([r.pi for r in history.records]),
        )

    def test_trajectory_summary_endpoints(self, placed_small):
        summary = trajectory_summary(placed_small.metrics)
        assert summary["iterations"] == placed_small.iterations
        assert summary["final_lambda"] == pytest.approx(
            placed_small.final_lambda)
        assert 0.0 <= summary["pi_reduction"] <= 1.0

    def test_trajectory_summary_empty_registry(self):
        assert trajectory_summary(MetricsRegistry()) == {}

    def test_traced_run_records_stage_spans(self, small_design):
        from repro.core import ComPLxConfig, ComPLxPlacer

        tracer = Tracer()
        with telemetry.tracing(tracer):
            placer = ComPLxPlacer(small_design.netlist, ComPLxConfig(seed=1))
            result = placer.place()
        stats = tracer.aggregate()
        for stage in ("global_place", "iteration", "projection", "primal",
                      "cg_solve", "b2b_build", "lookahead_legalize"):
            assert stage in stats, f"missing span {stage!r}"
        assert stats["global_place"].count == 1
        assert stats["iteration"].count == result.iterations
        # Nesting: projection/primal happen inside iteration spans.
        by_name = {r.name: r for r in tracer.records}
        assert by_name["projection"].parent == "iteration"
        assert by_name["primal"].parent == "iteration"

    def test_results_identical_with_and_without_telemetry(self, small_design):
        from repro.core import ComPLxConfig, ComPLxPlacer

        bare = ComPLxPlacer(small_design.netlist,
                            ComPLxConfig(seed=7)).place()
        with telemetry.tracing(), telemetry.metrics():
            traced = ComPLxPlacer(small_design.netlist,
                                  ComPLxConfig(seed=7)).place()
        np.testing.assert_array_equal(bare.upper.x, traced.upper.x)
        np.testing.assert_array_equal(bare.upper.y, traced.upper.y)
        np.testing.assert_array_equal(bare.lower.x, traced.lower.x)
        assert bare.iterations == traced.iterations

    def test_cg_metrics_counters(self, small_design):
        from repro.core import ComPLxConfig, ComPLxPlacer

        with telemetry.metrics() as reg:
            ComPLxPlacer(small_design.netlist, ComPLxConfig(seed=1)).place()
        assert reg.counters()["cg_solves"] > 0
        assert reg.counters()["cg_iterations_total"] > 0

    def test_legalizer_displacement_gauges(self, placed_small, small_design):
        from repro.legalize import abacus_legalize

        with telemetry.metrics() as reg:
            abacus_legalize(small_design.netlist, placed_small.upper)
        gauges = reg.gauges()
        assert gauges["legalize_abacus_mean_displacement"] >= 0.0
        assert (gauges["legalize_abacus_max_displacement"]
                >= gauges["legalize_abacus_mean_displacement"])

    def test_recovery_events_become_instants(self, small_design):
        from repro.resilience.events import RecoveryEvent, RecoveryLog

        tracer = Tracer()
        log = RecoveryLog()
        with telemetry.tracing(tracer):
            log.record(RecoveryEvent(fault="cg_stall", stage="primal",
                                     action="retry", iteration=3))
        instants = tracer.instants("recovery")
        assert len(instants) == 1
        assert instants[0].attrs["fault"] == "cg_stall"
        assert instants[0].attrs["iteration"] == 3
