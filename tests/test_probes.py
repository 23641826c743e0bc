"""Deep health probes: CG residual histories, projection snapshots,
displacement histograms, memory gauges — and the zero-overhead
guarantee when telemetry is disabled."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ComPLxConfig, faults, telemetry
from repro.core import ComPLxPlacer
from repro.legalize import abacus_legalize
from repro.solvers import jacobi_pcg, solve_spd
from repro.solvers.cg import record_cg_solve
from repro.telemetry import MetricsRegistry, Tracer


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.3, random_state=rng.integers(2**31))
    m = (a @ a.T).tocsr()
    return m + sp.eye(n) * (0.1 + m.diagonal().max())


class TestCgResidualHistory:
    def test_off_by_default(self):
        matrix = random_spd(20, seed=1)
        result = jacobi_pcg(matrix, np.ones(20))
        assert result.residual_history is None

    def test_collects_initial_plus_per_iteration_norms(self):
        matrix = random_spd(20, seed=1)
        result = jacobi_pcg(matrix, np.ones(20), tol=1e-10,
                            collect_residuals=True)
        history = result.residual_history
        assert history is not None
        assert history.shape[0] == result.iterations + 1
        assert history[-1] <= history[0]
        assert history[-1] == pytest.approx(result.residual)

    def test_collection_does_not_change_the_solution(self):
        matrix = random_spd(30, seed=2)
        rhs = np.random.default_rng(2).normal(size=30)
        plain = jacobi_pcg(matrix, rhs, tol=1e-9)
        collected = jacobi_pcg(matrix, rhs, tol=1e-9,
                               collect_residuals=True)
        assert np.array_equal(plain.x, collected.x)
        assert plain.iterations == collected.iterations

    def test_solve_spd_collects_automatically_with_registry(self):
        matrix = random_spd(15, seed=3)
        with telemetry.metrics() as registry:
            solve_spd(matrix, np.ones(15))
        series = registry.series("cg_last_residual_history")
        assert len(series) >= 1
        assert registry.counters()["cg_solves"] == 1


class TestCgSolveMetrics:
    def test_record_cg_solve_series_use_solve_ordinals(self):
        matrix = random_spd(10, seed=4)
        registry = MetricsRegistry()
        for _ in range(3):
            record_cg_solve(registry, jacobi_pcg(matrix, np.ones(10)))
        assert registry.counters()["cg_solves"] == 3
        assert registry.series("cg_solve_iterations").iterations == [0, 1, 2]

    def test_injected_stall_lands_in_metrics(self):
        matrix = random_spd(10, seed=5)
        with telemetry.metrics() as registry:
            with faults.injected("cg.stall@1"):
                result = solve_spd(matrix, np.ones(10))
        assert not result.converged
        assert result.iterations == 0
        assert registry.counters()["cg_stalls"] == 1
        assert registry.series("cg_stall_solves").iterations == [0]

    def test_injected_stall_lands_in_trace(self):
        matrix = random_spd(10, seed=5)
        tracer = Tracer()
        with telemetry.tracing(tracer):
            with faults.injected("cg.stall@1"):
                solve_spd(matrix, np.ones(10))
        spans = tracer.spans("cg_solve")
        assert len(spans) == 1
        assert spans[0].attrs["converged"] is False


class TestPlacementProbes:
    @pytest.fixture(scope="class")
    def probed(self, small_design):
        with telemetry.metrics() as registry:
            result = ComPLxPlacer(small_design.netlist,
                                  ComPLxConfig(seed=1)).place()
            registry.merge(result.metrics)
            abacus_legalize(small_design.netlist, result.upper)
        return registry, result

    def test_projection_probe_series(self, probed):
        registry, result = probed
        overflow = registry.series("projection_overflow_percent")
        assert len(overflow) >= result.iterations
        topk = registry.series("projection_topk_utilization").as_array()
        peak = registry.series("projection_max_utilization").as_array()
        assert np.all(topk <= peak + 1e-12)
        assert np.all(registry.series(
            "projection_overfilled_bins").as_array() >= 0)

    def test_displacement_histogram(self, probed):
        registry, _ = probed
        hist = registry.series("legalize_abacus_displacement_hist")
        assert len(hist) == 16
        gauges = registry.gauges()
        assert gauges["legalize_abacus_hist_hi_um"] >= \
            gauges["legalize_abacus_hist_lo_um"]
        assert sum(hist.values) > 0
        assert gauges["legalize_abacus_p95_displacement"] <= \
            gauges["legalize_abacus_max_displacement"] + 1e-12

    def test_stage_memory_gauges(self, probed):
        registry, _ = probed
        gauges = registry.gauges()
        assert gauges["mem_global_place_peak_rss_mb"] > 0
        assert gauges["mem_init_sweeps_peak_rss_mb"] > 0
        assert gauges["mem_legalize_abacus_peak_rss_mb"] > 0

    def test_memory_probe_is_noop_without_registry(self):
        assert telemetry.get_metrics() is None
        telemetry.record_stage_memory("nothing")  # must not raise


class TestZeroOverheadWhenDisabled:
    def test_placement_is_byte_identical_with_probes_on(self, small_design):
        config = ComPLxConfig(seed=1, max_iterations=8)
        bare = ComPLxPlacer(small_design.netlist, config).place()
        with telemetry.tracing(), telemetry.metrics():
            probed = ComPLxPlacer(small_design.netlist, config).place()
        assert np.array_equal(bare.upper.x, probed.upper.x)
        assert np.array_equal(bare.upper.y, probed.upper.y)
        assert np.array_equal(bare.lower.x, probed.lower.x)

    def test_legalizer_probe_disabled_records_nothing(self, small_design,
                                                      placed_small):
        before = telemetry.get_metrics()
        assert before is None
        legal = abacus_legalize(small_design.netlist, placed_small.upper)
        assert telemetry.get_metrics() is None
        assert legal.x.shape == placed_small.upper.x.shape
