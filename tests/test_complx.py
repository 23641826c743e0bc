"""Integration tests for the ComPLx placer loop (paper Sections 3-5)."""

import numpy as np
import pytest

from repro import ComPLxConfig, hpwl
from repro.core import ComPLxPlacer, place
from repro.models import weighted_hpwl


class TestRunInvariants:
    def test_runs_to_completion(self, placed_small):
        assert placed_small.iterations >= 2
        assert placed_small.history.stop_reason in (
            "duality_gap", "pi_feasible", "plateau", "max_iterations"
        )

    def test_weak_duality_every_iteration(self, placed_small):
        """Formula 7: Phi(lower) <= Phi(upper feasible) throughout."""
        metrics = placed_small.metrics
        lb = metrics.series("phi_lower").as_array()
        ub = metrics.series("phi_upper").as_array()
        assert np.all(lb <= ub + 1e-6)

    def test_pi_decreases_overall(self, placed_small):
        pi = placed_small.metrics.series("pi").as_array()
        assert pi[-1] < 0.6 * pi[:3].max()

    def test_phi_lower_increases_overall(self, placed_small):
        """Formula 6: the minimized Lagrangian (hence Phi) grows as
        lambda grows."""
        lb = placed_small.metrics.series("phi_lower").as_array()
        assert lb[-1] > lb[0]

    def test_lambda_monotone(self, placed_small):
        lam = placed_small.metrics.series("lam").as_array()
        assert np.all(np.diff(lam) >= -1e-12)
        assert lam[0] > 0

    def test_lambda_initialization_ratio(self, placed_small):
        """lambda_1 ~ Phi/(100 Pi) from the first record's values."""
        first = placed_small.history[0]
        assert first.lam == pytest.approx(
            first.phi_lower / (100.0 * first.pi), rel=1e-6
        )

    def test_all_cells_inside_core(self, small_design, placed_small):
        nl = small_design.netlist
        bounds = nl.core.bounds
        for placement in (placed_small.lower, placed_small.upper):
            movable = nl.movable
            assert (placement.x[movable] >= bounds.xlo - 1e-6).all()
            assert (placement.x[movable] <= bounds.xhi + 1e-6).all()
            assert (placement.y[movable] >= bounds.ylo - 1e-6).all()
            assert (placement.y[movable] <= bounds.yhi + 1e-6).all()

    def test_fixed_cells_never_move(self, small_design, placed_small):
        nl = small_design.netlist
        fixed = ~nl.movable
        assert np.allclose(placed_small.upper.x[fixed], nl.fixed_x[fixed])
        assert np.allclose(placed_small.upper.y[fixed], nl.fixed_y[fixed])

    def test_upper_bound_spreads_cells(self, small_design, placed_small):
        """The feasible iterate has low density overflow."""
        last = placed_small.history.records[-1]
        assert last.overflow_percent < 8.0

    def test_deterministic(self, small_design):
        a = place(small_design.netlist, ComPLxConfig(seed=5, max_iterations=8))
        b = place(small_design.netlist, ComPLxConfig(seed=5, max_iterations=8))
        assert np.array_equal(a.lower.x, b.lower.x)
        assert np.array_equal(a.upper.y, b.upper.y)

    def test_spreading_beats_random(self, small_design, placed_small):
        """Optimized placement beats a random one by a wide margin."""
        nl = small_design.netlist
        rng = np.random.default_rng(0)
        bounds = nl.core.bounds
        random_p = nl.initial_placement()
        random_p.x[nl.movable] = rng.uniform(bounds.xlo, bounds.xhi,
                                             nl.num_movable)
        random_p.y[nl.movable] = rng.uniform(bounds.ylo, bounds.yhi,
                                             nl.num_movable)
        assert hpwl(nl, placed_small.upper) < 0.6 * hpwl(nl, random_p)


class TestConfigurationPaths:
    def test_callback_invoked(self, small_design):
        seen = []
        placer = ComPLxPlacer(small_design.netlist,
                              ComPLxConfig(max_iterations=4, gap_tol=0.0))
        placer.place(callback=lambda k, lo, up: seen.append(k))
        assert seen == [1, 2, 3, 4]

    def test_initial_placement_respected(self, small_design):
        nl = small_design.netlist
        initial = nl.initial_placement(jitter=2.0, seed=9)
        placer = ComPLxPlacer(nl, ComPLxConfig(max_iterations=2, gap_tol=0.0,
                                               init_sweeps=1))
        result = placer.place(initial=initial)
        assert result.iterations == 2

    def test_grid_schedule_coarse_to_fine(self, small_design):
        config = ComPLxConfig(initial_bins=2, refine_every=2,
                              max_iterations=8, gap_tol=0.0,
                              pi_tol_fraction=0.0)
        placer = ComPLxPlacer(small_design.netlist, config)
        result = placer.place()
        bins = result.metrics.series("grid_bins").as_array()
        assert bins[0] == 2
        assert bins[-1] > bins[0]
        assert np.all(np.diff(bins) >= 0)

    def test_finest_grid_only(self, small_design):
        config = ComPLxConfig(finest_grid_only=True, max_iterations=3,
                              gap_tol=0.0)
        placer = ComPLxPlacer(small_design.netlist, config)
        result = placer.place()
        bins = result.metrics.series("grid_bins").as_array()
        assert len(set(bins)) == 1

    def test_lse_model_runs(self, small_design):
        config = ComPLxConfig(net_model="lse", max_iterations=4,
                              gap_tol=0.0, nlcg_max_iter=15)
        result = place(small_design.netlist, config)
        assert result.iterations == 4
        assert np.isfinite(
            result.metrics.series("phi_lower").as_array()).all()

    @pytest.mark.parametrize("model", ["clique", "star", "hybrid"])
    def test_alternative_net_models(self, small_design, model):
        config = ComPLxConfig(net_model=model, max_iterations=3, gap_tol=0.0)
        result = place(small_design.netlist, config)
        assert result.iterations == 3

    def test_criticality_validation(self, small_design):
        nl = small_design.netlist
        with pytest.raises(ValueError):
            ComPLxPlacer(nl, criticality=np.ones(3))
        with pytest.raises(ValueError):
            ComPLxPlacer(nl, criticality=np.zeros(nl.num_cells))

    def test_criticality_reduces_displacement(self, small_design):
        """Formula 13: heavily weighted cells end closer to their
        anchors than in the unweighted run."""
        nl = small_design.netlist
        target = np.flatnonzero(nl.movable)[:10]
        crit = np.ones(nl.num_cells)
        crit[target] = 25.0
        config = ComPLxConfig(max_iterations=10, gap_tol=0.0, seed=2)
        base = ComPLxPlacer(nl, config).place()
        weighted = ComPLxPlacer(nl, config, criticality=crit).place()

        def gap(result):
            return (
                np.abs(result.lower.x[target] - result.upper.x[target])
                + np.abs(result.lower.y[target] - result.upper.y[target])
            ).sum()

        assert gap(weighted) < gap(base) + 1e-9

    def test_dp_each_iteration_requires_callable(self, small_design):
        with pytest.raises(ValueError, match="detailed_placer"):
            ComPLxPlacer(small_design.netlist,
                         ComPLxConfig(dp_each_iteration=True))

    def test_dp_each_iteration_invoked(self, small_design):
        calls = []

        def fake_dp(placement):
            calls.append(1)
            return placement

        config = ComPLxConfig(dp_each_iteration=True, max_iterations=3,
                              gap_tol=0.0)
        ComPLxPlacer(small_design.netlist, config,
                     detailed_placer=fake_dp).place()
        assert len(calls) == 3


class TestMixedSize:
    def test_mixed_run_completes(self, placed_mixed):
        assert placed_mixed.iterations >= 2

    def test_macros_spread_apart(self, mixed_design, placed_mixed):
        nl = mixed_design.netlist
        macros = np.flatnonzero(nl.movable_macros)
        assert macros.size >= 2
        p = placed_mixed.upper
        # macros should not still be coincident at the core center
        d = (np.abs(p.x[macros][:, None] - p.x[macros][None, :])
             + np.abs(p.y[macros][:, None] - p.y[macros][None, :]))
        off_diag = d[~np.eye(macros.size, dtype=bool)]
        assert off_diag.min() > 1.0

    def test_weighted_hpwl_used_for_phi(self, small_design, placed_small):
        last = placed_small.history.records[-1]
        assert last.phi_upper == pytest.approx(
            weighted_hpwl(small_design.netlist, placed_small.upper), rel=1e-9
        )
