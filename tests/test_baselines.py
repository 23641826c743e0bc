"""Tests for the baseline placers (SimPL, RQL, FastPlace, nonlinear)."""

import numpy as np
import pytest

from repro import ComPLxConfig, hpwl
from repro.baselines import (
    FastPlacePlacer,
    NonlinearPlacer,
    RQLPlacer,
    SimPLPlacer,
    SmoothDensity,
    fastplace_place,
    nonlinear_place,
    rql_place,
    simpl_place,
)
from repro.projection.grid import DensityGrid


class TestSimPL:
    def test_runs_and_converges(self, small_design):
        result = simpl_place(small_design.netlist, max_iterations=40)
        assert result.iterations >= 2
        pi = result.metrics.series("pi").as_array()
        assert pi[-1] < pi[:3].max()

    def test_uses_simpl_schedule(self, small_design):
        placer = SimPLPlacer(small_design.netlist)
        assert placer.config.lambda_mode == "simpl"
        assert not placer.config.per_macro_lambda


class TestRQL:
    def test_runs(self, small_design):
        result = rql_place(small_design.netlist)
        assert result.iterations >= 2

    def test_force_cap_validation(self, small_design):
        with pytest.raises(ValueError):
            RQLPlacer(small_design.netlist, force_cap_quantile=0.0)

    def test_forces_actually_capped(self, small_design):
        """The RQL anchor weights clamp the per-cell force at the
        quantile cap (compare against the uncapped ComPLx weights)."""
        from repro.core.anchors import anchor_weights
        nl = small_design.netlist
        placer = RQLPlacer(nl, force_cap_quantile=0.5)
        current = nl.initial_placement(jitter=1.0)
        anchor = placer.projection(current).placement

        from repro.models.quadratic import build_system
        system = build_system(nl, current, "x", eps=placer._b2b_eps)
        uncapped = anchor_weights(
            current.x[system.cell_of_slot],
            anchor.x[system.cell_of_slot],
            1.0, placer._anchor_eps,
            placer._anchor_scale[system.cell_of_slot],
        )
        diag_before = system.matrix.diagonal().copy()
        placer._add_anchors(system, current, anchor, 1.0, "x")
        added = system.matrix.diagonal() - diag_before
        # some weights must be strictly below the uncapped ones
        assert (added < uncapped - 1e-12).any()
        assert (added <= uncapped + 1e-12).all()


class TestFastPlace:
    def test_runs_and_spreads(self, small_design):
        result = fastplace_place(small_design.netlist, max_iterations=60)
        assert result.iterations >= 2
        last = result.history.records[-1]
        first = result.history.records[0]
        assert last.overflow_percent < first.overflow_percent

    def test_validation(self, small_design):
        with pytest.raises(ValueError):
            FastPlacePlacer(small_design.netlist, gamma=0.0)
        with pytest.raises(ValueError):
            FastPlacePlacer(small_design.netlist, damping=1.5)

    def test_shift_conserves_and_spreads(self, small_design):
        nl = small_design.netlist
        placer = FastPlacePlacer(nl)
        clump = nl.initial_placement(jitter=1.0)
        shifted = placer._shift(clump)
        bounds = nl.core.bounds
        movable = nl.movable
        assert (shifted.x[movable] >= bounds.xlo - 1e-9).all()
        assert (shifted.x[movable] <= bounds.xhi + 1e-9).all()
        usage_before = placer.grid.usage(clump)
        usage_after = placer.grid.usage(shifted)
        assert placer.grid.total_overflow(usage_after, 1.0) < \
            placer.grid.total_overflow(usage_before, 1.0)

    def test_weight_ramp_linear(self, small_design):
        result = fastplace_place(small_design.netlist, max_iterations=10,
                                 stop_overflow_percent=0.0)
        lam = result.metrics.series("lam").as_array()
        increments = np.diff(lam)
        assert np.allclose(increments, increments[0], rtol=1e-6)


class TestNonlinear:
    def test_runs_and_spreads(self, small_design):
        result = nonlinear_place(small_design.netlist, max_outer=12,
                                 inner_iterations=25)
        first = result.history.records[0]
        last = result.history.records[-1]
        assert last.overflow_percent < first.overflow_percent

    def test_density_gradient_finite_difference(self, small_design):
        nl = small_design.netlist
        grid = DensityGrid(nl, 5, 5)
        density = SmoothDensity(nl, grid, gamma=1.0)
        rng = np.random.default_rng(3)
        n = density.movable.shape[0]
        x = rng.uniform(10, 30, n)
        y = rng.uniform(10, 30, n)
        value, gx, gy = density.value_and_grad(x, y)
        assert value > 0  # random placement overflows somewhere
        h = 1e-5
        for i in rng.choice(n, size=6, replace=False):
            xp = x.copy()
            xp[i] += h
            vp, _, _ = density.value_and_grad(xp, y)
            xm = x.copy()
            xm[i] -= h
            vm, _, _ = density.value_and_grad(xm, y)
            assert gx[i] == pytest.approx((vp - vm) / (2 * h),
                                          rel=1e-2, abs=1e-2)

    def test_mu_anneals_upward(self, small_design):
        result = nonlinear_place(small_design.netlist, max_outer=6,
                                 inner_iterations=10,
                                 stop_overflow_percent=0.0)
        mu = result.metrics.series("lam").as_array()
        assert np.all(np.diff(mu) > 0)


class TestRelativeBehaviour:
    def test_complx_competitive(self, small_design, placed_small):
        """ComPLx's feasible HPWL should be at least as good as the
        fixed-schedule SimPL variant's (the paper's ~1% claim, with
        generous slack for a tiny design)."""
        nl = small_design.netlist
        simpl = simpl_place(nl)
        ours = hpwl(nl, placed_small.upper)
        theirs = hpwl(nl, simpl.upper)
        assert ours < 1.15 * theirs
