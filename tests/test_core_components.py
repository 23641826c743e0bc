"""Tests for the core components: lambda schedule, anchors, convergence
monitoring, history records and config validation."""

import numpy as np
import pytest

from repro import ComPLxConfig, Placement
from repro.core import (
    LambdaSchedule,
    RunHistory,
    SelfConsistencyMonitor,
    StoppingRule,
    anchor_penalty_value,
    anchor_weights,
    duality_gap,
    l1_distance,
    lagrangian_value,
    macro_lambda_scale,
    relative_gap,
    simpl_config,
)
from repro.core.history import IterationRecord


class TestLambdaSchedule:
    def test_initialization_formula(self):
        """lambda_1 = Phi / (100 Pi)  (Section 4)."""
        schedule = LambdaSchedule(init_ratio=100.0)
        lam = schedule.initialize(phi=5000.0, pi=50.0)
        assert lam == pytest.approx(1.0)
        assert schedule.initialized

    def test_update_before_initialize_raises(self):
        schedule = LambdaSchedule()
        with pytest.raises(RuntimeError):
            schedule.update(1.0, 1.0)

    def test_formula12_cap(self):
        """lambda grows at most 2x per iteration."""
        schedule = LambdaSchedule(growth_cap=2.0, h_factor=1000.0)
        schedule.initialize(phi=100.0, pi=1.0)
        lam0 = schedule.value
        lam1 = schedule.update(pi_prev=1.0, pi_new=1.0)
        assert lam1 == pytest.approx(2.0 * lam0)

    def test_formula12_pi_proportional(self):
        """Once past doubling, the increment scales with Pi ratio."""
        schedule = LambdaSchedule(growth_cap=2.0, h_factor=0.1)
        schedule.initialize(phi=100.0, pi=1.0)
        lam0 = schedule.value
        h = schedule.h
        lam1 = schedule.update(pi_prev=1.0, pi_new=0.5)
        assert lam1 == pytest.approx(min(2 * lam0, lam0 + 0.5 * h))

    def test_simpl_mode_fixed_increment(self):
        schedule = LambdaSchedule(mode="simpl", h_factor=2.0)
        schedule.initialize(phi=100.0, pi=1.0)
        h = schedule.h
        lam1 = schedule.update(1.0, 0.0001)  # ratio ignored
        lam2 = schedule.update(1.0, 123.0)
        assert lam1 == pytest.approx(schedule.value - h)
        assert lam2 - lam1 == pytest.approx(h)

    def test_double_mode(self):
        schedule = LambdaSchedule(mode="double", growth_cap=2.0)
        schedule.initialize(phi=100.0, pi=1.0)
        lam0 = schedule.value
        assert schedule.update(1.0, 1.0) == pytest.approx(2 * lam0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            LambdaSchedule(mode="warp")

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LambdaSchedule().initialize(phi=-1.0, pi=1.0)

    def test_monotone_nondecreasing(self):
        schedule = LambdaSchedule()
        schedule.initialize(100.0, 10.0)
        prev = schedule.value
        for pi in (9.0, 8.0, 7.5, 7.4, 2.0, 1.9):
            lam = schedule.update(pi + 1, pi)
            assert lam >= prev
            prev = lam


class TestLagrangianHelpers:
    def test_lagrangian_value(self):
        assert lagrangian_value(10.0, 0.5, 4.0) == pytest.approx(12.0)

    def test_gaps(self):
        assert duality_gap(90.0, 100.0) == pytest.approx(10.0)
        assert relative_gap(90.0, 100.0) == pytest.approx(0.1)
        assert relative_gap(110.0, 100.0) == 0.0  # clamped at zero
        assert relative_gap(1.0, 0.0) == 0.0

    def test_macro_lambda_scale(self, mixed_netlist):
        scale = macro_lambda_scale(mixed_netlist)
        big = mixed_netlist.cell_index("bigm")
        std = mixed_netlist.cell_index("c0")
        assert scale[std] == 1.0
        # 64 area macro vs 2.0 avg std area
        assert scale[big] == pytest.approx(32.0)

    def test_macro_scale_without_macros(self, tiny_netlist):
        assert np.allclose(macro_lambda_scale(tiny_netlist), 1.0)


class TestAnchors:
    def test_weight_formula(self):
        """w = lambda / (|d| + eps)  (paper Section 5)."""
        w = anchor_weights(np.array([10.0]), np.array([4.0]),
                           lam=2.0, eps=1.5)
        assert w[0] == pytest.approx(2.0 / 7.5)

    def test_scale_multiplies(self):
        w = anchor_weights(np.array([1.0]), np.array([0.0]),
                           lam=1.0, eps=1.0, scale=np.array([5.0]))
        assert w[0] == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            anchor_weights(np.zeros(1), np.zeros(1), lam=1.0, eps=0.0)
        with pytest.raises(ValueError):
            anchor_weights(np.zeros(1), np.zeros(1), lam=-1.0, eps=1.0)

    def test_penalty_value(self):
        current = Placement(np.array([0.0, 3.0]), np.array([0.0, 4.0]))
        anchor = Placement(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        movable = np.array([True, True])
        # L1 distances: 1 and 4 -> lam * 5
        assert anchor_penalty_value(current, anchor, 2.0, movable) == \
            pytest.approx(10.0)
        # criticality-weighted (Formula 13)
        assert anchor_penalty_value(
            current, anchor, 2.0, movable, scale=np.array([3.0, 1.0])
        ) == pytest.approx(2.0 * (3.0 * 1 + 4))


class TestStoppingRule:
    def test_gap_stop(self):
        rule = StoppingRule(gap_tol=0.1, max_iterations=100)
        stop, reason = rule.should_stop(1, 95.0, 100.0, 50.0)
        assert stop and reason == "duality_gap"

    def test_pi_stop(self):
        rule = StoppingRule(gap_tol=0.0, pi_tol_fraction=0.1)
        rule.note_initial_pi(100.0)
        stop, reason = rule.should_stop(1, 10.0, 100.0, 5.0)
        assert stop and reason == "pi_feasible"

    def test_budget_stop(self):
        rule = StoppingRule(gap_tol=0.0, max_iterations=3)
        assert rule.should_stop(3, 0.0, 100.0, 99.0) == (True, "max_iterations")

    def test_plateau_stop(self):
        rule = StoppingRule(gap_tol=0.0, pi_tol_fraction=0.0,
                            max_iterations=1000, plateau_window=3)
        stopped = None
        for k in range(1, 20):
            stop, reason = rule.should_stop(k, 0.0, 100.0, 99.0)
            if stop:
                stopped = (k, reason)
                break
        assert stopped is not None
        assert stopped[1] == "plateau"
        assert stopped[0] >= 6  # needs two full windows

    def test_no_premature_stop(self):
        rule = StoppingRule(gap_tol=0.05, pi_tol_fraction=0.01,
                            max_iterations=100)
        rule.note_initial_pi(100.0)
        stop, _ = rule.should_stop(1, 50.0, 100.0, 80.0)
        assert not stop


class TestSelfConsistencyMonitor:
    def _p(self, x):
        return Placement(np.array([float(x)]), np.array([0.0]))

    def test_consistent_sequence(self):
        monitor = SelfConsistencyMonitor()
        movable = np.array([True])
        # iterates move monotonically toward stable projections
        monitor.observe(1, self._p(10.0), self._p(0.0), movable)
        monitor.observe(2, self._p(5.0), self._p(0.0), movable)
        assert monitor.consistent == 1
        assert monitor.inconsistent == 0

    def test_premise_failure_counted(self):
        monitor = SelfConsistencyMonitor()
        movable = np.array([True])
        monitor.observe(1, self._p(10.0), self._p(0.0), movable)
        # new iterate moved AWAY from the old anchor
        monitor.observe(2, self._p(20.0), self._p(0.0), movable)
        assert monitor.premise_failed == 1

    def test_inconsistent_counted(self):
        monitor = SelfConsistencyMonitor()
        movable = np.array([True])
        monitor.observe(1, self._p(10.0), self._p(0.0), movable)
        # closer to old anchor (5 < 10) but the new projection is at 20:
        # old iterate (10) is closer to it than the new iterate (5).
        monitor.observe(2, self._p(5.0), self._p(20.0), movable)
        assert monitor.inconsistent == 1
        assert monitor.inconsistent_iterations == [2]

    def test_rates_sum_to_one(self):
        monitor = SelfConsistencyMonitor()
        movable = np.array([True])
        for k, (it, pr) in enumerate([(10, 0), (5, 0), (6, 0), (3, 2)]):
            monitor.observe(k, self._p(it), self._p(pr), movable)
        rates = monitor.rates()
        assert sum(rates.values()) == pytest.approx(1.0)

    def test_l1_distance_masks_fixed(self):
        a = Placement(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        b = Placement(np.array([1.0, 9.0]), np.array([1.0, 9.0]))
        movable = np.array([True, False])
        assert l1_distance(a, b, movable) == pytest.approx(2.0)


class TestHistoryAndConfig:
    def _record(self, k, lam=0.1):
        return IterationRecord(
            iteration=k, lam=lam, phi_lower=100.0 + k, phi_upper=200.0 - k,
            pi=50.0 - k, lagrangian=110.0, overflow_percent=1.0,
            grid_bins=8,
        )

    def test_history_series(self):
        h = RunHistory()
        for k in range(5):
            h.append(self._record(k))
        assert len(h) == 5
        assert h.to_metrics().series("lam").iterations == [0, 1, 2, 3, 4]
        assert h[2].pi == 48.0
        assert h.final_lambda == 0.1
        assert "5 iterations" in h.summary()

    def test_history_csv(self, tmp_path):
        h = RunHistory()
        h.append(self._record(1))
        path = str(tmp_path / "h.csv")
        h.to_metrics().write_csv(path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 2
        assert "phi_lower" in lines[0]

    def test_duality_gap_property(self):
        r = self._record(3)
        assert r.duality_gap == pytest.approx(r.phi_upper - r.phi_lower)

    def test_empty_history(self):
        h = RunHistory()
        assert h.summary() == "no iterations"
        assert h.final_lambda == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ComPLxConfig(net_model="telepathy")
        with pytest.raises(ValueError):
            ComPLxConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ComPLxConfig(lambda_growth_cap=1.0)
        with pytest.raises(ValueError):
            ComPLxConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ComPLxConfig(lambda_init_ratio=0.0)

    def test_config_overrides(self):
        config = ComPLxConfig()
        other = config.with_overrides(gamma=0.5, max_iterations=7)
        assert other.gamma == 0.5
        assert other.max_iterations == 7
        assert config.gamma == 1.0  # original untouched

    def test_simpl_config_is_special_case(self):
        config = simpl_config()
        assert config.lambda_mode == "simpl"
        assert not config.per_macro_lambda
