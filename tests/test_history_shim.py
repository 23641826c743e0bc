"""RunHistory is a compatibility shim over the telemetry registry: what
is left of it must stay silent, its registry view must be derived from
the record list, and that list must stay authoritative through
supervisor rollbacks."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import faults
from repro.core import ComPLxPlacer
from repro.core.config import resilient_config
from repro.core.history import SERIES_FIELDS, IterationRecord, RunHistory


def make_history(n=6):
    history = RunHistory(stop_reason="gap_closed")
    for i in range(n):
        history.append(IterationRecord(
            iteration=i, lam=1.5 ** i, phi_lower=90.0 + i,
            phi_upper=120.0 - i, pi=10.0 / (i + 1),
            lagrangian=100.0, overflow_percent=5.0 - 0.5 * i,
            grid_bins=8, cg_iterations=12, runtime_seconds=0.01,
        ))
    return history


class TestDeprecatedAccessors:
    def test_supported_surface_stays_silent(self):
        history = make_history()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            registry = history.to_metrics()
            assert len(history) == 6
            assert history[0].iteration == 0
            assert history.final_lambda == pytest.approx(1.5 ** 5)
            assert "gap_closed" in history.summary()
        assert registry.meta["stop_reason"] == "gap_closed"
        assert registry.series("duality_gap").last == \
            pytest.approx(120.0 - 5 - 95.0)


class TestRegistryView:
    def test_every_record_field_becomes_a_series(self):
        registry = make_history().to_metrics()
        for name in SERIES_FIELDS:
            assert registry.has_series(name)
            assert len(registry.series(name)) == 6

    def test_view_is_derived_not_cached(self):
        history = make_history(6)
        before = len(history.to_metrics().series("lam"))
        del history.records[3:]
        after = len(history.to_metrics().series("lam"))
        assert (before, after) == (6, 3)


class TestRollbackSafety:
    def test_records_stay_clean_through_a_rollback(self, small_design):
        with faults.injected("primal.nan@5"):
            result = ComPLxPlacer(
                small_design.netlist, resilient_config(seed=1)
            ).place()
        assert result.extras["resilience"]["events"]
        history = result.history
        # One record per surviving iteration, contiguous, and none of
        # them carrying the rolled-back NaN attempt.
        first = history.records[0].iteration
        assert [r.iteration for r in history.records] == \
            list(range(first, first + len(history)))
        for record in history.records:
            assert np.isfinite(record.phi_lower)
            assert np.isfinite(record.pi)
        # The derived registry (result.metrics) sees the spliced list.
        assert len(result.metrics.series("lam")) == len(history)
