"""Race controller: the winner rule, and small real races over worker
processes.

Sized for CI: micro netlists, 1-3 variants per race.  The full-size
acceptance scenario (wall-clock win, promotion) lives in the
``repro.race --smoke`` job.
"""

import numpy as np
import pytest

from repro.core import ComPLxConfig, ComPLxPlacer
from repro.race.controller import (RaceController, VariantView,
                                   pick_winner)
from repro.race.portfolio import VariantSpec, build_portfolio
from repro.race.worker import TRACKED_SERIES
from repro.serve.worker import build_netlist

WORKLOAD = {"kind": "synthetic", "num_cells": 120, "seed": 3}

HONEST = {"max_iterations": 40, "gap_tolerance": 0.2}


def finished_view(vid, phi_upper):
    """A finished view whose feasible cost falls to ``phi_upper``."""
    costs = [phi_upper * 1.5, phi_upper * 1.2, phi_upper]
    series = {name: [1.0] * len(costs) for name in TRACKED_SERIES}
    series["phi_upper"] = costs
    view = VariantView(variant_id=vid)
    view.record_finish("gap_closed", [1, 2, 3], series)
    return view


class TestVariantView:
    def test_finish_folds_tail_and_final_cost(self):
        view = finished_view("v", 900.0)
        assert view.finished and view.stop_reason == "gap_closed"
        assert view.iterations == [1, 2, 3]
        assert view.series["phi_upper"] == [1350.0, 1080.0, 900.0]
        assert view.final_phi_upper == 900.0

    def test_non_monotonic_stream_rejected(self):
        view = VariantView(variant_id="v")
        series = {name: [0.0, 0.0] for name in TRACKED_SERIES}
        with pytest.raises(ValueError, match="non-monotonic"):
            view.record_finish("plateau", [2, 1], series)

    def test_series_length_mismatch_rejected(self):
        view = VariantView(variant_id="v")
        bad = {name: [1.0] for name in TRACKED_SERIES}
        bad["pi"] = []
        with pytest.raises(ValueError, match="pi"):
            view.record_finish("plateau", [1], bad)


class TestPickWinner:
    def test_lowest_final_cost_wins(self):
        views = {"a": finished_view("a", 1000.0),
                 "b": finished_view("b", 900.0),
                 "mid": VariantView(variant_id="mid")}
        assert pick_winner(views) == "b"

    def test_tie_breaks_lexicographically(self):
        views = {"z": finished_view("z", 1000.0),
                 "a": finished_view("a", 1000.0)}
        assert pick_winner(views) == "a"

    def test_no_finisher_no_winner(self):
        assert pick_winner({"v": VariantView(variant_id="v")}) is None


@pytest.fixture(scope="module")
def netlist():
    return build_netlist(WORKLOAD)


def race(netlist, portfolio, **kwargs):
    return RaceController(portfolio, netlist=netlist, workload=WORKLOAD,
                          **kwargs).execute()


class TestRace:
    def test_every_variant_finishes_and_the_race_repeats(self, netlist):
        portfolio = build_portfolio(seeds=(5,), efforts=(3,),
                                    base_overrides=HONEST)
        assert len(portfolio) == 3
        result = race(netlist, portfolio, max_workers=2)

        assert sorted(result.outcomes) == sorted(
            spec.variant_id for spec in portfolio)
        assert all(out.status == "finished"
                   for out in result.outcomes.values())
        assert result.decisions == []
        assert result.rounds == max(
            out.iterations for out in result.outcomes.values())
        for vid, out in result.outcomes.items():
            assert len(result.views[vid].iterations) == out.iterations
        # the winner has the lowest HPWL, ties broken by variant id
        assert result.winner == min(
            (out.hpwl_upper, vid) for vid, out in result.outcomes.items())[1]

        # the raced winner is bit-identical to the same config run
        # standalone: shared-plan adoption and the worker change nothing
        winner = result.winner_outcome
        assert winner is not None and winner.placement is not None
        config = winner.spec.config(ComPLxConfig())
        rerun = ComPLxPlacer(netlist, config).place()
        assert np.array_equal(
            np.asarray(winner.placement["x"], dtype=np.float64),
            rerun.upper.x)
        assert np.array_equal(
            np.asarray(winner.placement["y"], dtype=np.float64),
            rerun.upper.y)
        assert winner.stop_reason == rerun.history.stop_reason

        # each variant is a function of config, netlist and seed, so a
        # second race of the same portfolio repeats the first
        again = race(netlist, portfolio, max_workers=2)

        def summary(res):
            return {vid: (out.status, out.iterations, out.hpwl_upper)
                    for vid, out in res.outcomes.items()}

        assert summary(again) == summary(result)
        assert again.winner == result.winner

    @pytest.mark.chaos
    def test_crash_is_retried_once_and_recovers(self, netlist):
        portfolio = [VariantSpec("base", overrides=dict(HONEST))]
        result = race(netlist, portfolio,
                      inject={"base": {"mode": "crash", "at": 3}})
        outcome = result.outcomes["base"]
        assert outcome.status == "finished"
        assert outcome.retried is True
        assert result.winner == "base"

    @pytest.mark.chaos
    def test_second_crash_is_terminal(self, netlist):
        portfolio = [VariantSpec("base", overrides=dict(HONEST))]
        result = race(netlist, portfolio,
                      inject={"base": {"mode": "crash", "at": 3,
                                       "persist": True}})
        outcome = result.outcomes["base"]
        assert outcome.status == "crashed"
        assert outcome.retried is True
        assert result.winner is None

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ValueError):
            RaceController([], workload=WORKLOAD)

    def test_needs_netlist_or_workload(self):
        with pytest.raises(ValueError):
            RaceController([VariantSpec("base")])
