"""Race controller integration: small real races over worker processes.

Sized for CI: micro netlists, 2-3 variants per race.  The full-size
acceptance scenario (wall-clock win, promotion) lives in the
``repro.race --smoke`` job.
"""

import numpy as np
import pytest

from repro.core import ComPLxConfig, ComPLxPlacer
from repro.race.arbiter import RaceArbiter
from repro.race.controller import RaceController
from repro.race.portfolio import VariantSpec, build_portfolio
from repro.race.tuner import AutoTuner
from repro.serve.worker import build_netlist

WORKLOAD = {"kind": "synthetic", "num_cells": 120, "seed": 3}

HONEST = {"max_iterations": 40, "gap_tolerance": 0.2}

# the λ-doubling ablation with every self-stop pinned shut: only the
# arbiter (or the iteration budget) can end it
LOSER = {
    "lambda_mode": "double",
    "max_iterations": 120,
    "gap_tolerance": None,
    "gap_tol": 1e-6,
    "pi_tol_fraction": 1e-9,
}

#: Stall and dominance parked so the only kill path is the doctor —
#: the deterministic one on this tiny workload.
DOCTOR_ONLY = dict(gap_factor=1e9, dominance_margin=1e9)


@pytest.fixture(scope="module")
def netlist():
    return build_netlist(WORKLOAD)


class TestRace:
    def test_kill_tune_and_bit_identical_winner(self, netlist):
        portfolio = build_portfolio(
            variants={"loser": LOSER}, base_overrides=HONEST)
        controller = RaceController(
            portfolio,
            netlist=netlist,
            workload=WORKLOAD,
            arbiter=RaceArbiter(**DOCTOR_ONLY),
            tuner=AutoTuner(budget=1),
            checkpoint_every=1,
            max_workers=4,
        )
        result = controller.execute()

        loser = result.outcomes["loser"]
        assert loser.status == "killed"
        assert loser.kill is not None
        assert loser.kill.rule == "doctor:lambda-cap-saturation"
        assert loser.iterations < LOSER["max_iterations"]
        assert loser.stop_reason == \
            f"killed:{loser.kill.rule}"

        assert result.tuned == ["loser-t1"]
        tuned = result.outcomes["loser-t1"]
        assert tuned.spec.parent == "loser"
        assert tuned.spec.overrides["lambda_mode"] == "complx"
        assert tuned.status in ("finished", "killed")

        assert result.winner is not None
        winner = result.winner_outcome
        assert winner is not None and winner.status == "finished"
        assert winner.placement is not None

        # the raced winner is bit-identical to the same config run
        # standalone: shared-plan adoption and streaming change nothing
        config = winner.spec.config(ComPLxConfig())
        rerun = ComPLxPlacer(netlist, config).place()
        assert np.array_equal(
            np.asarray(winner.placement["x"], dtype=np.float64),
            rerun.upper.x)
        assert np.array_equal(
            np.asarray(winner.placement["y"], dtype=np.float64),
            rerun.upper.y)
        assert winner.stop_reason == rerun.history.stop_reason

    @pytest.mark.chaos
    def test_crash_is_retried_once_and_recovers(self, netlist):
        portfolio = [VariantSpec("base", overrides=dict(HONEST))]
        controller = RaceController(
            portfolio,
            netlist=netlist,
            workload=WORKLOAD,
            arbiter=RaceArbiter(**DOCTOR_ONLY),
            inject={"base": {"mode": "crash", "at": 3}},
        )
        result = controller.execute()
        outcome = result.outcomes["base"]
        assert outcome.status == "finished"
        assert outcome.retried is True
        assert result.winner == "base"

    @pytest.mark.chaos
    def test_second_crash_is_terminal(self, netlist):
        portfolio = [VariantSpec("base", overrides=dict(HONEST))]
        controller = RaceController(
            portfolio,
            netlist=netlist,
            workload=WORKLOAD,
            arbiter=RaceArbiter(**DOCTOR_ONLY),
            inject={"base": {"mode": "crash", "at": 3, "persist": True}},
        )
        result = controller.execute()
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
