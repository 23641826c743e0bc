"""Race arbiter: deterministic kills, replay from recorded series.

The load-bearing property under test: kill decisions are a pure
function of the observed per-iteration series, so replaying recorded
streams — in any evaluation interleaving, from JSON snapshots, with the
views dict in any order — reproduces the exact same decisions and the
same winner.
"""

import pytest

from repro.race.arbiter import (
    TRACKED_SERIES,
    KillDecision,
    RaceArbiter,
    VariantView,
    pick_winner,
    round_settled,
)

# ----------------------------------------------------------------------
# synthetic trajectories
# ----------------------------------------------------------------------


def healthy_series(n, base_cost=1000.0):
    """λ rides the cap for 4 iterations then hands over (mode complx);
    Π decays; the feasible cost improves ~3% per iteration."""
    lam, v = [], 1.0
    for i in range(n):
        lam.append(v)
        v *= 2.0 if i < 4 else 1.1
    pi = [100.0 * 0.85 ** i for i in range(n)]
    phi_up = [base_cost * 0.97 ** i for i in range(n)]
    denom = max(n - 1, 1)
    phi_lo = [phi_up[i] * (0.5 + 0.4 * i / denom) for i in range(n)]
    over = [50.0 * 0.9 ** i for i in range(n)]
    return {"lam": lam, "pi": pi, "phi_lower": phi_lo,
            "phi_upper": phi_up, "overflow_percent": over}


def capped_series(n, base_cost=1100.0):
    """The λ-doubling pathology: every update pinned at the 2.0 cap."""
    lam = [2.0 ** i for i in range(n)]
    pi = [100.0 * 0.99 ** i for i in range(n)]
    phi_up = [base_cost * 0.97 ** i for i in range(n)]
    phi_lo = [u * 0.5 for u in phi_up]
    over = [50.0] * n
    return {"lam": lam, "pi": pi, "phi_lower": phi_lo,
            "phi_upper": phi_up, "overflow_percent": over}


def stream_view(vid, series, *, finish=None, **view_kwargs):
    """A view fed one checkpoint per iteration from a full series."""
    view = VariantView(variant_id=vid, **view_kwargs)
    n = len(series["lam"])
    for i in range(n):
        view.record_checkpoint([i], {k: [series[k][i]]
                                     for k in TRACKED_SERIES})
    if finish is not None:
        view.record_finish(finish)
    return view


def slice_series(series, n):
    return {k: v[:n] for k, v in series.items()}


# ----------------------------------------------------------------------
# VariantView mechanics
# ----------------------------------------------------------------------


class TestVariantView:
    def test_checkpoint_marks_slice_prefixes(self):
        view = stream_view("v", healthy_series(6))
        assert view.checkpoints == 6
        assert view.prefix_length(3) == 3
        assert view.prefix_iteration(3) == 2
        assert view.prefix_series("lam", 2) == [1.0, 2.0]

    def test_non_monotonic_stream_rejected(self):
        view = stream_view("v", healthy_series(3))
        with pytest.raises(ValueError, match="non-monotonic"):
            view.record_checkpoint([1], {k: [0.0] for k in TRACKED_SERIES})

    def test_series_length_mismatch_rejected(self):
        view = VariantView(variant_id="v")
        bad = {k: [1.0] for k in TRACKED_SERIES}
        bad["pi"] = []
        with pytest.raises(ValueError, match="pi"):
            view.record_checkpoint([0], bad)

    def test_finish_folds_tail_and_final_cost(self):
        view = stream_view("v", healthy_series(4))
        view.record_finish("gap_closed", [4],
                           {k: [1.0] for k in TRACKED_SERIES})
        assert view.finished and view.stop_reason == "gap_closed"
        assert view.final_phi_upper == 1.0
        # the tail is data but not a checkpoint
        assert view.checkpoints == 4
        assert len(view.iterations) == 5

    def test_reset_forgets_everything(self):
        view = stream_view("v", healthy_series(4), finish="plateau")
        view.reset()
        assert view.checkpoints == 0 and not view.finished
        assert view.best_phi_upper_upto(3) == float("inf")

    def test_best_phi_upper_upto_clamps_to_own_horizon(self):
        series = healthy_series(5)
        view = stream_view("v", series, finish="gap_closed")
        full_best = min(series["phi_upper"])
        # beyond its 5 checkpoints the horizon clamps, never extends
        assert view.best_phi_upper_upto(50) == full_best
        assert view.best_phi_upper_upto(2) == min(series["phi_upper"][:2])
        assert view.best_phi_upper_upto(0) == float("inf")

    def test_snapshot_round_trip(self):
        view = stream_view("v", healthy_series(7), finish="gap_closed",
                           gap_tol=0.05, gap_tolerance=0.2,
                           lambda_growth_cap=1.8)
        clone = VariantView.from_snapshot(view.to_snapshot())
        assert clone.to_snapshot() == view.to_snapshot()
        assert clone.final_phi_upper == view.final_phi_upper
        assert clone.gap_target == view.gap_target == 0.2


# ----------------------------------------------------------------------
# kill rules, one at a time
# ----------------------------------------------------------------------


def make_race(loser_series, n_loser, *, healthy_n=20, **loser_kwargs):
    views = {
        "h1": stream_view("h1", healthy_series(healthy_n),
                          finish="gap_closed"),
        "loser": stream_view("loser", slice_series(loser_series, n_loser),
                             **loser_kwargs),
    }
    return views


class TestKillRules:
    def test_grace_period_blocks_early_kills(self):
        views = make_race(capped_series(14), 14)
        arbiter = RaceArbiter(doctor_min_points=1)
        assert arbiter.decide(2, views) == []

    def test_doctor_min_points_gates_the_verdict(self):
        views = make_race(capped_series(14), 14)
        arbiter = RaceArbiter()  # doctor_min_points=12
        # round 11 reads an 11-record prefix: below the gate
        assert arbiter.decide(11, views) == []
        kills = arbiter.decide(12, views)
        assert [k.variant_id for k in kills] == ["loser"]
        assert kills[0].rule == "doctor:lambda-cap-saturation"
        assert kills[0].round == 12
        assert kills[0].iteration == 11

    def test_healthy_prefix_never_doctor_killed(self):
        views = {"h1": stream_view("h1", healthy_series(20)),
                 "h2": stream_view("h2", healthy_series(20, 990.0))}
        arbiter = RaceArbiter()
        for round_no in range(3, 19):
            assert arbiter.decide(round_no, views) == []

    def test_stalled_gap(self):
        flat = healthy_series(10)
        flat["phi_upper"] = [1000.0] * 10   # no improvement at all
        flat["phi_lower"] = [500.0] * 10    # gap 0.5 >> 2 * 0.08
        views = {"h1": stream_view("h1", healthy_series(10),
                                   finish="gap_closed"),
                 "stuck": stream_view("stuck", flat)}
        kills = RaceArbiter().decide(5, views)
        assert [(k.variant_id, k.rule) for k in kills] == \
            [("stuck", "stalled-gap")]

    def test_dominated(self):
        trailing = healthy_series(10, base_cost=5000.0)
        # closed gap so stalled-gap stays quiet; cost trails 5x
        trailing["phi_lower"] = [u * 0.95 for u in trailing["phi_upper"]]
        views = {"h1": stream_view("h1", healthy_series(10),
                                   finish="gap_closed"),
                 "slow": stream_view("slow", trailing)}
        kills = RaceArbiter().decide(5, views)
        assert [(k.variant_id, k.rule) for k in kills] == \
            [("slow", "dominated")]

    def test_min_survivors_never_violated(self):
        # the pathological variant is the only one left: immune
        views = {"loser": stream_view("loser", capped_series(14))}
        assert RaceArbiter().decide(12, views) == []

    def test_finished_variants_are_immune(self):
        # a finished view whose last checkpoint IS the round: nothing
        # left to kill, even if its prefix looks pathological
        views = {"h1": stream_view("h1", healthy_series(20)),
                 "done": stream_view("done", capped_series(13),
                                     finish="max_iterations")}
        assert RaceArbiter().decide(13, views) == []

    def test_leader_read_at_the_same_horizon(self):
        # h1 finished long ago with a converged tail; the trailing view
        # must be compared against h1's cost at the round's horizon,
        # not its (much better) final cost.
        h1 = stream_view("h1", healthy_series(30), finish="gap_closed")
        slow = healthy_series(8, base_cost=1300.0)
        slow["phi_lower"] = [u * 0.95 for u in slow["phi_upper"]]
        views = {"h1": h1, "slow": stream_view("slow", slow)}
        # at round 4 the leader's best is 1000*0.97^3 ~ 913; slow's best
        # ~1226 trails by 1.34x < 1.5 -> no dominance kill.  Judged
        # against h1's final (~414) it would have been killed.
        assert RaceArbiter().decide(4, views) == []


class TestPickWinner:
    def test_lowest_final_cost_wins(self):
        views = {"a": stream_view("a", healthy_series(10),
                                  finish="gap_closed"),
                 "b": stream_view("b", healthy_series(10, 900.0),
                                  finish="gap_closed"),
                 "mid": stream_view("mid", healthy_series(12))}
        assert pick_winner(views) == "b"

    def test_tie_breaks_lexicographically(self):
        views = {"z": stream_view("z", healthy_series(10),
                                  finish="gap_closed"),
                 "a": stream_view("a", healthy_series(10),
                                  finish="gap_closed")}
        assert pick_winner(views) == "a"

    def test_no_finisher_no_winner(self):
        assert pick_winner({"v": stream_view("v", healthy_series(5))}) \
            is None


# ----------------------------------------------------------------------
# the replay guarantee
# ----------------------------------------------------------------------


def run_race(arbiter, recordings, step_order, steps_per_poll=1):
    """A controller-faithful simulation over recorded trajectories.

    ``recordings`` maps vid -> (series dict, finish reason or None);
    ``step_order`` fixes the per-poll streaming order, modelling worker
    scheduling, and ``steps_per_poll`` how many records each variant
    delivers between two judgements (a large value delivers whole
    recordings at once).  Rounds are judged by the controller's own
    rule, :func:`round_settled`.  Returns (decisions, winner, final
    views).
    """
    views = {vid: VariantView(variant_id=vid)
             for vid in recordings}
    pos = {vid: 0 for vid in recordings}
    killed = set()
    decisions = []
    round_no = 0

    def in_race():
        return {vid: v for vid, v in views.items() if vid not in killed}

    for _ in range(10_000):
        live = in_race()
        if all(v.finished for v in live.values()):
            break
        for vid in step_order:
            view, (series, finish) = views[vid], recordings[vid]
            if vid in killed or view.finished:
                continue
            stop = min(pos[vid] + steps_per_poll, len(series["lam"]))
            for i in range(pos[vid], stop):
                view.record_checkpoint([i], {k: [series[k][i]]
                                             for k in TRACKED_SERIES})
            pos[vid] = stop
            if stop == len(series["lam"]) and finish is not None:
                view.record_finish(finish)
        while round_settled(round_no + 1, in_race()):
            round_no += 1
            for decision in arbiter.decide(round_no, in_race()):
                killed.add(decision.variant_id)
                decisions.append(decision)
    else:
        pytest.fail("race simulation did not terminate")
    return decisions, pick_winner(in_race()), views


class TestReplayDeterminism:
    RECORDINGS = {
        "h1": (healthy_series(20), "gap_closed"),
        "h2": (healthy_series(22, 980.0), "gap_closed"),
        # the loser never finishes on its own; its recording simply
        # extends past the kill horizon, as a live stream would
        "loser": (capped_series(16), None),
    }

    def test_kill_happens_and_is_attributed(self):
        decisions, winner, _ = run_race(
            RaceArbiter(), self.RECORDINGS, ["h1", "loser", "h2"])
        assert [(d.variant_id, d.rule, d.round) for d in decisions] == \
            [("loser", "doctor:lambda-cap-saturation", 12)]
        assert winner == "h2"

    def test_streaming_order_does_not_change_decisions(self):
        orders = (["h1", "loser", "h2"], ["loser", "h2", "h1"],
                  ["h2", "h1", "loser"])
        results = [run_race(RaceArbiter(), self.RECORDINGS, list(order))
                   for order in orders]
        baseline = [(d.to_json(), ) for d in results[0][0]]
        for decisions, winner, _ in results[1:]:
            assert [(d.to_json(), ) for d in decisions] == baseline
            assert winner == results[0][1]

    def test_replay_from_json_snapshots(self):
        """Recorded views round-tripped through JSON replay to the
        exact same decisions and winner — the satellite guarantee."""
        decisions, winner, views = run_race(
            RaceArbiter(), self.RECORDINGS, ["h1", "loser", "h2"])

        snapshots = {vid: v.to_snapshot() for vid, v in views.items()}
        replayed = {
            vid: (
                {k: snapshots[vid]["series"][k] for k in TRACKED_SERIES},
                snapshots[vid]["stop_reason"] or None,
            )
            # reversed insertion order: dict order must not matter
            for vid in sorted(snapshots, reverse=True)
        }
        re_decisions, re_winner, _ = run_race(
            RaceArbiter(), replayed, sorted(replayed))
        assert [d.to_json() for d in re_decisions] == \
            [d.to_json() for d in decisions]
        assert re_winner == winner

    def test_delivery_granularity_does_not_change_decisions(self):
        """Every variant finishes, the loser too, and its results may
        arrive in the same poll as the rounds that judge it: the rounds
        are still judged, so one step per poll, five per poll and all
        at once give the same kills and winner."""
        recordings = dict(self.RECORDINGS)
        recordings["loser"] = (capped_series(16), "max_iterations")
        order = ["h1", "loser", "h2"]
        results = [run_race(RaceArbiter(), recordings, order,
                            steps_per_poll=steps)
                   for steps in (1, 5, 10_000)]
        decisions, winner, _ = results[0]
        assert [(d.variant_id, d.rule, d.round) for d in decisions] == \
            [("loser", "doctor:lambda-cap-saturation", 12)]
        for other_decisions, other_winner, _ in results[1:]:
            assert [d.to_json() for d in other_decisions] == \
                [d.to_json() for d in decisions]
            assert other_winner == winner

    def test_decisions_are_json_serializable(self):
        decision = KillDecision("v", "stalled-gap", 4, 7, "why")
        assert decision.to_json() == {
            "variant_id": "v", "rule": "stalled-gap", "round": 4,
            "iteration": 7, "reason": "why"}
