"""The race controller: run a portfolio concurrently, arbitrate, tune.

One single-threaded poll loop owns all state — each variant runs as an
:class:`~repro.serve.attempt.Attempt` under the crash contract of
:mod:`repro.serve.attempt`, and the worker pipes are drained with
:func:`multiprocessing.connection.wait`, so there are no threads and no
locks.  The loop enforces the *round barrier* the arbiter's replay
guarantee rests on (:func:`~repro.race.arbiter.round_settled`):
checkpoint round ``r`` is evaluated once every variant still in the
race has either streamed checkpoint ``r + 1`` or finished, whether or
not any worker still runs.  At that point the data alone proves whether
a variant was still mid-flight at checkpoint ``r``, so the arbiter's
verdicts are independent of scheduling, poll jitter, and how fast
results drain from the pipes.

Kill decisions are applied in the arbiter's deterministic order; a
variant that finished after the round that kills it is *still*
recorded as killed (its result is dropped), because the verdict — not
the message race — is the ground truth.  Crashed workers get exactly
one retry (their trajectory is deterministic, so the rerun re-streams
identical series); deterministic errors are terminal.

Wall-clock times appear in :class:`RaceResult` for reporting only —
they never feed a decision.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any

from ..core import ComPLxConfig
from ..models.assembly import PLANNABLE_MODELS, AssemblyPlan
from ..netlist import Netlist
from ..serve.attempt import CRASH_EXIT_CODE, Attempt
from ..serve.worker import build_netlist
from ..telemetry import TraceContext, TraceMerger
from .arbiter import (KillDecision, RaceArbiter, VariantView, pick_winner,
                      round_settled)
from .portfolio import VariantSpec
from .tuner import AutoTuner
from .worker import clear_shared, race_worker_entry, share_prebuilt

__all__ = ["RaceController", "RaceResult", "VariantOutcome"]

logger = logging.getLogger(__name__)

_POLL_SECONDS = 0.05


@dataclass
class VariantOutcome:
    """Terminal record of one variant's race."""

    spec: VariantSpec
    status: str                     # finished | killed | crashed | error
    kill: KillDecision | None = None
    iterations: int = 0
    stop_reason: str = ""
    hpwl_upper: float | None = None
    placement: dict[str, list[float]] | None = None
    metrics: dict[str, Any] | None = None
    error: str | None = None
    retried: bool = False
    wall_seconds: float = 0.0       # reporting only, never decisions

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "variant_id": self.spec.variant_id,
            "origin": self.spec.origin,
            "parent": self.spec.parent,
            "effort": self.spec.effort,
            "overrides": dict(self.spec.overrides),
            "status": self.status,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "hpwl_upper": self.hpwl_upper,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
        }
        if self.kill is not None:
            doc["kill"] = self.kill.to_json()
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass
class RaceResult:
    """What a race produced, in full."""

    winner: str | None
    outcomes: dict[str, VariantOutcome]
    views: dict[str, VariantView]
    decisions: list[KillDecision] = field(default_factory=list)
    tuned: list[str] = field(default_factory=list)
    rounds: int = 0
    wall_seconds: float = 0.0
    #: Merged Chrome-trace document (``trace=True`` races only); kept
    #: out of ``to_json`` — it is an artifact, not a summary.
    trace: dict[str, Any] | None = None

    @property
    def winner_outcome(self) -> VariantOutcome | None:
        return self.outcomes.get(self.winner) if self.winner else None

    def to_json(self) -> dict[str, Any]:
        return {
            "winner": self.winner,
            "rounds": self.rounds,
            "wall_seconds": self.wall_seconds,
            "tuned": list(self.tuned),
            "decisions": [d.to_json() for d in self.decisions],
            "outcomes": {vid: out.to_json()
                         for vid, out in sorted(self.outcomes.items())},
        }


class RaceController:
    """Execute a portfolio race over crash-isolated workers."""

    def __init__(
        self,
        portfolio: list[VariantSpec],
        *,
        netlist: Netlist | None = None,
        workload: dict[str, Any] | None = None,
        aux_root: str | None = None,
        base_config: ComPLxConfig | None = None,
        base_overrides: dict[str, Any] | None = None,
        arbiter: RaceArbiter | None = None,
        tuner: AutoTuner | None = None,
        checkpoint_every: int = 1,
        max_workers: int | None = None,
        start_method: str | None = None,
        inject: dict[str, dict[str, Any]] | None = None,
        trace: bool = False,
    ) -> None:
        if not portfolio:
            raise ValueError("portfolio is empty")
        if netlist is None and workload is None:
            raise ValueError("need a netlist or a workload descriptor")
        self.portfolio = list(portfolio)
        self.netlist = netlist
        self.workload = dict(workload) if workload else None
        self.aux_root = aux_root
        self.base_overrides = dict(base_overrides or {})
        self.base_config = base_config if base_config is not None \
            else ComPLxConfig(**self.base_overrides)
        self.arbiter = arbiter if arbiter is not None else RaceArbiter()
        self.tuner = tuner if tuner is not None else AutoTuner()
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.max_workers = max_workers if max_workers is not None \
            else max((os.cpu_count() or 2) - 1, 2)
        self._ctx = mp.get_context(start_method) if start_method \
            else mp.get_context()
        # Chaos hook: variant_id -> serve-style ``_inject`` descriptor,
        # armed on the first spawn only (retries run clean) unless the
        # descriptor sets ``persist``.
        self.inject = dict(inject or {})

        self.trace = bool(trace)
        self.merger: TraceMerger | None = None
        #: Worker label -> stable Chrome-trace pid.  Allocation follows
        #: spawn order, which the round barrier makes deterministic.
        self._lanes: dict[str, int] = {}

        self.views: dict[str, VariantView] = {}
        self.outcomes: dict[str, VariantOutcome] = {}
        self.decisions: list[KillDecision] = []
        self.tuned: list[str] = []
        self._specs: dict[str, VariantSpec] = {}
        #: Variants whose first worker crashed; they get one rerun.
        self._retried: set[str] = set()

    # ------------------------------------------------------------------
    # Named ``execute`` (not ``run``) so statcheck's conservative
    # duck-typed call resolution cannot confuse it with unrelated
    # ``.run()`` protocol methods; the controller is single-threaded.
    def execute(self) -> RaceResult:
        started = time.monotonic()
        if self.netlist is None:
            self.netlist = build_netlist(self.workload or {}, self.aux_root)
        if self.trace:
            context = TraceContext(trace_id=f"race:{self.netlist.name}",
                                   parent_span="race")
            self.merger = TraceMerger(context, process_name="race")
        plan = self._prebuild_plan()
        share_prebuilt(self.netlist, plan)
        try:
            result = self._race_loop(started)
        finally:
            clear_shared()
        if self.merger is not None:
            result.trace = self.merger.chrome_trace()
        return result

    def _prebuild_plan(self) -> AssemblyPlan | None:
        """One shared plan when the base model can use it."""
        model = self.base_config.net_model
        if model not in PLANNABLE_MODELS:
            return None
        assert self.netlist is not None
        row_h = self.netlist.core.row_height
        eps = max(self.base_config.b2b_eps_rows * row_h, 1e-9)
        return AssemblyPlan(self.netlist, model=model, eps=eps)

    def _make_view(self, spec: VariantSpec) -> VariantView:
        config = spec.config(self.base_config)
        return VariantView(
            variant_id=spec.variant_id,
            gap_tol=config.gap_tol,
            gap_tolerance=config.gap_tolerance,
            lambda_growth_cap=config.lambda_growth_cap,
        )

    def _lane_for(self, label: str) -> int:
        lane = self._lanes.get(label)
        if lane is None:
            lane = self._lanes[label] = 2 + len(self._lanes)
        return lane

    def _spawn(self, spec: VariantSpec) -> Attempt:
        was_retry = spec.variant_id in self._retried
        payload = {
            "variant": {
                "variant_id": spec.variant_id,
                "overrides": dict(spec.overrides),
                "effort": spec.effort,
                "parent": spec.parent,
                "origin": spec.origin,
            },
            "base_overrides": dict(self.base_overrides),
            "workload": self.workload or {},
            "aux_root": self.aux_root,
            "checkpoint_every": self.checkpoint_every,
        }
        fault = self.inject.get(spec.variant_id)
        if fault is not None and (not was_retry or fault.get("persist")):
            payload["_inject"] = dict(fault)
        if self.merger is not None:
            # A retry gets its own labelled lane so the crashed run's
            # spans stay distinguishable from the rerun's.
            label = f"{spec.variant_id}#retry" if was_retry \
                else spec.variant_id
            payload["trace"] = self.merger.context.child(
                label, lane=self._lane_for(label)).to_wire()
        return Attempt(self._ctx, race_worker_entry, payload,
                       name=f"race-{spec.variant_id}")

    # ------------------------------------------------------------------
    def _race_loop(self, started: float) -> RaceResult:
        pending: list[VariantSpec] = list(self.portfolio)
        running: dict[str, Attempt] = {}
        killed: set[str] = set()
        round_no = 0

        for spec in pending:
            self.views[spec.variant_id] = self._make_view(spec)
            self._specs[spec.variant_id] = spec
            self.tuner.register(spec)

        try:
            while pending or running:
                while pending and len(running) < self.max_workers:
                    spec = pending.pop(0)
                    running[spec.variant_id] = self._spawn(spec)

                self._collect(running, pending)

                while round_settled(round_no + 1,
                                    self._in_race_views(killed)):
                    round_no += 1
                    for decision in self.arbiter.decide(
                            round_no, self._in_race_views(killed)):
                        self._apply_kill(decision, running, pending,
                                         killed)
                if not (pending or running):
                    break
                # A worker that already sent its last message is only
                # waited on for its exit, which the next pass reaps.
                connection_wait([attempt.conn
                                 for vid, attempt in running.items()
                                 if vid not in self.outcomes],
                                timeout=_POLL_SECONDS)
        finally:
            for attempt in running.values():
                attempt.reap()

        winner = pick_winner(self._in_race_views(killed))
        wall = time.monotonic() - started
        return RaceResult(
            winner=winner, outcomes=self.outcomes, views=self.views,
            decisions=list(self.decisions), tuned=list(self.tuned),
            rounds=round_no, wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    def _in_race_views(self, killed: set[str]) -> dict[str, VariantView]:
        """Views the arbiter/winner may look at: not killed, not dead."""
        out = {}
        for vid, view in self.views.items():
            if vid in killed:
                continue
            outcome = self.outcomes.get(vid)
            if outcome is not None and outcome.status in ("crashed",
                                                          "error"):
                continue
            out[vid] = view
        return out

    def _collect(self, running: dict[str, Attempt],
                 pending: list[VariantSpec]) -> None:
        """Pull every queued message off every worker pipe; reap the
        workers that exited, retrying a crash once."""
        for vid in sorted(running):
            attempt = running[vid]
            messages, exited = attempt.receive()
            for kind, body in messages:
                self._on_message(vid, attempt, kind, body)
            if not exited:
                continue
            del running[vid]
            attempt.reap()
            if vid in self.outcomes:
                continue
            # Exit with no terminal message on the pipe: a crash.
            code = attempt.exitcode
            self._trace_variant(vid, attempt, "crashed")
            if vid not in self._retried:
                self._retried.add(vid)
                self.views[vid].reset()
                logger.warning(
                    "race variant %s crashed (exit %s); retrying once",
                    vid, code)
                pending.insert(0, self._specs[vid])
                continue
            self.outcomes[vid] = VariantOutcome(
                spec=self._specs[vid], status="crashed", retried=True,
                error=f"worker exited with status {code} "
                      f"(crash code {CRASH_EXIT_CODE} means a kill)",
                wall_seconds=time.perf_counter() - attempt.started,
            )
            logger.error("race variant %s crashed twice (exit %s); "
                         "out of the race", vid, code)

    def _trace_variant(self, vid: str, attempt: Attempt,
                       outcome: str) -> None:
        """Close the parent-side span over one worker's lifetime."""
        if self.merger is not None:
            self.merger.add_span(
                f"variant {vid}", attempt.started, time.perf_counter(),
                outcome=outcome, retry=vid in self._retried)

    def _on_message(self, vid: str, attempt: Attempt, kind: str,
                    body: dict[str, Any]) -> None:
        view = self.views[vid]
        if kind == "checkpoint":
            view.record_checkpoint(body["iterations"], body["series"])
        elif kind == "telemetry":
            if self.merger is not None:
                self.merger.ingest(body)
        elif kind == "result":
            view.record_finish(body.get("stop_reason", ""),
                               body.get("tail", {}).get("iterations"),
                               body.get("tail", {}).get("series"))
            self.outcomes[vid] = VariantOutcome(
                spec=self._specs[vid], status="finished",
                iterations=int(body.get("iterations", 0)),
                stop_reason=body.get("stop_reason", ""),
                hpwl_upper=body.get("hpwl_upper"),
                placement=body.get("placement"),
                metrics=body.get("metrics"),
                retried=vid in self._retried,
                wall_seconds=time.perf_counter() - attempt.started,
            )
            self._trace_variant(vid, attempt, "finished")
        elif kind == "error":
            self.outcomes[vid] = VariantOutcome(
                spec=self._specs[vid], status="error",
                error=f"{body.get('type')}: {body.get('message')}",
                wall_seconds=time.perf_counter() - attempt.started,
            )
            self._trace_variant(vid, attempt, "error")
            logger.warning("race variant %s errored: %s", vid,
                           self.outcomes[vid].error)

    def _apply_kill(self, decision: KillDecision,
                    running: dict[str, Attempt],
                    pending: list[VariantSpec],
                    killed: set[str]) -> None:
        vid = decision.variant_id
        killed.add(vid)
        self.decisions.append(decision)
        if self.merger is not None:
            self.merger.add_instant(f"kill {vid}", time.perf_counter(),
                                    rule=decision.rule,
                                    round=decision.round)
        spec = self._specs[vid]
        attempt = running.pop(vid, None)
        if attempt is not None:
            attempt.reap()
            self._trace_variant(vid, attempt, "killed")
            wall = time.perf_counter() - attempt.started
        else:
            # A result raced in ahead of the verdict; the verdict is
            # ground truth, the result is dropped.
            prior = self.outcomes.get(vid)
            wall = prior.wall_seconds if prior is not None else 0.0
        self.outcomes[vid] = VariantOutcome(
            spec=spec, status="killed", kill=decision,
            iterations=self.views[vid].iterations[-1] + 1
            if self.views[vid].iterations else 0,
            stop_reason=f"killed:{decision.rule}",
            wall_seconds=wall,
        )
        logger.info("race: killed %s at round %d (%s)", vid,
                    decision.round, decision.rule)

        tuned = self.tuner.propose(spec, decision, self.base_config)
        if tuned is not None:
            self.views[tuned.variant_id] = self._make_view(tuned)
            self._specs[tuned.variant_id] = tuned
            self.tuned.append(tuned.variant_id)
            pending.append(tuned)
            logger.info("race: tuned %s -> %s (%s)", vid,
                        tuned.variant_id, tuned.overrides)

