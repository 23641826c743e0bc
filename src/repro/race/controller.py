"""The race controller: run a portfolio concurrently, pick the winner.

Every variant runs as an :class:`~repro.serve.attempt.Attempt` under
the crash contract of :mod:`repro.serve.attempt`, to its own stop: the
Formula 7 duality gap, the Π criterion, a plateau, its
``gap_tolerance`` or its iteration budget.  One single-threaded loop
owns all state and drains the worker pipes with
:func:`multiprocessing.connection.wait`, so there are no threads and no
locks.  Crashed workers get exactly one retry; deterministic errors are
terminal.

Each variant is a deterministic function of its config, the netlist
and its seed, so the winner — the finished variant with the lowest
final feasible cost, ties broken by variant id (:func:`pick_winner`) —
is too: a race repeats whatever the scheduling.  Wall-clock times
appear in :class:`RaceResult` for reporting only.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Mapping

from ..netlist import Netlist
from ..serve.attempt import CRASH_EXIT_CODE, Attempt
from ..serve.worker import build_netlist
from ..telemetry import TraceContext, TraceMerger
from .portfolio import VariantSpec
from .worker import TRACKED_SERIES, race_worker_entry

__all__ = ["RaceController", "RaceResult", "VariantOutcome", "VariantView",
           "pick_winner"]

logger = logging.getLogger(__name__)

_POLL_SECONDS = 0.05


@dataclass
class VariantView:
    """One variant's per-iteration series, filled once from its result."""

    variant_id: str
    iterations: list[int] = field(default_factory=list)
    series: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in TRACKED_SERIES})
    finished: bool = False
    stop_reason: str = ""
    final_phi_upper: float | None = None

    def record_finish(self, stop_reason: str, iterations: list[int],
                      series: Mapping[str, list[float]]) -> None:
        """Fold the finished run's series into the view."""
        if any(b <= a for a, b in zip(iterations, iterations[1:])):
            raise ValueError(
                f"{self.variant_id}: non-monotonic iteration series")
        for name in TRACKED_SERIES:
            values = series.get(name, ())
            if len(values) != len(iterations):
                raise ValueError(
                    f"{self.variant_id}: series {name!r} has "
                    f"{len(values)} values for {len(iterations)} "
                    "iterations")
            self.series[name] = [float(v) for v in values]
        self.iterations = [int(i) for i in iterations]
        self.finished = True
        self.stop_reason = stop_reason
        if self.series["phi_upper"]:
            self.final_phi_upper = self.series["phi_upper"][-1]


def pick_winner(views: Mapping[str, VariantView]) -> str | None:
    """The finished variant with the lowest final feasible cost.

    Ties break lexicographically on variant id, so the winner is a pure
    function of the recorded series.
    """
    best: tuple[float, str] | None = None
    for vid in sorted(views):
        view = views[vid]
        if not view.finished or view.final_phi_upper is None:
            continue
        key = (view.final_phi_upper, vid)
        if best is None or key < best:
            best = key
    return best[1] if best is not None else None


@dataclass
class VariantOutcome:
    """Terminal record of one variant's race."""

    spec: VariantSpec
    status: str                     # finished | crashed | error
    iterations: int = 0
    stop_reason: str = ""
    hpwl_upper: float | None = None
    placement: dict[str, list[float]] | None = None
    metrics: dict[str, Any] | None = None
    error: str | None = None
    retried: bool = False
    wall_seconds: float = 0.0       # reporting only

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "variant_id": self.spec.variant_id,
            "effort": self.spec.effort,
            "overrides": dict(self.spec.overrides),
            "status": self.status,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "hpwl_upper": self.hpwl_upper,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass
class RaceResult:
    """What a race produced, in full."""

    winner: str | None
    outcomes: dict[str, VariantOutcome]
    views: dict[str, VariantView]
    #: Always empty: no variant is stopped by the race.  Kept because
    #: ``perfbench/workloads.py`` still reads it.
    decisions: list[Any] = field(default_factory=list)
    #: The longest variant's iteration count.
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
        base_overrides: dict[str, Any] | None = None,
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
        #: Worker label -> stable Chrome-trace pid, allocated in spawn
        #: order.
        self._lanes: dict[str, int] = {}

        self.views: dict[str, VariantView] = {}
        self.outcomes: dict[str, VariantOutcome] = {}
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
        result = self._race_loop(started)
        if self.merger is not None:
            result.trace = self.merger.chrome_trace()
        return result

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
            },
            "base_overrides": dict(self.base_overrides),
            "netlist": self.netlist,
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

        for spec in pending:
            self.views[spec.variant_id] = VariantView(spec.variant_id)
            self._specs[spec.variant_id] = spec

        try:
            while pending or running:
                while pending and len(running) < self.max_workers:
                    spec = pending.pop(0)
                    running[spec.variant_id] = self._spawn(spec)

                self._collect(running, pending)
                if not (pending or running):
                    break
                # Wake on a message, or on the exit of a worker that
                # already sent its last one so that its slot is refilled
                # at once (its pipe, closed by then, would end every
                # wait at once).
                connection_wait([attempt.process.sentinel
                                 if vid in self.outcomes else attempt.conn
                                 for vid, attempt in running.items()],
                                timeout=_POLL_SECONDS)
        finally:
            for attempt in running.values():
                attempt.reap()

        return RaceResult(
            winner=pick_winner(self.views), outcomes=self.outcomes,
            views=self.views,
            rounds=max((out.iterations for out in self.outcomes.values()),
                       default=0),
            wall_seconds=time.monotonic() - started,
        )

    # ------------------------------------------------------------------
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
        if kind == "telemetry":
            if self.merger is not None:
                self.merger.ingest(body)
        elif kind == "result":
            tail = body.get("tail", {})
            self.views[vid].record_finish(body.get("stop_reason", ""),
                                          tail.get("iterations", []),
                                          tail.get("series", {}))
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
