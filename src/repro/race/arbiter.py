"""The race arbiter: deterministic early-kill decisions.

The arbiter is a *pure function of observed series*.  Each variant's
trajectory is deterministic (fixed config + netlist + seed), so the
stream of per-iteration records it emits — and therefore the number of
checkpoints it produces before finishing — is a property of the data,
not of scheduling.  The controller evaluates "round r" once
:func:`round_settled` says every in-race variant has streamed
checkpoint ``r+1`` or finished, which guarantees that at evaluation
time the arbiter can tell *from the data alone* whether a variant was
still mid-flight at checkpoint ``r``.  Kill decisions therefore replay
identically regardless of worker scheduling, poll jitter, or how fast
results drain from the pipes.

Rules (first match wins, candidates visited in sorted variant order):

* ``doctor:<name>`` — the convergence doctor, run over the truncated
  prefix, reports a kill-listed pathology (λ-cap saturation, Π plateau,
  Π oscillation) at warning severity or worse,
* ``stalled-gap`` — the duality gap is still far from the variant's
  finish line and the feasible upper bound has stopped improving,
* ``dominated`` — the variant's best feasible cost trails the current
  leader by more than a margin after the grace period.

A kill never reduces the number of potential result producers (finished
variants + surviving runners) below ``min_survivors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..diagnostics import diagnose
from ..telemetry import MetricsRegistry

__all__ = [
    "KillDecision",
    "RaceArbiter",
    "TRACKED_SERIES",
    "VariantView",
    "pick_winner",
    "round_settled",
]

#: Per-iteration series streamed from race workers to the controller.
TRACKED_SERIES = ("lam", "pi", "phi_lower", "phi_upper",
                  "overflow_percent")


@dataclass(frozen=True)
class KillDecision:
    """One deterministic early-kill verdict."""

    variant_id: str
    rule: str                # "doctor:<name>" | "stalled-gap" | "dominated"
    round: int               # checkpoint round the evidence was read at
    iteration: int           # last iteration included in the evidence
    reason: str              # one-line human statement

    def to_json(self) -> dict[str, Any]:
        return {"variant_id": self.variant_id, "rule": self.rule,
                "round": self.round, "iteration": self.iteration,
                "reason": self.reason}


@dataclass
class _ConfigShim:
    """The doctor only reads these two knobs off a config."""

    lambda_growth_cap: float
    gap_tol: float


@dataclass
class VariantView:
    """The controller-side accumulation of one variant's stream.

    ``checkpoint_marks[r-1]`` is the number of per-iteration records
    included up to and including checkpoint ``r`` — truncating a series
    to a round is a slice, which is what makes replay from recorded
    series trivial.
    """

    variant_id: str
    gap_tol: float = 0.08
    gap_tolerance: float | None = None
    lambda_growth_cap: float = 2.0
    iterations: list[int] = field(default_factory=list)
    series: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in TRACKED_SERIES})
    checkpoint_marks: list[int] = field(default_factory=list)
    finished: bool = False
    stop_reason: str = ""
    final_phi_upper: float | None = None

    @property
    def checkpoints(self) -> int:
        return len(self.checkpoint_marks)

    @property
    def gap_target(self) -> float:
        """The variant's own finish line for the relative gap."""
        return self.gap_tolerance if self.gap_tolerance is not None \
            else self.gap_tol

    def _extend(self, iterations: list[int],
                series: Mapping[str, list[float]]) -> None:
        if iterations and self.iterations \
                and iterations[0] <= self.iterations[-1]:
            raise ValueError(
                f"{self.variant_id}: non-monotonic iteration stream "
                f"({iterations[0]} after {self.iterations[-1]})")
        self.iterations.extend(int(i) for i in iterations)
        for name in TRACKED_SERIES:
            values = series.get(name, ())
            if len(values) != len(iterations):
                raise ValueError(
                    f"{self.variant_id}: series {name!r} has "
                    f"{len(values)} values for {len(iterations)} "
                    "iterations")
            self.series[name].extend(float(v) for v in values)

    def record_checkpoint(self, iterations: list[int],
                          series: Mapping[str, list[float]]) -> None:
        """Fold one incremental checkpoint message into the view."""
        self._extend(iterations, series)
        self.checkpoint_marks.append(len(self.iterations))

    def record_finish(self, stop_reason: str,
                      iterations: list[int] | None = None,
                      series: Mapping[str, list[float]] | None = None,
                      ) -> None:
        """Mark the variant finished (folding any final tail records)."""
        if iterations:
            self._extend(iterations, series or {})
        self.finished = True
        self.stop_reason = stop_reason
        if self.series["phi_upper"]:
            self.final_phi_upper = self.series["phi_upper"][-1]

    def reset(self) -> None:
        """Forget everything (crash retry: the rerun re-streams)."""
        self.iterations.clear()
        for values in self.series.values():
            values.clear()
        self.checkpoint_marks.clear()
        self.finished = False
        self.stop_reason = ""
        self.final_phi_upper = None

    # ------------------------------------------------------------------
    # deterministic reads
    # ------------------------------------------------------------------
    def prefix_length(self, round_no: int) -> int:
        return self.checkpoint_marks[round_no - 1]

    def prefix_iteration(self, round_no: int) -> int:
        """Last iteration included in the round's evidence."""
        return self.iterations[self.prefix_length(round_no) - 1]

    def prefix_series(self, name: str, round_no: int) -> list[float]:
        return self.series[name][:self.prefix_length(round_no)]

    def prefix_registry(self, round_no: int) -> MetricsRegistry:
        """The truncated prefix as a registry the doctor can read."""
        registry = MetricsRegistry()
        n = self.prefix_length(round_no)
        for name in TRACKED_SERIES:
            out = registry.series(name)
            for iteration, value in zip(self.iterations[:n],
                                        self.series[name][:n]):
                out.record(iteration, value)
        return registry

    def relative_gap(self, round_no: int) -> float:
        ub = self.prefix_series("phi_upper", round_no)[-1]
        lb = self.prefix_series("phi_lower", round_no)[-1]
        if ub <= 0:
            return 0.0
        return max(ub - lb, 0.0) / ub

    def best_phi_upper(self, round_no: int | None = None) -> float:
        """Best (minimum) feasible cost seen; full series when
        ``round_no`` is None (finished variants)."""
        values = self.series["phi_upper"] if round_no is None \
            else self.prefix_series("phi_upper", round_no)
        return min(values) if values else float("inf")

    def best_phi_upper_upto(self, round_no: int) -> float:
        """Best feasible cost over at most ``round_no`` checkpoints.

        Clamps to the checkpoints the variant actually produced, so a
        variant that finished early is compared at the same evidence
        horizon as everyone else — never by its (later) converged tail.
        """
        horizon = min(round_no, self.checkpoints)
        if horizon <= 0:
            return float("inf")
        return self.best_phi_upper(horizon)

    def to_snapshot(self) -> dict[str, Any]:
        """JSON round-trip (test replay + promotion of killed partials)."""
        return {
            "variant_id": self.variant_id,
            "gap_tol": self.gap_tol,
            "gap_tolerance": self.gap_tolerance,
            "lambda_growth_cap": self.lambda_growth_cap,
            "iterations": list(self.iterations),
            "series": {k: list(v) for k, v in self.series.items()},
            "checkpoint_marks": list(self.checkpoint_marks),
            "finished": self.finished,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_snapshot(cls, doc: Mapping[str, Any]) -> "VariantView":
        view = cls(
            variant_id=doc["variant_id"],
            gap_tol=float(doc.get("gap_tol", 0.08)),
            gap_tolerance=doc.get("gap_tolerance"),
            lambda_growth_cap=float(doc.get("lambda_growth_cap", 2.0)),
        )
        view.iterations = [int(i) for i in doc["iterations"]]
        view.series = {name: [float(v) for v in
                              doc["series"].get(name, [])]
                       for name in TRACKED_SERIES}
        view.checkpoint_marks = [int(m) for m in doc["checkpoint_marks"]]
        if doc.get("finished"):
            view.finished = True
            view.stop_reason = doc.get("stop_reason", "")
            if view.series["phi_upper"]:
                view.final_phi_upper = view.series["phi_upper"][-1]
        return view


@dataclass(frozen=True)
class RaceArbiter:
    """Deterministic kill policy over variant views.

    All thresholds are data-relative (fractions, margins, checkpoint
    counts), never wall-clock, so the same recorded series always
    reproduce the same decisions.
    """

    #: No kills before this many checkpoint rounds have been observed.
    grace_checkpoints: int = 3
    #: Doctor finding names that justify a kill at >= warning severity.
    #: Deliberately excludes ``pi-oscillation``: a healthy mid-flight
    #: prefix has a high, noisy Pi (it only decays near the end), so
    #: that post-mortem rule misreads live evidence.
    doctor_kill_names: tuple[str, ...] = (
        "lambda-cap-saturation", "pi-plateau")
    #: Minimum per-iteration records before a doctor verdict is trusted.
    #: The λ cap is *meant* to bind for the first few iterations (the
    #: additive term of Formula (12) takes over later), so a short
    #: prefix looks 100% capped on every healthy run — D1 evidence only
    #: means something once the handover had a fair chance to happen.
    doctor_min_points: int = 12
    #: ``stalled-gap``: gap still above ``gap_factor * gap_target`` ...
    gap_factor: float = 2.0
    #: ... and best phi_upper improved less than this fraction over the
    #: last ``stall_window`` checkpoints.
    stall_window: int = 3
    stall_improvement: float = 0.02
    #: ``dominated``: best phi_upper trails the leader by this factor.
    dominance_margin: float = 1.5
    #: Never reduce finished + surviving runners below this.
    min_survivors: int = 1

    def decide(self, round_no: int,
               views: Mapping[str, VariantView]) -> list[KillDecision]:
        """Kill decisions for one checkpoint round.

        ``views`` holds every variant still in the race (killed and
        crashed ones excluded by the caller).  A variant is a *candidate*
        iff its stream proves it was still mid-flight at checkpoint
        ``round_no`` — it produced at least ``round_no + 1`` checkpoints,
        or finished after the round's last included iteration.
        """
        if round_no < self.grace_checkpoints:
            return []
        candidates = []
        for vid in sorted(views):
            view = views[vid]
            if view.checkpoints <= round_no and not view.finished:
                # The controller evaluates rounds only once settled;
                # treat an unsettled view as non-candidate (pure replay
                # over partial recordings hits this, live races do not).
                continue
            if view.checkpoints < round_no:
                continue  # finished before reaching this round: immune
            if view.finished and view.checkpoints == round_no:
                # Its last checkpoint IS the round: it finished there,
                # nothing was left to kill.
                continue
            candidates.append(vid)

        # The leader is the best feasible cost any in-race variant
        # reached *within the round's evidence horizon* — a variant
        # that already finished is still read at the same horizon, or
        # early prefixes would be judged against converged tails.
        leader = float("inf")
        for view in views.values():
            leader = min(leader, view.best_phi_upper_upto(round_no))

        finished_count = sum(1 for view in views.values() if view.finished)
        survivors = finished_count + len(
            [vid for vid in views
             if not views[vid].finished])

        decisions: list[KillDecision] = []
        for vid in candidates:
            view = views[vid]
            if view.finished and view.checkpoints == round_no:
                continue
            if survivors - 1 < self.min_survivors:
                break
            verdict = self._judge(round_no, view, leader)
            if verdict is not None:
                decisions.append(verdict)
                survivors -= 1
        return decisions

    # ------------------------------------------------------------------
    def _judge(self, round_no: int, view: VariantView,
               leader: float) -> KillDecision | None:
        iteration = view.prefix_iteration(round_no)

        finding = self._doctor_verdict(round_no, view)
        if finding is not None:
            return KillDecision(
                variant_id=view.variant_id,
                rule=f"doctor:{finding.name}", round=round_no,
                iteration=iteration, reason=finding.summary)

        stall = self._stalled_gap(round_no, view)
        if stall is not None:
            return KillDecision(
                variant_id=view.variant_id, rule="stalled-gap",
                round=round_no, iteration=iteration, reason=stall)

        best = view.best_phi_upper(round_no)
        if leader > 0 and best > self.dominance_margin * leader:
            return KillDecision(
                variant_id=view.variant_id, rule="dominated",
                round=round_no, iteration=iteration,
                reason=(f"best feasible cost {best:.4g} trails the "
                        f"leader ({leader:.4g}) by more than "
                        f"x{self.dominance_margin:g}"))
        return None

    def _doctor_verdict(self, round_no: int, view: VariantView):
        if view.prefix_length(round_no) < self.doctor_min_points:
            return None
        registry = view.prefix_registry(round_no)
        diagnosis = diagnose(
            registry,
            config=_ConfigShim(lambda_growth_cap=view.lambda_growth_cap,
                               gap_tol=view.gap_tol),
        )
        for finding in diagnosis.findings:
            if finding.name in self.doctor_kill_names \
                    and finding.severity in ("warning", "critical"):
                return finding
        return None

    def _stalled_gap(self, round_no: int,
                     view: VariantView) -> str | None:
        if round_no <= self.stall_window:
            return None
        gap = view.relative_gap(round_no)
        if gap <= self.gap_factor * view.gap_target:
            return None
        best_now = view.best_phi_upper(round_no)
        best_then = view.best_phi_upper(round_no - self.stall_window)
        if best_then <= 0 or best_now == float("inf"):
            return None
        improvement = (best_then - best_now) / best_then
        if improvement >= self.stall_improvement:
            return None
        return (f"gap {gap:.3f} is still > {self.gap_factor:g}x the "
                f"{view.gap_target:.3f} target and the feasible cost "
                f"improved only {100 * improvement:.2f}% over the last "
                f"{self.stall_window} checkpoints")


def round_settled(round_no: int, views: Mapping[str, VariantView]) -> bool:
    """True once checkpoint round ``round_no`` is decidable from data alone.

    Every in-race view must have streamed checkpoint ``round_no + 1`` or
    finished: then whether a variant was still mid-flight at checkpoint
    ``round_no`` is a property of its trajectory, not of message timing.
    A view not yet started counts with zero checkpoints, so rounds lag
    until it streams.  The round is judged only while some view streamed
    more than ``round_no`` checkpoints (no later round can have a
    candidate), and whether any worker still runs plays no part: a round
    that became decidable in the same drain that delivered the last
    results is judged all the same.
    """
    return any(view.checkpoints > round_no for view in views.values()) \
        and all(view.finished or view.checkpoints > round_no
                for view in views.values())


def pick_winner(views: Mapping[str, VariantView]) -> str | None:
    """The finished variant with the lowest final feasible cost.

    Ties break lexicographically on variant id, so the winner is a pure
    function of the recorded series too.
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
