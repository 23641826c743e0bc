"""The Supervisor: bounded-retry recovery around the ComPLx loop.

The Supervisor owns everything the placer core should not care about:
retry budgets, rollback snapshots, the wall-clock deadline, best-so-far
tracking and checkpoint cadence.  :class:`repro.core.complx.ComPLxPlacer`
attaches one when ``ComPLxConfig.resilience`` is set and routes every
iteration through :meth:`Supervisor.run_iteration`; with no supervisor
attached the loop runs exactly as before, so the fault-free trajectory
is unchanged.

Recovery model
--------------
An iteration is a transaction.  Before running it the Supervisor
captures the loop state as a :class:`Checkpoint`, the image a
checkpoint file holds (cheap: placements are rebound, never mutated,
so references plus a handful of scalars suffice).  A fault inside the
iteration — an :class:`~repro.core.invariants.InvariantViolation`, a
:class:`~repro.resilience.policies.NumericalFault` from the NaN/escape
screen, or any other ``Exception`` — rolls the state back and re-runs
the iteration with the lambda step damped by ``lambda_damping`` per
attempt.  After ``max_retries`` failed attempts the original fault
chains out of a :class:`~repro.resilience.policies.RecoveryExhausted`.

CG solves are recovered at a finer grain (see
:func:`~repro.resilience.policies.supervised_solve_spd`) because a
stalled solve is cheaper to retry than a whole iteration.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..core.invariants import InvariantViolation
from ..netlist import Placement
from .checkpoint import Checkpoint, config_fingerprint, save_checkpoint
from .events import RecoveryEvent, RecoveryLog
from .policies import NumericalFault, RecoveryExhausted, supervised_solve_spd

__all__ = [
    "Supervisor",
]

logger = logging.getLogger(__name__)


class Supervisor:
    """Per-run recovery controller for one :class:`ComPLxPlacer`."""

    def __init__(self, placer, config) -> None:
        self.placer = placer
        self.config = config
        self.log = RecoveryLog()
        self.checkpoints_written = 0
        self.resumed_from: int | None = None
        self._start_time: float | None = None
        self._iteration: int | None = None
        self._fingerprint: str | None = None
        self._best_phi = float("inf")
        self._best_upper: Placement | None = None
        self._best_lower: Placement | None = None
        self._best_iteration: int | None = None

    # ------------------------------------------------------------------
    # deadline budget
    # ------------------------------------------------------------------
    def start_clock(self) -> None:
        self._start_time = time.perf_counter()

    def deadline_exceeded(self) -> bool:
        deadline = self.config.deadline_seconds
        if deadline is None or self._start_time is None:
            return False
        return time.perf_counter() - self._start_time >= deadline

    # ------------------------------------------------------------------
    # best-so-far tracking (for graceful early exit)
    # ------------------------------------------------------------------
    def update_best(self, state) -> None:
        if not state.history.records:
            return
        phi_ub = state.history.records[-1].phi_upper
        if phi_ub < self._best_phi:
            self._best_phi = phi_ub
            self._best_upper = state.upper
            self._best_lower = state.lower
            self._best_iteration = state.iteration

    def early_exit(self, state, reason: str) -> None:
        """Swap the best-so-far feasible placement into the state."""
        self.log.record(RecoveryEvent(
            fault="deadline", stage="iteration", action="early_exit",
            iteration=state.iteration,
            detail=(f"returning best iterate from iteration "
                    f"{self._best_iteration} (Phi_ub={self._best_phi:.4g})"
                    if self._best_upper is not None else "no iterate yet"),
        ))
        if self._best_upper is not None:
            state.upper = self._best_upper
            state.lower = self._best_lower
        state.history.stop_reason = reason
        logger.warning("deadline budget exhausted after iteration %d; "
                       "returning best-so-far placement", state.iteration)

    # ------------------------------------------------------------------
    # the iteration transaction
    # ------------------------------------------------------------------
    def run_iteration(self, k: int, state) -> bool:
        """Run one supervised iteration; returns the loop's stop flag."""
        self._iteration = k
        snapshot = Checkpoint.capture(state)
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                stop = self.placer._run_iteration(k, state)
                state.lam_scale = 1.0
                self._iteration = None
                return stop
            except (InvariantViolation, NumericalFault) as exc:
                last_error = exc
                fault = ("invariant" if isinstance(exc, InvariantViolation)
                         else "numerical")
            except Exception as exc:
                last_error = exc
                fault = "numerical"
            snapshot.restore_into(state)
            state.lam_scale = self.config.lambda_damping ** (attempt + 1)
            self.log.record(RecoveryEvent(
                fault=fault, stage="iteration", action="rollback",
                iteration=k, attempt=attempt + 1,
                detail=f"{type(last_error).__name__}: {last_error}",
            ))
            logger.warning(
                "iteration %d faulted (%s); rolled back, retrying with "
                "lambda scale %.3g (attempt %d/%d)",
                k, last_error, state.lam_scale, attempt + 1,
                self.config.max_retries,
            )
        state.lam_scale = 1.0
        self._iteration = None
        self.log.record(RecoveryEvent(
            fault="invariant" if isinstance(last_error, InvariantViolation)
            else "numerical",
            stage="iteration", action="exhausted", iteration=k,
            detail=str(last_error),
        ))
        raise RecoveryExhausted(
            f"iteration {k} failed after {self.config.max_retries} "
            f"retries: {last_error}"
        ) from last_error

    def check_numeric(self, iteration: int, placement: Placement,
                      stage: str) -> None:
        """Cheap NaN/escape screen used when full invariants are off."""
        if not (np.isfinite(placement.x).all()
                and np.isfinite(placement.y).all()):
            raise NumericalFault(
                f"non-finite coordinates after {stage} "
                f"(iteration {iteration})"
            )

    # ------------------------------------------------------------------
    # CG policy entry point (called from the hot primal step)
    # ------------------------------------------------------------------
    def solve_spd(self, system, warm, tol, max_iter, backend):
        return supervised_solve_spd(
            system, warm, tol, max_iter, backend,
            fallback_backend=self.config.cg_fallback_backend,
            retries=self.config.cg_retries,
            log=self.log,
            iteration=self._iteration,
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = config_fingerprint(
                self.placer.config, self.placer.netlist
            )
        return self._fingerprint

    def maybe_checkpoint(self, state) -> str | None:
        every = self.config.checkpoint_every
        path = self.config.checkpoint_path
        if every <= 0 or path is None:
            return None
        if state.iteration % every != 0:
            return None
        ckpt = Checkpoint.capture(state, self.fingerprint())
        save_checkpoint(path, ckpt)
        self.checkpoints_written += 1
        logger.debug("checkpoint written to %s (iteration %d)",
                     path, state.iteration)
        return path

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Summary dict merged into ``GlobalPlacementResult.extras``."""
        return {
            "events": self.log.as_dicts(),
            "event_counts": self.log.by_class(),
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
            "summary": self.log.summary(),
        }

