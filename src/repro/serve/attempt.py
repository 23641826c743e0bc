"""One worker-process attempt: the crash-isolation cycle, written once.

The job service (:mod:`repro.serve.runtime`) and the portfolio race
(:mod:`repro.race.controller`) both run each unit of work in a child
process of its own and read the same contract off it.  This module is
that contract; each runtime adds only its policy (serve: monitor
thread, cancellation, hard-kill deadline, backoff retries; race: one
wait loop over every worker, one crash retry).

The crash contract
------------------

* **Messages.**  The worker streams ``(kind, body)`` tuples over a
  one-way pipe (serve: ``"event"``, both: ``"telemetry"``) and ends
  with one terminal message.
* **Result.**  ``("result", body)``: the run finished.
* **Deterministic error.**  ``("error", {"type", "message"})``: an
  exception such as a bad workload or exhausted in-worker recovery.
  The same inputs would fail the same way, so no runtime retries it.
* **Crash.**  Any exit without a terminal message.  An injected
  :class:`~repro.faults.SimulatedCrash` hard-exits with
  :data:`CRASH_EXIT_CODE` (137, as a SIGKILL or the OOM killer would
  leave it): no cleanup, nothing on the pipe.  The runtime classifies
  it by that absence and applies its retry policy.
* **No false crashes.**  :meth:`Attempt.receive` checks for exit
  *before* it reads the pipe and then reads everything queued, so a
  worker that sent its result and exited is never read as a crash.
* **Injected faults.**  Runtimes arm them in the parent and hand them
  to the worker as the payload's ``_inject`` entry, which
  :func:`worker_main` installs first (:func:`install_injected_faults`):
  ``crash`` dies at a given iteration through the ``loop.kill`` site,
  ``hang`` stalls before any placement work so that only the parent's
  hard kill reclaims the worker.

:class:`Attempt` keeps no progress of its own after it starts the
worker: the terminal message seen so far lives in the caller, so
serve's monitor threads share no mutable state through it.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any, Callable

from ..faults import FaultPlan, FaultSpec, SimulatedCrash, install

__all__ = ["Attempt", "CRASH_EXIT_CODE", "install_injected_faults",
           "worker_main"]

logger = logging.getLogger(__name__)

#: Exit status of a simulated worker kill (mirrors 128 + SIGKILL).
CRASH_EXIT_CODE = 137


def install_injected_faults(inject: dict[str, Any] | None) -> None:
    """Arm the in-worker plan for a parent-dispatched fault."""
    if not inject:
        return
    if inject.get("mode") == "crash":
        # Die between iterations via the existing loop.kill site; the
        # SimulatedCrash is caught only by worker_main's hard exit.
        install(FaultPlan((
            FaultSpec("loop.kill", at=max(int(inject.get("at", 2)), 1)),
        )))
    elif inject.get("mode") == "hang":
        # Stall before any placement work so the parent's hard-kill
        # timeout is what reclaims the worker.
        time.sleep(float(inject.get("seconds", 3600.0)))


def worker_main(payload: dict[str, Any], conn,
                run: Callable[[], dict[str, Any]], what: str) -> None:
    """The worker-side crash barrier: arm ``_inject``, ``run()``, and end
    with ``("result", body)``, ``("error", ...)`` or a crash exit.

    ``what`` names the work in the log line of a deterministic error.
    """
    try:
        install_injected_faults(payload.get("_inject"))
        body = run()
        conn.send(("result", body))
        conn.close()
    except SimulatedCrash:
        # Mirror a SIGKILL: no cleanup, no goodbye on the pipe.
        os._exit(CRASH_EXIT_CODE)
    except Exception as exc:  # deterministic failure -> report, no retry
        logger.exception("%s failed in worker", what)
        try:
            conn.send(("error", {"type": type(exc).__name__,
                                 "message": str(exc)}))
            conn.close()
        except OSError:
            pass


class Attempt:
    """Parent side of one worker process on a one-way pipe.

    ``target(payload, conn)`` runs in the child; it should hand its work
    to :func:`worker_main`.  ``started`` is the ``perf_counter`` reading
    taken just before the spawn.
    """

    def __init__(self, ctx, target: Callable[..., None],
                 payload: dict[str, Any], name: str) -> None:
        self.started = time.perf_counter()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=target, args=(payload, child_conn),
                                   name=name, daemon=True)
        self.process.start()
        child_conn.close()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode

    def receive(self, timeout: float = 0.0
                ) -> tuple[list[tuple[str, Any]], bool]:
        """``(messages, exited)``: every message queued now, waiting up to
        ``timeout`` seconds for the first one.

        ``exited`` is True when the worker had exited before the pipe
        was read; ``messages`` then holds the rest of what it sent, so
        an attempt that has seen no terminal message by then crashed.
        """
        exited = not self.process.is_alive()
        messages: list[tuple[str, Any]] = []
        try:
            if self.conn.poll(0.0 if exited else timeout):
                messages.append(self.conn.recv())
                while self.conn.poll():
                    messages.append(self.conn.recv())
        except (EOFError, OSError):
            pass  # the worker closed its end: nothing more will come
        return messages, exited

    def reap(self, kill: bool = False, grace: float = 0.0) -> None:
        """Give the worker ``grace`` seconds to exit on its own, then
        terminate it (SIGKILL with ``kill``), reap it, close the pipe."""
        self.process.join(timeout=grace)
        if self.process.is_alive():
            if kill:
                self.process.kill()
            else:
                self.process.terminate()
            self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=10.0)
        self.conn.close()
