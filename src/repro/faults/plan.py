"""Deterministic fault plans: which site fails, on which hit, and how.

A :class:`FaultPlan` is a set of :class:`FaultSpec` entries keyed by
*site* — a short string naming an instrumented hook point in the flow
(``"cg.stall"``, ``"primal.nan"``, ``"legalize.abacus"``, ...).  Every
hook call increments the site's hit counter; a spec fires when the
counter reaches its ``at`` ordinal (1-based) and stays armed for
``count`` consecutive hits.  Plans are pure data: the same plan against
the same run produces the same faults, which is what lets the chaos
suite assert exact recovery behavior.

Activation is either explicit (``install(plan)`` / the :func:`injected`
context manager, used by tests) or via the ``REPRO_FAULTS`` environment
variable parsed at import time (``REPRO_FAULTS="cg.stall@3,primal.nan@2"``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KNOWN_SITES",
    "SimulatedCrash",
    "active_plan",
    "clear",
    "injected",
    "install",
    "parse_plan",
]


class InjectedFault(RuntimeError):
    """Raised by an armed raise-type injector at its hook site."""


class SimulatedCrash(BaseException):
    """Simulated SIGKILL between iterations.

    Deliberately a ``BaseException`` so no recovery policy (which catch
    ``Exception`` subclasses at most) can swallow it — a real SIGKILL is
    not catchable either.  Only the chaos harness is expected to catch
    it.
    """


#: Instrumented hook sites and the fault class they inject.
KNOWN_SITES = {
    "loop.kill": "mid-run crash between global placement iterations",
    "primal.nan": "NaN poked into the primal iterate after the solve",
    "cg.stall": "CG solve returns without convergence",
    "cg.non_spd": "CG solve raises on a non-SPD system",
    "legalize.abacus": "abacus legalizer raises mid-run",
    "legalize.tetris": "tetris legalizer raises mid-run",
    # Service-level sites, fired by the repro.serve runtime in the
    # *parent* process at attempt dispatch (never inside the worker, so
    # retried attempts see a fresh ordinal and recovery is
    # deterministic).  ``seed`` carries the payload: the iteration the
    # worker dies at (crash, default 2) / the stall in seconds (hang).
    "serve.worker.crash": "worker process dies mid-job (simulated SIGKILL)",
    "serve.worker.hang": "worker process stalls until the deadline kills it",
}


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic injection: fire at the ``at``-th hook hit.

    ``at`` is the 1-based ordinal of the hit at ``site`` that triggers
    the fault; ``count`` keeps it armed for that many consecutive hits
    (1 models a transient fault, larger values a sticky one).  ``seed``
    feeds any randomized payload (e.g. which cell gets the NaN).
    """

    site: str
    at: int = 1
    count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"known: {', '.join(sorted(KNOWN_SITES))}"
            )
        if self.at < 1:
            raise ValueError("fault ordinal 'at' is 1-based")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")


@dataclass
class FaultPlan:
    """A set of specs plus the per-site hit counters of the current run.

    The counters are lock-guarded: the job service fires its
    ``serve.worker.*`` sites from concurrent per-job monitor threads, so
    ``hit`` is a concurrent read-modify-write on ``_hits``.
    """

    specs: Sequence[FaultSpec] = ()
    _hits: dict = field(default_factory=dict, repr=False)
    _fired: list = field(default_factory=list, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def hit(self, site: str) -> FaultSpec | None:
        """Register one hit at ``site``; returns the armed spec, if any."""
        with self._lock:
            n = self._hits.get(site, 0) + 1
            self._hits[site] = n
            for spec in self.specs:
                if spec.site == site and spec.at <= n < spec.at + spec.count:
                    self._fired.append((site, n))
                    return spec
            return None

    def reset(self) -> None:
        """Zero the hit counters (reuse the plan for a fresh run)."""
        with self._lock:
            self._hits.clear()
            self._fired.clear()

    @property
    def fired(self) -> list:
        """``(site, hit ordinal)`` pairs that actually triggered."""
        with self._lock:
            return list(self._fired)


def parse_plan(text: str) -> FaultPlan:
    """Parse ``"site@at"`` / ``"site@at*count"`` / ``"site@at:seed"`` specs.

    Comma-separated, e.g. ``"cg.stall@3,primal.nan@2:7"``.  ``@at``
    defaults to 1.
    """
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _, rest = chunk.partition("@")
        at, count, seed = 1, 1, 0
        if rest:
            ordinal, _, seed_text = rest.partition(":")
            if seed_text:
                seed = int(seed_text)
            base, _, count_text = ordinal.partition("*")
            if count_text:
                count = int(count_text)
            if base:
                at = int(base)
        specs.append(FaultSpec(site=site.strip(), at=at, count=count,
                               seed=seed))
    return FaultPlan(tuple(specs))


_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Make ``plan`` the process-wide active plan (None deactivates)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Deactivate fault injection."""
    install(None)


def active_plan() -> FaultPlan | None:
    """The currently installed plan, or None."""
    return _PLAN


@contextmanager
def injected(plan: FaultPlan | str) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block (counters reset on entry)."""
    if isinstance(plan, str):
        plan = parse_plan(plan)
    plan.reset()
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    install(parse_plan(_env_spec))
del _env_spec
