"""Shared experiment infrastructure: the place→legalize→DP flow, the
placer registry, and result bookkeeping.

Every table/figure experiment runs placers through the *same* flow the
paper uses: global placement, then FastPlace-DP-style legalization +
detailed placement, with runtimes reported end-to-end ("including
detailed placement runtime in both cases").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from ..baselines import (
    FastPlacePlacer,
    NonlinearPlacer,
    RQLPlacer,
    SimPLPlacer,
)
from ..core import (
    ComPLxConfig,
    ComPLxPlacer,
    GlobalPlacementResult,
    dp_every_iteration_config,
    finest_grid_config,
)
from ..detailed import DetailedPlacer
from ..legalize import tetris_legalize
from ..metrics import scaled_hpwl
from ..models import hpwl
from ..netlist import Netlist, Placement
from ..workloads import load_suite


@dataclass
class FlowResult:
    """One placer on one design, through the full flow."""

    placer: str
    suite: str
    legal_hpwl: float
    scaled_hpwl: float
    overflow_percent: float
    gp_seconds: float
    dp_seconds: float
    iterations: int
    final_lambda: float
    global_result: GlobalPlacementResult = field(repr=False, default=None)
    legal_placement: Placement = field(repr=False, default=None)

    @property
    def total_seconds(self) -> float:
        return self.gp_seconds + self.dp_seconds

    @property
    def recovery_events(self) -> list[dict]:
        """Recovery actions taken during global placement (supervised
        runs only; empty otherwise)."""
        if self.global_result is None:
            return []
        report = self.global_result.extras.get("resilience")
        return report["events"] if report else []


def make_placer(name: str, netlist: Netlist, gamma: float,
                seed: int = 0, check_invariants: bool = False,
                resilience=None, effort: int | None = None):
    """Instantiate a registered placer by name.

    Names: ``complx`` (default config), ``complx_finest``, ``complx_dp``
    (Table 1 variants), ``simpl``, ``rql``, ``fastplace``, ``nonlinear``,
    ``complx_lse`` (log-sum-exp instantiation).

    ``check_invariants`` enables the stage-boundary contracts of
    :mod:`repro.core.invariants` on the ComPLx variants (the baselines
    do not run the ComPLx loop and ignore the flag).  ``resilience`` is
    an optional :class:`~repro.core.config.ResilienceConfig`; when set
    the ComPLx variants run supervised (fault recovery, deadlines,
    checkpointing) and invariant violations become recoverable logged
    events instead of hard aborts.
    """
    knobs = dict(gamma=gamma, seed=seed, check_invariants=check_invariants,
                 resilience=resilience)
    if effort is not None:
        # The Coloquinte-style preset fills in iteration/CG budgets and
        # the gap_tolerance finish line; only the ComPLx variants run
        # the loop those knobs control.
        from ..core import effort_overrides
        knobs.update(effort_overrides(effort))
    if name == "complx":
        return ComPLxPlacer(netlist, ComPLxConfig(**knobs))
    if name == "complx_finest":
        return ComPLxPlacer(netlist, finest_grid_config(**knobs))
    if name == "complx_dp":
        dp = DetailedPlacer(netlist, legalizer=tetris_legalize, max_rounds=1)
        return ComPLxPlacer(
            netlist, dp_every_iteration_config(**knobs),
            detailed_placer=dp,
        )
    if name == "complx_lse":
        return ComPLxPlacer(
            netlist, ComPLxConfig(net_model="lse", **knobs),
        )
    if name == "simpl":
        return SimPLPlacer(netlist, gamma=gamma, seed=seed)
    if name == "rql":
        from ..baselines.rql import rql_config
        return RQLPlacer(netlist, config=rql_config(gamma=gamma, seed=seed))
    if name == "fastplace":
        return FastPlacePlacer(netlist, gamma=gamma, seed=seed)
    if name == "gordian":
        from ..baselines.gordian import GordianPlacer
        return GordianPlacer(netlist, seed=seed)
    if name == "nonlinear":
        return NonlinearPlacer(netlist, gamma=gamma, seed=seed)
    raise KeyError(f"unknown placer {name!r}")


PLACER_NAMES = [
    "complx", "complx_finest", "complx_dp", "complx_lse",
    "simpl", "rql", "fastplace", "nonlinear", "gordian",
]


def run_flow(
    netlist: Netlist,
    placer_name: str,
    gamma: float = 1.0,
    seed: int = 0,
    dp_rounds: int = 2,
    resilience=None,
) -> FlowResult:
    """Global placement + legalization + detailed placement + metrics."""
    placer = make_placer(placer_name, netlist, gamma, seed,
                         resilience=resilience)
    t0 = time.perf_counter()
    result = placer.place()
    gp_seconds = time.perf_counter() - t0

    dp = DetailedPlacer(netlist, legalizer=tetris_legalize)
    t1 = time.perf_counter()
    legal = dp.place(result.upper)
    dp_seconds = time.perf_counter() - t1

    metric = scaled_hpwl(netlist, legal, gamma)
    return FlowResult(
        placer=placer_name,
        suite=netlist.name,
        legal_hpwl=hpwl(netlist, legal),
        scaled_hpwl=metric.scaled,
        overflow_percent=metric.overflow_percent,
        gp_seconds=gp_seconds,
        dp_seconds=dp_seconds,
        iterations=result.iterations,
        final_lambda=result.final_lambda,
        global_result=result,
        legal_placement=legal,
    )


def results_dir(path: str | None = None) -> str:
    """The directory experiment artifacts are written to."""
    out = path or os.environ.get("REPRO_RESULTS", "results")
    os.makedirs(out, exist_ok=True)
    return out


def load_design(name: str, scale: float):
    """Suite loader shared by the experiments (kept thin for mocking)."""
    return load_suite(name, scale=scale)
