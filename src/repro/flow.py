"""Everything after global placement: legalize, detail, report.

The paper times ComPLx as one flow: global placement, then
legalization and FastPlace-style detailed placement (Table 1).  The
``place`` command, the service worker, the experiments and the bench
runner all finish a global placement with :func:`legalize_and_detail`;
``place`` and the service build their run reports with
:func:`run_report`.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .detailed import DetailedPlacer
from .diagnostics import diagnose
from .legalize import abacus_legalize, tetris_legalize
from .netlist import Netlist, Placement
from .projection.grid import DensityGrid, default_grid_shape
from .report import (RunReport, build_report, record_stage_totals,
                     run_fingerprints)
from .resilience import RecoveryLog, legalize_with_fallback
from .telemetry import MetricsRegistry, Tracer

__all__ = ["LEGALIZERS", "density_map", "legalize_and_detail", "run_report"]

#: Legalizers by name.  Chains are built from this dict at call time, so
#: a profiler that wraps a legalizer in place reaches every flow.
LEGALIZERS = {"abacus": abacus_legalize, "tetris": tetris_legalize}


def legalize_and_detail(
    netlist: Netlist,
    placement: Placement,
    legalizer: str,
    detailed: bool = True,
    *,
    check_invariants: bool = False,
    log: RecoveryLog | None = None,
) -> tuple[Placement, str]:
    """Turn a global placement into the flow's final placement.

    Legalization runs ``legalizer`` first and tetris as its degraded
    fallback (:func:`~repro.resilience.legalize_with_fallback`, which
    certifies each result under ``check_invariants`` and records a
    downgrade in ``log``).  With ``detailed``, detailed placement takes
    the global placement, legalizes it through that chain unless it is
    legal already, then optimizes it.  ``legalizer="none"`` skips
    legalization, so detailed placement legalizes with tetris alone.

    Returns the final placement and the name of the legalizer that made
    it legal (``legalizer`` itself when none had to run).
    """
    if legalizer == "none" and not detailed:
        return placement, "none"
    names = ["tetris"] if legalizer in ("tetris", "none") \
        else [legalizer, "tetris"]
    chain = [(name, LEGALIZERS[name]) for name in names]
    used = legalizer

    def legalize(nl: Netlist, pl: Placement) -> Placement:
        nonlocal used
        legal, used = legalize_with_fallback(
            nl, pl, chain, check_invariants=check_invariants, log=log,
        )
        return legal

    if detailed:
        final = DetailedPlacer(netlist, legalizer=legalize).place(placement)
    else:
        final = legalize(netlist, placement)
    return final, used


def density_map(netlist: Netlist, placement: Placement,
                gamma: float) -> np.ndarray:
    """Bin utilization against ``gamma`` on the default grid (the
    report's heatmap)."""
    bins = default_grid_shape(netlist.num_movable)
    grid = DensityGrid(netlist, bins, bins)
    return grid.utilization(grid.usage(placement), gamma)


def run_report(
    registry: MetricsRegistry,
    netlist: Netlist,
    config: Any,
    placement: Placement,
    tracer: Tracer | None,
    *,
    gamma: float,
    title: str,
    recovery_events: list[dict[str, Any]],
) -> RunReport:
    """The run report of a finished flow.

    Folds the tracer's stage totals (when tracing), the run's recovery
    events and the design/config fingerprints into ``registry``, so its
    metrics file and archive carry them too, then adds the final
    placement's density map and the convergence doctor's diagnosis
    (``report.diagnosis``).
    """
    if tracer is not None:
        record_stage_totals(registry, tracer)
    if recovery_events:
        registry.meta["recovery_events"] = json.dumps(recovery_events)
    registry.meta.update(run_fingerprints(netlist, config))
    diagnosis = diagnose(registry, config=config,
                         recovery_events=recovery_events)
    return build_report(
        registry, title=title, diagnosis=diagnosis,
        density=density_map(netlist, placement, gamma),
        recovery_events=recovery_events,
    )
