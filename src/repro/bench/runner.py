"""Bench runner: median-of-N stage timings + quality per workload.

Each case runs ``repeats`` times with a fresh tracer and metrics
registry installed; per-stage wall-clock totals come from the tracer's
aggregate and the *median* across repeats is reported (robust to a
single noisy run on shared CI hardware).  Seeds are pinned by the
suite, so placement quality is identical across repeats and is read
from the first run.
"""

from __future__ import annotations

import statistics
from datetime import datetime, timezone
from typing import Any

from .. import telemetry
from ..core.convergence import trajectory_summary
from ..experiments.common import make_placer
from ..flow import legalize_and_detail
from ..metrics import scaled_hpwl
from ..models import hpwl
from ..report import record_stage_totals
from ..workloads import load_suite
from .schema import REQUIRED_SERIES, SCHEMA_VERSION
from .suites import BenchCase, get_suite

__all__ = ["run_case", "run_suite"]


def _one_run(case: BenchCase, netlist) -> tuple[dict[str, Any], Any, Any, Any]:
    """One traced placement+legalization; returns (stage totals, result,
    legal placement, merged registry)."""
    placer = make_placer(case.placer, netlist, gamma=case.gamma,
                         seed=case.seed, effort=case.effort)
    with telemetry.tracing() as tracer, telemetry.metrics() as registry:
        result = placer.place()
        legal, _ = legalize_and_detail(netlist, result.upper, "abacus",
                                       detailed=False)
    # Fold the per-iteration series in with the cross-stage
    # counters/gauges and stage totals so the registry is
    # report-complete on its own.
    registry.merge(result.metrics)
    registry.meta["netlist"] = netlist.name
    registry.meta["placer"] = case.placer
    record_stage_totals(registry, tracer)
    return tracer.aggregate(), result, legal, registry


def run_case(
    case: BenchCase,
    repeats: int = 3,
    registry_sink: list | None = None,
) -> dict[str, Any]:
    """Benchmark one case; returns its workload entry for the document.

    ``registry_sink``, when a list, receives the first repeat's merged
    :class:`~repro.telemetry.MetricsRegistry` (per-iteration series +
    cross-stage instruments + stage-total gauges) — what ``repro.bench
    run --report`` renders into the run report.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    design = load_suite(case.workload, scale=case.scale)
    netlist = design.netlist

    per_run: list[dict[str, Any]] = []
    first_result = None
    first_legal = None
    for i in range(repeats):
        totals, result, legal, run_registry = _one_run(case, netlist)
        per_run.append(totals)
        if i == 0:
            first_result, first_legal = result, legal
            if registry_sink is not None:
                registry_sink.append(run_registry)

    # Median across repeats, stage by stage.  A stage absent from a run
    # (e.g. a fallback that only fired once) counts as 0 there.
    stages = sorted({name for totals in per_run for name in totals})
    timings: dict[str, Any] = {}
    for stage in stages:
        runs = [
            totals[stage].total_s if stage in totals else 0.0
            for totals in per_run
        ]
        counts = [
            totals[stage].count if stage in totals else 0
            for totals in per_run
        ]
        timings[stage] = {
            "median_s": statistics.median(runs),
            "min_s": min(runs),
            "max_s": max(runs),
            "count": int(statistics.median(counts)),
            "runs": runs,
        }

    registry = first_result.metrics
    convergence = trajectory_summary(registry)
    metric = scaled_hpwl(netlist, first_legal, case.gamma)
    quality = {
        "hpwl": float(hpwl(netlist, first_legal)),
        "scaled_hpwl": float(metric.scaled),
        "overflow_percent": float(metric.overflow_percent),
        "iterations": int(first_result.iterations),
        "final_lambda": float(first_result.final_lambda),
        "final_pi": float(convergence.get("final_pi", 0.0)),
    }
    if "final_gap" in convergence:
        quality["final_gap"] = float(convergence["final_gap"])

    series = {
        name: [float(v) for v in registry.series(name).values]
        for name in REQUIRED_SERIES
    }

    entry: dict[str, Any] = {
        "name": case.workload,
        "scale": case.scale,
        "placer": case.placer,
        "gamma": case.gamma,
        "seed": case.seed,
        "cells": int(netlist.num_cells),
        "nets": int(netlist.num_nets),
        "timings": timings,
        "quality": quality,
        "series": series,
    }
    # Only stamped when set, so documents from effort-free suites (and
    # the committed smoke baseline) keep their exact shape.
    if case.effort is not None:
        entry["effort"] = case.effort
    return entry


def run_suite(
    suite: str,
    repeats: int = 3,
    scale: float | None = None,
    progress=None,
    registry_sink: list | None = None,
) -> dict[str, Any]:
    """Run a named suite; returns the schema-valid bench document.

    ``scale`` overrides every case's workload scale (test shrinkage);
    ``progress`` is an optional ``callable(str)`` for status lines;
    ``registry_sink`` collects one metrics registry per workload (see
    :func:`run_case`).
    """
    cases = get_suite(suite, scale=scale)
    workloads = []
    for case in cases:
        if progress is not None:
            progress(f"bench {case.workload} (scale {case.scale}, "
                     f"placer {case.placer}, {repeats} repeats)...")
        workloads.append(run_case(case, repeats=repeats,
                                  registry_sink=registry_sink))
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "repeats": repeats,
        "workloads": workloads,
    }
