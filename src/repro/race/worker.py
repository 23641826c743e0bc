"""The race worker: one variant's global placement in one process.

Follows the crash contract of :mod:`repro.serve.attempt` (crash
isolation, hard exit on injected crashes, deterministic errors over
the pipe):

* ``("telemetry", frame)`` — traced races only, one frame per
  iteration, shipped through ``place(callback=...)`` as the serve
  worker does; an untraced variant sends nothing before its result,
* ``("result", {...})`` — terminal payload: the per-iteration series
  of the whole run (``tail``), stop reason, the feasible upper
  placement, and the full metrics registry,
* ``("error", {...})`` — deterministic failure; the controller retries
  only crashes (abnormal exits), never these.

Heavy shared inputs — the netlist and one prebuilt
:class:`~repro.models.assembly.AssemblyPlan` — are published by the
parent via :func:`share_prebuilt` *before* forking, so every variant
inherits them copy-on-write instead of rebuilding per process.  Under
the ``spawn`` start method the globals are absent and the worker falls
back to rebuilding from the workload descriptor; results are identical
either way because plan construction is deterministic.
"""

from __future__ import annotations

import contextlib
from typing import Any

from .. import telemetry
from ..core import ComPLxConfig, ComPLxPlacer
from ..models import hpwl
from ..models.assembly import AssemblyPlan, PLANNABLE_MODELS
from ..netlist import Netlist
from ..serve.attempt import worker_main
from ..serve.worker import build_netlist
from .portfolio import VariantSpec

__all__ = ["TRACKED_SERIES", "clear_shared", "race_worker_entry",
           "run_variant", "share_prebuilt"]

#: Per-iteration series a variant's result carries back to the race.
TRACKED_SERIES = ("lam", "pi", "phi_lower", "phi_upper",
                  "overflow_percent")

# Parent-published shared inputs, inherited by fork children.  Keyed so
# a stale publication for a different netlist is never trusted.
_SHARED: dict[str, Any] = {}


def share_prebuilt(netlist: Netlist,
                   plan: AssemblyPlan | None) -> None:
    """Publish the prebuilt netlist/plan for fork children to inherit."""
    _SHARED["netlist"] = netlist
    _SHARED["netlist_name"] = netlist.name
    _SHARED["plan"] = plan


def clear_shared() -> None:
    _SHARED.clear()


def _materialize(payload: dict[str, Any],
                 config: ComPLxConfig) -> tuple[Netlist, AssemblyPlan | None]:
    """The (netlist, adoptable plan) pair for this variant.

    Prefers the parent's pre-fork publication; a plan is only adoptable
    when its (model, eps) matches this variant's config — variants that
    override the net model or eps quietly build their own.
    """
    netlist = _SHARED.get("netlist")
    if netlist is None:
        netlist = build_netlist(payload["workload"],
                                payload.get("aux_root"))
    plan = _SHARED.get("plan")
    if plan is not None and config.net_model in PLANNABLE_MODELS:
        probe = ComPLxPlacer(netlist, config)
        try:
            probe.adopt_plan(plan)
        except ValueError:
            plan = None
    else:
        plan = None
    return netlist, plan


def _ship(shipper: telemetry.TelemetryShipper | None, conn,
          force: bool = False) -> None:
    """Send the shipper's next telemetry frame, if tracing is on."""
    if shipper is not None:
        frame = shipper.flush_frame(force=force)
        if frame is not None:
            conn.send(("telemetry", frame))


def run_variant(payload: dict[str, Any], conn) -> dict[str, Any]:
    """Run one variant end to end; returns the result message body."""
    spec = VariantSpec(**payload["variant"])
    base = ComPLxConfig(**payload.get("base_overrides", {}))
    config = spec.config(base)
    # Absent "trace" entry -> None -> no shipper and no callback; the
    # worker's math and result are byte-identical.
    trace_ctx = telemetry.TraceContext.from_wire(payload.get("trace"))

    netlist, plan = _materialize(payload, config)

    with contextlib.ExitStack() as stack:
        shipper = None
        if trace_ctx is not None:
            tracer = stack.enter_context(telemetry.tracing())
            shipper = telemetry.TelemetryShipper(trace_ctx, tracer)
        placer = ComPLxPlacer(netlist, config)
        if plan is not None:
            placer.adopt_plan(plan)
        result = placer.place(
            callback=None if shipper is None
            else lambda k, lower, upper: _ship(shipper, conn))
        _ship(shipper, conn, force=True)

    records = result.history.records
    return {
        "variant_id": spec.variant_id,
        "stop_reason": result.history.stop_reason,
        "iterations": result.history.iterations,
        "hpwl_upper": float(hpwl(netlist, result.upper)),
        "tail": {
            "iterations": [r.iteration for r in records],
            "series": {name: [float(getattr(r, name)) for r in records]
                       for name in TRACKED_SERIES},
        },
        "metrics": result.metrics.to_dict(),
        "placement": {"x": [float(v) for v in result.upper.x],
                      "y": [float(v) for v in result.upper.y]},
        "netlist": {"name": netlist.name, "cells": netlist.num_cells,
                    "nets": netlist.num_nets},
    }


def race_worker_entry(payload: dict[str, Any], conn) -> None:
    """Process target: run one variant, stream messages, exit."""
    worker_main(payload, conn, lambda: run_variant(payload, conn),
                "race variant "
                f"{payload.get('variant', {}).get('variant_id')}")
