"""The worker side of the service: one job attempt in one process.

:func:`worker_entry` is the ``multiprocessing.Process`` target.  It
rebuilds the netlist from the job's workload descriptor, runs the full
supervised placement flow, and streams progress events followed by a
single terminal message back over the pipe:

* ``("event", {...})`` — progress (stages, per-iteration updates),
* ``("result", {...})`` — success payload incl. metrics + report HTML,
* ``("error", {...})`` — a *deterministic* failure (bad workload,
  recovery exhausted); the runtime does not retry these, because the
  same inputs would fail the same way.

Crashes, injected faults and the terminal messages follow the crash
contract of :mod:`repro.serve.attempt`, whose :func:`worker_main`
wraps :func:`run_job`.  The ``serve.worker.*`` fault sites are fired by
the *parent* at dispatch (see :mod:`repro.serve.runtime`); the
payload's ``_inject`` entry is how the armed fault reaches this
process.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from .. import telemetry
from ..core import ComPLxConfig, ComPLxPlacer
from ..core.config import ResilienceConfig
# Imported here, not in run_job, so a forked worker inherits the flow
# (detailed placement, legalizers, doctor) instead of importing it on
# every job.
from ..flow import legalize_and_detail, run_report
from ..models import hpwl
from ..netlist import Netlist, Placement
from ..netlist.bookshelf import read_aux
from ..report import render_html
from ..resilience import RecoveryLog
from ..workloads import SyntheticSpec, generate, load_suite
from .attempt import worker_main
from .jobs import JobSpec

__all__ = ["build_netlist", "run_job", "worker_entry"]


def build_netlist(workload: dict[str, Any],
                  aux_root: str | None = None) -> Netlist:
    """Materialize the netlist a workload descriptor names."""
    kind = workload["kind"]
    if kind == "suite":
        design = load_suite(workload["suite"],
                            scale=float(workload.get("scale", 1.0)))
        return design.netlist
    if kind == "synthetic":
        fields = {key: value for key, value in workload.items()
                  if key not in ("kind", "name")}
        spec = SyntheticSpec(name=workload.get("name", "adhoc"), **fields)
        return generate(spec).netlist
    if kind == "aux":
        if aux_root is None:
            raise ValueError("aux workloads are disabled on this server")
        path = os.path.normpath(os.path.join(aux_root, workload["path"]))
        if not path.startswith(os.path.abspath(aux_root) + os.sep) \
                and path != os.path.abspath(aux_root):
            path = os.path.abspath(path)
            root = os.path.abspath(aux_root)
            if not path.startswith(root + os.sep):
                raise ValueError("aux path escapes the configured root")
        netlist, _ = read_aux(path)
        return netlist
    raise ValueError(f"unknown workload kind {kind!r}")


def _make_config(spec: JobSpec, tier: dict[str, Any]) -> ComPLxConfig:
    knobs: dict[str, Any] = {}
    if spec.effort is not None:
        from ..core.effort import effort_overrides
        knobs.update(effort_overrides(spec.effort))
    # Explicit config knobs win over the effort preset.
    knobs.update(spec.config)
    factor = float(tier.get("max_iterations_factor", 1.0))
    if factor < 1.0:
        base = int(knobs.get("max_iterations",
                             ComPLxConfig.max_iterations))
        knobs["max_iterations"] = max(int(base * factor), 1)
    knobs["resilience"] = ResilienceConfig(
        deadline_seconds=spec.deadline_seconds,
    )
    return ComPLxConfig(**knobs)


def run_job(payload: dict[str, Any],
            emit: Callable[[dict[str, Any]], None],
            ship: Callable[[dict[str, Any]], None] | None = None,
            ) -> dict[str, Any]:
    """Run one attempt end to end; returns the result message body.

    ``ship`` receives incremental telemetry frames when (and only when)
    the payload carries a trace context — a payload from a runtime with
    tracing disabled lacks the ``"trace"`` entry, the rebuilt context is
    None, and this function allocates nothing telemetry-frame-related.
    """
    spec = JobSpec(**payload["spec"])
    tier = payload.get("tier", {})
    trace_ctx = telemetry.TraceContext.from_wire(payload.get("trace"))
    netlist = build_netlist(spec.workload, payload.get("aux_root"))
    emit({"stage": "loaded", "cells": netlist.num_cells,
          "nets": netlist.num_nets})

    config = _make_config(spec, tier)
    with telemetry.tracing() as tracer, telemetry.metrics() as registry:
        placer = ComPLxPlacer(netlist, config)

        shipper = None
        if trace_ctx is not None and ship is not None:
            shipper = telemetry.TelemetryShipper(trace_ctx, tracer,
                                                 registry)

        def progress(k: int, lower: Placement, upper: Placement) -> None:
            emit({"stage": "iteration", "iteration": k,
                  "hpwl_upper": float(hpwl(netlist, upper))})
            if shipper is not None:
                frame = shipper.flush_frame()
                if frame is not None:
                    ship(frame)

        result = placer.place(callback=progress)
        emit({"stage": "global_done",
              "iterations": result.history.iterations,
              "stop_reason": result.history.stop_reason})

        legalizer = tier.get("legalizer") or spec.legalizer
        run_detailed = spec.detailed and not tier.get("skip_detailed")
        log = RecoveryLog()
        final, used_legalizer = legalize_and_detail(
            netlist, result.upper, legalizer, run_detailed, log=log,
        )
        emit({"stage": "legalized", "legalizer": used_legalizer})
        if run_detailed:
            emit({"stage": "detailed_done"})

        registry.merge(result.metrics)
        registry.meta["netlist"] = netlist.name
        registry.meta["tenant"] = spec.tenant
        registry.meta["job_id"] = spec.job_id
        resilience_report = result.extras.get("resilience") or {}
        recovery_events = (resilience_report.get("events", [])
                           + log.as_dicts())
        report = run_report(
            registry, netlist, config, final, tracer, gamma=config.gamma,
            title=f"{spec.tenant}/{spec.name} ({spec.job_id})",
            recovery_events=recovery_events,
        )
        emit({"stage": "doctor",
              "findings": [f.to_json() for f in report.diagnosis.findings]})
        if shipper is not None:
            frame = shipper.flush_frame(force=True)
            if frame is not None:
                ship(frame)

        body: dict[str, Any] = {
            "hpwl_legal": float(hpwl(netlist, final)),
            "hpwl_upper": float(hpwl(netlist, result.upper)),
            "iterations": result.history.iterations,
            "stop_reason": result.history.stop_reason,
            "legalizer": used_legalizer,
            "detailed": run_detailed,
            "netlist": {"name": netlist.name, "cells": netlist.num_cells,
                        "nets": netlist.num_nets},
            "recovery_events": recovery_events,
            "metrics": registry.to_dict(),
            "report_html": render_html(report),
        }
        if spec.include_placement:
            body["placement"] = {"x": [float(v) for v in final.x],
                                 "y": [float(v) for v in final.y]}
    return body


def worker_entry(payload: dict[str, Any], conn) -> None:
    """Process target: run one attempt, stream messages, exit."""
    def emit(event: dict[str, Any]) -> None:
        conn.send(("event", event))

    def ship(frame: dict[str, Any]) -> None:
        conn.send(("telemetry", frame))

    # ``run_job`` is resolved when the attempt runs, so a wrapper put on
    # the module global after import (a profiler's, say) still runs.
    worker_main(payload, conn, lambda: run_job(payload, emit, ship),
                f"job {payload.get('spec', {}).get('job_id')}")
