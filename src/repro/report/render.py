"""Run report assembly and rendering.

A :class:`RunReport` bundles everything one placement run produced —
the metrics registry, the doctor's diagnosis, an optional density
snapshot and the recovery timeline — and renders to a *single
self-contained* HTML file (charts embedded as inline SVG, style
inlined, zero external references) or to Markdown for terminals and
PR comments.

The renderers are deterministic: content depends only on the inputs
(no wall-clock timestamps, dictionaries walked in sorted order), so a
fixed-seed run regenerates a byte-identical report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import html
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..diagnostics import Diagnosis
from ..telemetry import MetricsRegistry, Tracer
from ..viz import (
    bar_chart_svg_str,
    heatmap_svg_str,
    histogram_svg_str,
    line_chart_svg_str,
)

__all__ = [
    "RunReport",
    "build_report",
    "record_stage_totals",
    "render_html",
    "render_markdown",
    "run_fingerprints",
    "write_report",
]

#: Convergence charts, in render order: (title, series names, log-y).
CHART_SPECS: tuple[tuple[str, tuple[str, ...], bool], ...] = (
    ("Objective bounds (weighted HPWL)", ("phi_lower", "phi_upper"), False),
    ("Lambda schedule", ("lam",), True),
    ("Pi: L1 distance to feasibility", ("pi",), True),
    ("Relative duality gap", ("duality_gap",), False),
    ("Density overflow (%)", ("overflow_percent",), False),
    ("CG iterations per solve", ("cg_solve_iterations",), False),
    ("CG residual history (last solve)", ("cg_last_residual_history",), True),
)

_SEVERITY_COLORS = {"info": "#1f77b4", "warning": "#b8860b",
                    "critical": "#d62728"}


def record_stage_totals(registry: MetricsRegistry, tracer: Tracer) -> None:
    """Fold the tracer's per-stage aggregate into stage gauges.

    Writes ``stage_<name>_total_s`` / ``stage_<name>_count`` gauges so
    stage-time bars survive into the metrics JSON and offline reports
    (``python -m repro.report``) can draw them without the trace file.
    """
    for name, stats in sorted(tracer.aggregate().items()):
        registry.gauge(f"stage_{name}_total_s").set(stats.total_s)
        registry.gauge(f"stage_{name}_count").set(float(stats.count))


def run_fingerprints(netlist, config) -> dict[str, str]:
    """Short stable digests identifying the design and the config.

    ``config`` may be None (a placer without one); the result then
    carries only ``netlist_fingerprint``.
    """
    digest = hashlib.sha256()
    digest.update(str((netlist.num_cells, netlist.num_nets)).encode())
    for array in (netlist.areas, netlist.widths, netlist.heights):
        digest.update(array.tobytes())
    out = {"netlist_fingerprint": digest.hexdigest()[:16]}
    if config is not None:
        try:
            doc = dataclasses.asdict(config)
        except TypeError:
            doc = {"repr": repr(config)}
        encoded = json.dumps(doc, sort_keys=True, default=str).encode()
        out["config_fingerprint"] = \
            hashlib.sha256(encoded).hexdigest()[:16]
    return out


@dataclass
class RunReport:
    """Everything the renderers need, already extracted."""

    title: str
    registry: MetricsRegistry
    diagnosis: Diagnosis | None = None
    density: np.ndarray | None = None  # utilization matrix (ny, nx)
    recovery_events: list[dict[str, Any]] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)


def build_report(
    registry: MetricsRegistry,
    title: str = "placement run",
    diagnosis: Diagnosis | None = None,
    density: np.ndarray | None = None,
    recovery_events: list[dict[str, Any]] | None = None,
) -> RunReport:
    """Assemble a :class:`RunReport`.

    ``recovery_events`` defaults to what the registry's meta carries
    (``repro.flow.run_report`` stores the run's event list there as
    JSON); the fingerprints are the meta's ``config_fingerprint`` /
    ``netlist_fingerprint`` digests.
    """
    if recovery_events is None:
        encoded = registry.meta.get("recovery_events", "")
        recovery_events = json.loads(encoded) if encoded else []
    return RunReport(
        title=title,
        registry=registry,
        diagnosis=diagnosis,
        density=density,
        recovery_events=recovery_events,
        fingerprints={key: value
                      for key, value in sorted(registry.meta.items())
                      if key.endswith("fingerprint")},
    )


# ----------------------------------------------------------------------
# shared extraction helpers
# ----------------------------------------------------------------------
def _charts(registry: MetricsRegistry) -> list[tuple[str, str]]:
    """(title, svg) pairs for every CHART_SPEC with recorded data."""
    out = []
    for title, names, logy in CHART_SPECS:
        present = {
            name: registry.series(name).as_array()
            for name in names
            if registry.has_series(name) and len(registry.series(name)) >= 2
        }
        if not present:
            continue
        first = names[0] if names[0] in present else next(iter(present))
        x = registry.series(first).iteration_array().astype(np.float64)
        out.append((title, line_chart_svg_str(
            present, title=title, width=560, height=300, logy=logy,
            x_values=x)))
    return out


def _stage_bars(registry: MetricsRegistry) -> str | None:
    """Stage-time bar chart from the ``stage_*_total_s`` gauges."""
    totals = []
    gauges = registry.gauges()
    for name in sorted(gauges):
        if name.startswith("stage_") and name.endswith("_total_s"):
            stage = name[len("stage_"):-len("_total_s")]
            totals.append((stage, gauges[name]))
    if not totals:
        return None
    totals.sort(key=lambda item: -item[1])
    totals = totals[:12]
    labels = [name for name, _ in totals]
    values = np.asarray([seconds for _, seconds in totals])
    return bar_chart_svg_str(labels, values, title="Stage wall time "
                             "(inclusive)", unit=" s")


def _displacement_histograms(registry: MetricsRegistry) \
        -> list[tuple[str, str]]:
    out = []
    gauges = registry.gauges()
    for name in sorted(registry.series_names()):
        if not name.endswith("_displacement_hist"):
            continue
        algorithm = name[len("legalize_"):-len("_displacement_hist")]
        counts = registry.series(name).as_array()
        lo = gauges.get(f"legalize_{algorithm}_hist_lo_um", 0.0)
        hi = gauges.get(f"legalize_{algorithm}_hist_hi_um", 0.0)
        out.append((algorithm, histogram_svg_str(
            counts, lo, hi, title=f"Legalizer displacement ({algorithm})",
            unit=" um")))
    return out


def _scalar_rows(values: dict[str, float]) -> list[tuple[str, str]]:
    return [(name, f"{value:.6g}") for name, value in sorted(values.items())]


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 1200px;
       color: #222; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; color: #1f77b4; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: left;
         font-size: 0.9em; }
th { background: #f0f4f8; }
.charts { display: flex; flex-wrap: wrap; gap: 1em; }
.charts figure { margin: 0; }
.finding { border-left: 4px solid; padding: 0.4em 0.8em; margin: 0.6em 0;
           background: #fafafa; }
.finding ul { margin: 0.3em 0 0 0; }
.ok { color: #2ca02c; font-weight: bold; }
code { background: #f0f0f0; padding: 0 0.25em; }
"""


def render_html(report: RunReport) -> str:
    """The single-file HTML report."""
    registry = report.registry
    esc = html.escape
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(report.title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{esc(report.title)}</h1>",
    ]

    # --- run summary ------------------------------------------------
    meta = {k: v for k, v in sorted(registry.meta.items())
            if k != "recovery_events"}
    if meta or report.fingerprints:
        parts.append("<h2>Run</h2><table>")
        for key, value in sorted({**meta, **report.fingerprints}.items()):
            parts.append(f"<tr><th>{esc(key)}</th>"
                         f"<td><code>{esc(str(value))}</code></td></tr>")
        parts.append("</table>")

    # --- doctor -----------------------------------------------------
    if report.diagnosis is not None:
        parts.append("<h2>Convergence doctor</h2>")
        if report.diagnosis.ok:
            checked = ", ".join(report.diagnosis.rules_checked)
            parts.append(f'<p class="ok">No findings '
                         f"({len(report.diagnosis.rules_checked)} detectors "
                         f"checked: {esc(checked)}).</p>")
        for finding in (report.diagnosis.findings if report.diagnosis
                        else []):
            color = _SEVERITY_COLORS.get(finding.severity, "#888")
            where = ""
            if finding.iteration_range is not None:
                lo, hi = finding.iteration_range
                where = f" <em>[iterations {lo}&ndash;{hi}]</em>"
            parts.append(
                f'<div class="finding" style="border-color:{color}">'
                f"<strong>{esc(finding.severity.upper())} "
                f"{esc(finding.rule)} {esc(finding.name)}</strong>: "
                f"{esc(finding.summary)}{where}")
            if finding.suggestions:
                parts.append("<ul>")
                parts.extend(f"<li>try: {esc(s)}</li>"
                             for s in finding.suggestions)
                parts.append("</ul>")
            parts.append("</div>")

    # --- convergence charts -----------------------------------------
    charts = _charts(registry)
    if charts:
        parts.append('<h2>Convergence</h2><div class="charts">')
        parts.extend(f"<figure>{svg}</figure>" for _, svg in charts)
        parts.append("</div>")

    # --- stages and memory ------------------------------------------
    bars = _stage_bars(registry)
    if bars:
        parts.append(f"<h2>Stage timing</h2>{bars}")
    mem_rows = [(name, value) for name, value in
                sorted(registry.gauges().items())
                if name.startswith("mem_")]
    if mem_rows:
        parts.append("<h2>Memory</h2><table><tr><th>gauge</th>"
                     "<th>MiB</th></tr>")
        parts.extend(f"<tr><td>{esc(name)}</td><td>{value:.1f}</td></tr>"
                     for name, value in mem_rows)
        parts.append("</table>")

    # --- density heatmap --------------------------------------------
    if report.density is not None:
        parts.append("<h2>Density utilization</h2>")
        parts.append(heatmap_svg_str(
            report.density, title="bin utilization (red = over target)",
            vmax=max(1.0, float(np.max(report.density)))))

    # --- displacement histograms ------------------------------------
    histograms = _displacement_histograms(registry)
    if histograms:
        parts.append('<h2>Legalization</h2><div class="charts">')
        parts.extend(f"<figure>{svg}</figure>" for _, svg in histograms)
        parts.append("</div>")

    # --- recovery timeline ------------------------------------------
    if report.recovery_events:
        parts.append("<h2>Recovery timeline</h2><table>"
                     "<tr><th>#</th><th>iteration</th><th>fault</th>"
                     "<th>action</th><th>detail</th></tr>")
        for i, event in enumerate(report.recovery_events):
            parts.append(
                f"<tr><td>{i}</td>"
                f"<td>{esc(str(event.get('iteration', '')))}</td>"
                f"<td>{esc(str(event.get('fault', '')))}</td>"
                f"<td>{esc(str(event.get('action', '')))}</td>"
                f"<td>{esc(str(event.get('detail', '')))}</td></tr>")
        parts.append("</table>")

    # --- raw scalars ------------------------------------------------
    for heading, values in (("Counters", registry.counters()),
                            ("Gauges", registry.gauges())):
        if not values:
            continue
        parts.append(f"<h2>{heading}</h2><table><tr><th>name</th>"
                     "<th>value</th></tr>")
        parts.extend(f"<tr><td>{esc(name)}</td><td>{text}</td></tr>"
                     for name, text in _scalar_rows(values))
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(report: RunReport) -> str:
    """Markdown digest (no charts) for terminals and PR comments."""
    registry = report.registry
    lines = [f"# {report.title}", ""]
    meta = {k: v for k, v in sorted(registry.meta.items())
            if k != "recovery_events"}
    combined = {**meta, **report.fingerprints}
    if combined:
        lines += ["| key | value |", "| --- | --- |"]
        lines += [f"| {k} | `{v}` |" for k, v in sorted(combined.items())]
        lines.append("")
    if report.diagnosis is not None:
        lines.append("## Convergence doctor")
        lines.append("")
        if report.diagnosis.ok:
            lines.append("No findings.")
        else:
            for finding in report.diagnosis.findings:
                lines.append(f"- **{finding.severity.upper()} "
                             f"{finding.rule} {finding.name}**: "
                             f"{finding.summary}")
                lines.extend(f"    - try: {s}" for s in finding.suggestions)
        lines.append("")
    final_rows = []
    for name in registry.series_names():
        series = registry.series(name)
        if len(series) and not name.endswith("_hist"):
            final_rows.append((name, len(series), series.last))
    if final_rows:
        lines += ["## Series finals", "", "| series | points | final |",
                  "| --- | ---: | ---: |"]
        lines += [f"| {name} | {count} | {value:.6g} |"
                  for name, count, value in sorted(final_rows)]
        lines.append("")
    for heading, values in (("Counters", registry.counters()),
                            ("Gauges", registry.gauges())):
        if not values:
            continue
        lines += [f"## {heading}", "", "| name | value |", "| --- | ---: |"]
        lines += [f"| {name} | {text} |"
                  for name, text in _scalar_rows(values)]
        lines.append("")
    if report.recovery_events:
        lines += ["## Recovery timeline", ""]
        lines += [f"- iteration {event.get('iteration', '?')}: "
                  f"{event.get('fault', '?')} -> "
                  f"{event.get('action', '?')}"
                  for event in report.recovery_events]
        lines.append("")
    return "\n".join(lines)


def write_report(path: str, report: RunReport) -> str:
    """Write the report; ``.md``/``.markdown`` renders Markdown,
    anything else the single-file HTML."""
    lower = path.lower()
    if lower.endswith((".md", ".markdown")):
        document = render_markdown(report)
    else:
        document = render_html(report)
    with open(path, "w") as handle:
        handle.write(document)
    return path
