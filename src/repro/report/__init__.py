"""Self-contained run reports: one HTML (or Markdown) file per run.

The report bundles what the flight recorder captured — convergence
curves, stage-time bars, the density heatmap, displacement histograms,
the convergence doctor's findings, fingerprints and the recovery
timeline — into a single file with every chart embedded as inline SVG
(rendered by :mod:`repro.viz`; no matplotlib, no external assets).

In-process::

    from repro.diagnostics import diagnose
    from repro.report import build_report, write_report

    report = build_report(result.metrics, title="my run",
                          diagnosis=diagnose(result.metrics, config=config))
    write_report("run.html", report)

Offline, from a saved ``--metrics-json`` file::

    python -m repro.report run.metrics.json --out run.html

The ``place``/``analyze`` CLI wires this up via ``--report PATH``.
"""

from .render import (
    RunReport,
    build_report,
    record_stage_totals,
    render_html,
    render_markdown,
    run_fingerprints,
    write_report,
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
