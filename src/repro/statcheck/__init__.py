"""Placement-domain static analysis: local AST rules (R1-R10) plus the
interprocedural D/T/G rule families on a project model.

Run as ``python -m repro.statcheck src/ --jobs 4``; see
``docs/static_analysis.md`` for the architecture, rule catalogue and
the baseline workflow.  The public API below is what the self-tests and
CI use.
"""

from .baseline import (
    Baseline,
    BaselineVersionError,
    apply_baseline,
    fingerprint_findings,
)
from .driver import AnalysisResult, analyze_paths, analyze_sources
from .engine import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    check_source,
    run_paths,
    select_rules,
)
from .project import FileSummary, ProjectModel, summarize
from .reporters import render_json, render_text
from .sarif import render_sarif, sarif_document

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineVersionError",
    "FileSummary",
    "Finding",
    "ModuleContext",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_sources",
    "apply_baseline",
    "check_source",
    "fingerprint_findings",
    "render_json",
    "render_sarif",
    "render_text",
    "run_paths",
    "sarif_document",
    "select_rules",
    "summarize",
]
