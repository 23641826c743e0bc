"""Winner promotion: land the full portfolio in the runs registry.

Every variant — winner, other finishers, even crashes and errors — is
archived as its own run so a race is auditable after the fact.  The
winner's run directory additionally gets a
``promotion.json`` / ``promotion.md`` justification built from
:func:`repro.runs.diff_runs` comparisons against every rival, so "why
did this config win" is answered with series deltas, not vibes.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ..runs import RunRegistry, diff_runs
from ..telemetry import MetricsRegistry
from .controller import RaceResult, VariantOutcome

__all__ = ["promote"]


def _registry_for(outcome: VariantOutcome) -> MetricsRegistry:
    """The variant's metrics registry, tagged with its race outcome.

    A finished variant shipped its full registry back; a crashed or
    errored one has none and archives an empty registry.
    """
    registry = MetricsRegistry.from_dict(outcome.metrics) \
        if outcome.metrics is not None else MetricsRegistry()
    registry.meta["stop_reason"] = outcome.stop_reason \
        or registry.meta.get("stop_reason", "")
    registry.meta["race_variant"] = outcome.spec.variant_id
    registry.meta["race_status"] = outcome.status
    return registry


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def promote(result: RaceResult, registry_root: str, *,
            name: str = "race") -> dict[str, Any]:
    """Archive a race's portfolio; returns the promotion summary.

    The summary maps every variant to its run directory, carries the
    winner's id/run, and embeds the per-rival diff justification.
    """
    registry = RunRegistry(registry_root)
    registries: dict[str, MetricsRegistry] = {}
    run_dirs: dict[str, str] = {}

    for vid in sorted(result.outcomes):
        outcome = result.outcomes[vid]
        metrics = _registry_for(outcome)
        registries[vid] = metrics
        extra = {"race": dict(outcome.to_json(),
                              winner=(vid == result.winner))}
        # The merged race trace (one Chrome document spanning every
        # worker lane) lands with the winner, where auditors look.
        trace_doc = result.trace if vid == result.winner else None
        run_dirs[vid] = registry.capture(
            metrics, name=f"{name}-{vid}", manifest_extra=extra,
            trace_doc=trace_doc)

    justification: dict[str, Any] = {
        "winner": result.winner,
        "rounds": result.rounds,
        "wall_seconds": result.wall_seconds,
        "rivals": {},
    }
    lines = [f"# Race promotion: {result.winner or 'no winner'}", ""]
    if result.winner is not None:
        winner_metrics = registries[result.winner]
        winner_out = result.outcomes[result.winner]
        lines += [
            f"Winner `{result.winner}` finished in "
            f"{winner_out.iterations} iterations "
            f"(stop: {winner_out.stop_reason or 'n/a'}, "
            f"HPWL {winner_out.hpwl_upper:.6g})." if
            winner_out.hpwl_upper is not None else
            f"Winner `{result.winner}` finished in "
            f"{winner_out.iterations} iterations.",
            "",
        ]
        for vid in sorted(registries):
            if vid == result.winner:
                continue
            diff = diff_runs(winner_metrics, registries[vid],
                             label_a=result.winner, label_b=vid)
            justification["rivals"][vid] = {
                "status": result.outcomes[vid].status,
                "diff": diff.to_json(),
            }
            lines.append(f"## vs `{vid}` ({result.outcomes[vid].status})")
            lines.append("")
            lines.append("```")
            lines.append(diff.render())
            lines.append("```")
            lines.append("")

        winner_dir = run_dirs[result.winner]
        _write(os.path.join(winner_dir, "promotion.json"),
               json.dumps(justification, indent=2, sort_keys=True))
        _write(os.path.join(winner_dir, "promotion.md"),
               "\n".join(lines))

    return {
        "winner": result.winner,
        "winner_run_dir": run_dirs.get(result.winner or ""),
        "run_dirs": run_dirs,
        "justification": justification,
    }
