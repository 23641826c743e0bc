"""Command-line front end: ``python -m repro.statcheck src/ --jobs 4``.

Exit status: 0 when no active (non-baselined) findings, 1 when findings
remain or files failed to parse, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import (
    Baseline,
    BaselineVersionError,
    apply_baseline,
)
from .cache import DEFAULT_CACHE
from .driver import analyze_paths
from .engine import all_rules, select_rules
from .reporters import render_json, render_text
from .sarif import render_sarif

__all__ = ["main"]

DEFAULT_BASELINE = "statcheck-baseline.json"


def _split_ids(raw: list[str]) -> list[str]:
    out: list[str] = []
    for chunk in raw:
        out.extend(part.strip() for part in chunk.split(",") if part.strip())
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="Placement-domain static lint for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--sarif", metavar="PATH", default=None,
                        help="additionally write a SARIF 2.1.0 report of "
                             "the active findings to PATH")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scan files with N worker processes "
                             "(default: 1, serial)")
    parser.add_argument("--cache", nargs="?", const=DEFAULT_CACHE,
                        default=None, metavar="PATH",
                        help="reuse per-file scan results from PATH "
                             f"(default path: {DEFAULT_CACHE})")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache (force a full re-scan)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE} "
                             "when it exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write all current findings to the baseline "
                             "file and exit 0")
    parser.add_argument("--enable", action="append", default=[],
                        metavar="IDS", help="only run these rule ids")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="IDS", help="skip these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            marker = "" if rule.allow_baseline else "  [no baseline]"
            scope = "project" if rule.scope == "project" else "module "
            print(f"{rule.id:3s} {scope} {rule.name:22s} "
                  f"{rule.description}{marker}")
        return 0

    enable = _split_ids(args.enable)
    disable = _split_ids(args.disable)
    try:
        rules = select_rules(enable=enable or None, disable=disable or None)
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    cache_path = None if args.no_cache else args.cache
    result = analyze_paths(
        args.paths,
        enable=enable or None,
        disable=disable or None,
        jobs=args.jobs,
        cache_path=cache_path,
    )
    findings, errors = result.findings, result.errors

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.write_baseline:
        Baseline.from_findings(findings).write(baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        non_baselinable = [
            f for f in findings
            if f.rule not in {r.id for r in rules if r.allow_baseline}
        ]
        for finding in non_baselinable:
            print(f"warning: {finding.rule} can not be baselined; "
                  f"still active: {finding.render()}")
        return 0

    baseline: Baseline | None = None
    if not args.no_baseline:
        if args.baseline is not None:
            try:
                baseline = Baseline.load(args.baseline)
            except (OSError, ValueError) as exc:
                parser.error(f"cannot load baseline {args.baseline}: {exc}")
        elif Path(DEFAULT_BASELINE).exists():
            try:
                baseline = Baseline.load(DEFAULT_BASELINE)
            except BaselineVersionError as exc:
                parser.error(str(exc))

    active, suppressed = apply_baseline(findings, baseline, rules)

    if args.sarif is not None:
        Path(args.sarif).write_text(render_sarif(active, rules, errors))

    if args.format == "sarif":
        print(render_sarif(active, rules, errors))
    elif args.format == "json":
        print(render_json(active, suppressed, errors, rules))
    else:
        print(render_text(active, suppressed, errors, rules))
    return 1 if active or errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
