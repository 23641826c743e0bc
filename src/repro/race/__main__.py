"""``python -m repro.race`` — race a config portfolio (or run the smoke).

Examples::

    python -m repro.race --cells 200 --seeds 1 2 3 --efforts 3 5 7
    python -m repro.race --suite small --efforts 1 5 9 --registry-root runs
    python -m repro.race --smoke --registry-root race-smoke-runs
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .controller import RaceController
from .portfolio import build_portfolio
from .promotion import promote


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.race",
        description="portfolio racing: run config variants concurrently, "
                    "each to its own stop, and promote the one with the "
                    "lowest feasible cost",
    )
    workload = parser.add_mutually_exclusive_group()
    workload.add_argument("--cells", type=int, default=200,
                          help="synthetic workload size (default 200)")
    workload.add_argument("--suite", default=None,
                          help="race a named workload-suite design instead")
    parser.add_argument("--workload-seed", type=int, default=7,
                        help="synthetic workload seed")
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="placer seeds to race (one variant each)")
    parser.add_argument("--efforts", type=int, nargs="*", default=[],
                        help="effort presets 1..9 to race (one each)")
    parser.add_argument("--set", dest="base_set", action="append",
                        default=[], metavar="KNOB=VALUE",
                        help="base config override folded into every "
                             "variant (repeatable)")
    parser.add_argument("--no-base", action="store_true",
                        help="do not race the unmodified base config")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="concurrent variant processes")
    parser.add_argument("--registry-root", default="race-runs",
                        help="run-registry root for winner promotion")
    parser.add_argument("--no-promote", action="store_true",
                        help="skip archiving the portfolio")
    parser.add_argument("--trace", action="store_true",
                        help="stream worker telemetry frames and merge "
                             "one Chrome trace for the whole race")
    parser.add_argument("--json", action="store_true",
                        help="print the race result as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="run the end-to-end self-test and exit")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _parse_sets(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set needs KNOB=VALUE, got {pair!r}")
        knob, raw = pair.split("=", 1)
        try:
            out[knob] = json.loads(raw)
        except json.JSONDecodeError:
            out[knob] = raw
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    if args.smoke:
        from .smoke import SmokeFailure, run_smoke

        try:
            return run_smoke(registry_root=args.registry_root,
                             trace=args.trace)
        except SmokeFailure as exc:
            print(f"race smoke FAILED: {exc}", file=sys.stderr)
            return 1

    if args.suite:
        workload = {"kind": "suite", "suite": args.suite}
    else:
        workload = {"kind": "synthetic", "num_cells": args.cells,
                    "seed": args.workload_seed}
    try:
        portfolio = build_portfolio(
            seeds=tuple(args.seeds),
            efforts=tuple(args.efforts),
            base_overrides=_parse_sets(args.base_set),
            include_base=not args.no_base,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    controller = RaceController(
        portfolio,
        workload=workload,
        max_workers=args.max_workers,
        trace=args.trace,
    )
    result = controller.execute()

    if not args.no_promote:
        summary = promote(result, args.registry_root)
        if result.winner:
            print(f"winner {result.winner} promoted to "
                  f"{summary['winner_run_dir']}")

    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        for vid, outcome in sorted(result.outcomes.items()):
            mark = "*" if vid == result.winner else " "
            detail = outcome.stop_reason or outcome.error or ""
            hpwl = f" hpwl={outcome.hpwl_upper:.6g}" \
                if outcome.hpwl_upper is not None else ""
            print(f"{mark} {vid:<16} {outcome.status:<9} "
                  f"iters={outcome.iterations:<4}{hpwl}  {detail}")
        print(f"rounds={result.rounds} wall={result.wall_seconds:.2f}s")
    return 0 if result.winner else 1


if __name__ == "__main__":
    sys.exit(main())
