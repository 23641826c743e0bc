"""Command-line placer: Bookshelf in, placed Bookshelf out.

The front door for users with real designs::

    python -m repro place design.aux --out placed/ --gamma 0.9
    python -m repro place design.aux --placer simpl --svg layout.svg
    python -m repro generate adaptec1_s --scale 0.2 --out bench/
    python -m repro analyze design.aux

``place`` runs the full paper flow (ComPLx global placement →
legalization → detailed placement) and writes the placed design as a
new Bookshelf file set plus an optional SVG and quality report.
``generate`` materializes a synthetic suite as Bookshelf files.
``analyze`` prints the quality report for a design's ``.pl`` placement.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time

from . import telemetry
from .analysis import analyze_placement
from .core.config import ResilienceConfig
from .core.effort import effort_preset
from .detailed import DetailedPlacer
from .diagnostics import diagnose
from .experiments.common import make_placer
from .legalize import abacus_legalize, tetris_legalize
from .models import hpwl
from .netlist.bookshelf import BookshelfError, read_aux, write_aux
from .projection.grid import DensityGrid, default_grid_shape
from .report import build_report, record_stage_totals, render_html, \
    run_fingerprints, write_report
from .resilience import CheckpointError, legalize_with_fallback
from .runs import RunRegistry
from .viz import placement_svg
from .workloads import load_suite, suite_names

LEGALIZERS = {"tetris": tetris_legalize, "abacus": abacus_legalize}


def _add_place_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("aux", help="input .aux file")
    parser.add_argument("--out", default="placed",
                        help="output directory for the placed file set")
    parser.add_argument("--placer", default="complx",
                        help="placer: complx, complx_finest, complx_lse, "
                             "simpl, rql, fastplace, nonlinear, gordian")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="target density in (0, 1]")
    parser.add_argument("--effort", type=int, default=None,
                        metavar="1..9",
                        help="Coloquinte-style effort preset: one knob "
                             "filling in iteration/CG budgets, the "
                             "gap_tolerance finish line, and the "
                             "legalizer/DP defaults; explicit flags win")
    parser.add_argument("--legalizer", choices=sorted(LEGALIZERS),
                        default=None,
                        help="legalizer (default: abacus, or the "
                             "--effort preset's choice)")
    parser.add_argument("--skip-detailed", action="store_true",
                        help="stop after legalization (implied by "
                             "--effort levels whose preset skips DP)")
    parser.add_argument("--svg", default=None,
                        help="also write a placement plot to this path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check-invariants", action="store_true",
                        help="verify stage-boundary invariants while "
                             "placing and certify the legalized result "
                             "(slower; under the supervisor violations "
                             "become recoverable logged events)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="rollback/retry budget per faulted iteration")
    parser.add_argument("--deadline-seconds", type=float, default=None,
                        help="wall-clock budget for global placement; on "
                             "expiry the best-so-far placement is kept")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="write a resumable checkpoint every N "
                             "iterations (0 disables)")
    parser.add_argument("--checkpoint-path", default=None,
                        help="checkpoint file (default: "
                             "<out>/<design>.ckpt.npz)")
    parser.add_argument("--resume", default=None, metavar="CKPT",
                        help="resume global placement from a checkpoint "
                             "written by --checkpoint-every")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record tracing spans for the whole flow; "
                             ".jsonl writes one span per line, any other "
                             "extension writes Chrome trace format "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write the run's telemetry metrics "
                             "(per-iteration series, counters, gauges) "
                             "as JSON")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write a self-contained run report "
                             "(convergence charts, doctor findings, "
                             "stage times); .md renders Markdown, "
                             "anything else single-file HTML")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="archive the run (metrics, manifest, report, "
                             "trace) under DIR/<design>-NNNN/ for later "
                             "'python -m repro.runs diff'")


def _legalizer_chain(preferred: str) -> list[tuple[str, object]]:
    """Preferred legalizer first, tetris as the degraded fallback."""
    chain = [(preferred, LEGALIZERS[preferred])]
    if preferred != "tetris":
        chain.append(("tetris", tetris_legalize))
    return chain


def cmd_place(args: argparse.Namespace) -> int:
    """Place a Bookshelf design end to end (with optional telemetry)."""
    with contextlib.ExitStack() as stack:
        tracer = registry = None
        if args.trace or args.report or args.run_dir:
            tracer = stack.enter_context(telemetry.tracing())
        if args.metrics_json or args.report or args.run_dir:
            registry = stack.enter_context(telemetry.metrics())
        code = _place_flow(args)
    if registry is not None and args.metrics_json:
        registry.write_json(args.metrics_json)
        print(f"wrote {args.metrics_json}")
    if tracer is not None and args.trace:
        if args.trace.endswith(".jsonl"):
            tracer.write_jsonl(args.trace)
        else:
            tracer.write_chrome_trace(args.trace)
        print(f"wrote {args.trace}")
    return code


def _place_flow(args: argparse.Namespace) -> int:
    netlist, initial = read_aux(args.aux)
    print(f"loaded {netlist}")
    try:
        preset = (
            effort_preset(args.effort) if args.effort is not None else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    legalizer = args.legalizer or (
        preset.legalizer if preset is not None else "abacus"
    )
    skip_detailed = args.skip_detailed or (
        preset is not None and not preset.detailed
    )
    checkpoint_path = args.checkpoint_path
    if args.checkpoint_every > 0 and checkpoint_path is None:
        checkpoint_path = os.path.join(args.out, f"{netlist.name}.ckpt.npz")
        os.makedirs(args.out, exist_ok=True)
    resilience = ResilienceConfig(
        max_retries=args.max_retries,
        deadline_seconds=args.deadline_seconds,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    placer = make_placer(args.placer, netlist, gamma=args.gamma,
                         seed=args.seed,
                         check_invariants=args.check_invariants,
                         resilience=resilience,
                         effort=args.effort)
    if args.resume is not None and not hasattr(placer, "_run_iteration"):
        print(f"error: placer {args.placer!r} does not support --resume",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    if args.resume is not None:
        result = placer.place(resume_from=args.resume)
    else:
        result = placer.place()
    gp_seconds = time.perf_counter() - t0
    print(f"global placement: {result.history.summary()} "
          f"[{gp_seconds:.1f}s]")
    registry = telemetry.get_metrics()
    if registry is not None:
        # Adopt the run's per-iteration series next to the cross-stage
        # counters/gauges the solvers and legalizers recorded.
        registry.merge(result.metrics)
        registry.meta["netlist"] = netlist.name
        registry.meta["placer"] = args.placer
    resilience_report = getattr(result, "extras", {}).get("resilience")
    recovery_events = resilience_report["events"] if resilience_report else []
    if recovery_events:
        print(f"recovery: {resilience_report['summary']}")

    chain = _legalizer_chain(legalizer)
    t1 = time.perf_counter()
    if skip_detailed:
        final, used = legalize_with_fallback(
            netlist, result.upper, chain,
            check_invariants=args.check_invariants,
        )
        if used != legalizer:
            print(f"legalizer degraded: {legalizer} -> {used}")
    else:
        def chained_legalizer(nl, placement, check_invariants=False):
            legal, _ = legalize_with_fallback(
                nl, placement, chain, check_invariants=check_invariants,
            )
            return legal

        dp = DetailedPlacer(netlist, legalizer=chained_legalizer)
        final = dp.place(result.upper)
    print(f"legalization+DP: HPWL {hpwl(netlist, final):.1f} "
          f"[{time.perf_counter() - t1:.1f}s]")

    report = analyze_placement(netlist, final, gamma=args.gamma,
                               metrics=result.metrics)
    print(report.render())

    aux = write_aux(netlist, final, args.out,
                    design=f"{netlist.name}_placed")
    print(f"wrote {aux}")
    if args.svg:
        placement_svg(netlist, final, args.svg,
                      title=f"{netlist.name} ({args.placer})")
        print(f"wrote {args.svg}")

    if registry is not None and (args.report or args.run_dir):
        _emit_run_report(args, netlist, placer, final, registry,
                         recovery_events)
    return 0


def _emit_run_report(args, netlist, placer, final, registry,
                     recovery_events) -> None:
    """Render the run report and/or archive the run (place --report /
    --run-dir)."""
    tracer = telemetry.get_tracer()
    if tracer is not None:
        record_stage_totals(registry, tracer)
    if recovery_events:
        registry.meta["recovery_events"] = json.dumps(recovery_events)
    registry.meta.update(run_fingerprints(netlist,
                                          getattr(placer, "config", None)))
    bins = default_grid_shape(netlist.num_movable)
    grid = DensityGrid(netlist, bins, bins)
    density = grid.utilization(grid.usage(final), args.gamma)
    diagnosis = diagnose(registry, config=getattr(placer, "config", None),
                         recovery_events=recovery_events)
    run_report = build_report(
        registry, title=f"{netlist.name} ({args.placer})",
        diagnosis=diagnosis, density=density,
        recovery_events=recovery_events)
    if args.report:
        write_report(args.report, run_report)
        print(f"wrote {args.report}")
        if not diagnosis.ok:
            print(diagnosis.render())
    if args.run_dir:
        run_dir = RunRegistry(args.run_dir).capture(
            registry, name=netlist.name,
            report_html=render_html(run_report), tracer=tracer)
        print(f"captured {run_dir}")


def cmd_generate(args: argparse.Namespace) -> int:
    """Materialize a synthetic suite as Bookshelf files."""
    design = load_suite(args.suite, scale=args.scale)
    netlist = design.netlist
    placement = netlist.initial_placement()
    aux = write_aux(netlist, placement, args.out)
    print(f"generated {netlist}")
    print(f"wrote {aux}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Quality report for an existing placement."""
    netlist, placement = read_aux(args.aux)
    report = analyze_placement(netlist, placement, gamma=args.gamma)
    print(report.render())
    if args.report:
        registry = telemetry.MetricsRegistry()
        registry.meta["netlist"] = netlist.name
        registry.gauge("hpwl").set(report.hpwl)
        registry.gauge("density_overflow_percent").set(
            report.density.overflow_percent)
        registry.gauge("density_max_utilization").set(
            report.density.max_utilization)
        registry.gauge("net_hpwl_p95").set(report.net_lengths.p95)
        registry.gauge("legal").set(1.0 if report.legal else 0.0)
        bins = default_grid_shape(netlist.num_movable)
        grid = DensityGrid(netlist, bins, bins)
        density = grid.utilization(grid.usage(placement), args.gamma)
        write_report(args.report, build_report(
            registry, title=f"analysis: {netlist.name}", density=density))
        print(f"wrote {args.report}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # Forwarded verbatim to the service's own parser (lazy import:
        # the serve stack pulls in multiprocessing plumbing the other
        # commands never need).  argparse.REMAINDER mangles leading
        # dashed options, hence the manual dispatch.
        from .serve.__main__ import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "race":
        # Same manual dispatch for the racing runtime.
        from .race.__main__ import main as race_main

        return race_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ComPLx placement flows over Bookshelf designs.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="show library log messages "
                             "(-v info, -vv debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    place_parser = sub.add_parser(
        "place", help="place a Bookshelf design end to end")
    _add_place_args(place_parser)
    place_parser.set_defaults(func=cmd_place)

    gen_parser = sub.add_parser(
        "generate", help="write a synthetic suite as Bookshelf files")
    gen_parser.add_argument("suite", choices=suite_names())
    gen_parser.add_argument("--scale", type=float, default=0.2)
    gen_parser.add_argument("--out", default="generated")
    gen_parser.set_defaults(func=cmd_generate)

    analyze_parser = sub.add_parser(
        "analyze", help="quality report for a design's .pl placement")
    analyze_parser.add_argument("aux")
    analyze_parser.add_argument("--gamma", type=float, default=1.0)
    analyze_parser.add_argument("--report", default=None, metavar="PATH",
                                help="write a density/quality report "
                                     "(.md Markdown, else HTML)")
    analyze_parser.set_defaults(func=cmd_analyze)

    # Shown in --help only; "serve" and "race" are dispatched before
    # parsing above.
    sub.add_parser(
        "serve", help="run the placement job service "
                      "(python -m repro.serve for the full option set)")
    sub.add_parser(
        "race", help="race a config portfolio, each variant to its own "
                     "stop (python -m repro.race for the full option set)")

    args = parser.parse_args(argv)
    if args.verbose:
        level = logging.INFO if args.verbose == 1 else logging.DEBUG
        logging.basicConfig(
            level=level,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        logging.getLogger("repro").setLevel(level)
    try:
        return args.func(args)
    except (BookshelfError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
