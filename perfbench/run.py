"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload flow-mixed --seed 1 --seconds 20 \\
        --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing of the benchmark's tracing installed; ``--trace 1``
wraps every layer and reports the per-layer metrics, per operation, and
writes ``.bench_work/trace-<workload>.json`` (Chrome trace format).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

The lines before it list every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, OpResult, Sizes, Workload  # noqa: E402

#: (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = (
    ("setup_s", "s"), ("latency_s", "s"), ("cpu_s", "s"),
    ("ops_per_s", "1/s"), ("hpwl", "design_units"),
    ("scaled_hpwl", "design_units"), ("peak_rss_mb", "MB"),
)

#: (name, unit, how): ``("span", n)`` total seconds of span ``n``,
#: ``("self", n)`` its self time, ``("calls", n)`` how many there were,
#: ``("count", key)`` a counter, ``("op", key)`` a value each operation
#: reported, ``("ratio", a, b)`` counter ``a`` over counter ``b``.
PER_LAYER = (
    ("netlist.read_s", "s", ("span", "netlist.read")),
    ("netlist.write_s", "s", ("span", "netlist.write")),
    ("core.place_s", "s", ("span", "core.place")),
    ("core.iterations", "count", ("count", "core.iterations")),
    ("core.self_s", "s", ("self", "core.place")),
    ("projection.time_s", "s", ("span", "projection.project")),
    ("projection.calls", "count", ("calls", "projection.project")),
    ("projection.lal_s", "s", ("span", "projection.lal")),
    ("projection.shred_s", "s", ("span", "projection.shred")),
    ("models.plan_s", "s", ("span", "models.plan")),
    ("models.b2b_s", "s", ("span", "models.b2b")),
    ("models.b2b_calls", "count", ("calls", "models.b2b")),
    ("models.hpwl_s", "s", ("span", "models.hpwl")),
    ("solvers.cg_s", "s", ("span", "solvers.cg")),
    ("solvers.cg_solves", "count", ("calls", "solvers.cg")),
    ("solvers.cg_iterations", "count", ("count", "solvers.cg_iterations")),
    ("legalize.abacus_s", "s", ("span", "legalize.abacus")),
    ("legalize.tetris_s", "s", ("span", "legalize.tetris")),
    ("legalize.calls", "count", ("calls", "legalize.abacus",
                                 "legalize.tetris")),
    ("legalize.fallbacks", "count", ("count", "legalize.fallbacks")),
    ("detailed.time_s", "s", ("span", "detailed.place")),
    ("detailed.swap_s", "s", ("span", "detailed.swap")),
    ("detailed.reorder_s", "s", ("span", "detailed.reorder")),
    ("detailed.shift_s", "s", ("span", "detailed.shift")),
    ("detailed.trials", "count", ("count", "detailed.trials")),
    ("detailed.moves", "count", ("count", "detailed.moves")),
    ("detailed.accept_ratio", "ratio",
     ("ratio", "detailed.moves", "detailed.trials")),
    ("serve.submit_s", "s", ("op", "serve.submit_s")),
    ("serve.queue_wait_s", "s", ("op", "serve.queue_wait_s")),
    ("serve.run_s", "s", ("op", "serve.run_s")),
    ("serve.notify_s", "s", ("op", "serve.notify_s")),
    ("serve.result_s", "s", ("op", "serve.result_s")),
    ("serve.result_bytes", "bytes", ("op", "serve.result_bytes")),
    ("serve.attempts", "count", ("op", "serve.attempts")),
    ("runs.capture_s", "s", ("span", "runs.capture")),
    ("runs.captures", "count", ("calls", "runs.capture")),
    ("runs.bytes", "bytes", ("count", "runs.bytes")),
    ("race.execute_s", "s", ("span", "race.execute")),
    ("race.promote_s", "s", ("span", "race.promote")),
    ("race.variants", "count", ("op", "race.variants")),
    ("race.kills", "count", ("op", "race.kills")),
    ("race.rounds", "count", ("op", "race.rounds")),
    ("race.retries", "count", ("op", "race.retries")),
    ("race.useful_ratio", "ratio", ("op", "race.useful_ratio")),
)


def _cpu() -> float:
    """CPU seconds of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident MB of this process plus that of its largest reaped
    worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _tree_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: Workload, seconds: float, seed: int, work: str,
        tracer: "layers.Tracer | None") -> dict:
    """Set up, run whole rounds for ``seconds``, check; returns a summary.

    The summary's ``wrong`` is the first wrong output the checks found
    (the run stops after that round), or None.
    """
    workload.tracer = tracer
    setup = workload.setup(work, seed, tracer is not None)
    if tracer is not None:
        tracer.reset()
    archived = _tree_bytes(workload.registry)
    ops: list[OpResult] = []
    attempted = rounds = 0
    rss = 0.0
    cpu0 = _cpu()
    start = time.perf_counter()
    while True:
        done = workload.operate_round(attempted)
        attempted += len(done)
        rounds += 1
        ops += [op for op in done if op is not None]
        if rounds == workload.rss_rounds:
            rss = _peak_rss_mb()
        if workload.wrong or (rounds >= workload.rss_rounds and
                              time.perf_counter() - start >= seconds):
            break
    elapsed = time.perf_counter() - start
    cpu = _cpu() - cpu0
    summary = {"ops": ops, "attempted": attempted,
               "failed": attempted - len(ops) - len(workload.wrong),
               "wrong": None}
    if not workload.wrong:
        try:
            workload.finish()
            _check_repeats(workload, ops)
        except checks.CheckFailure as exc:
            workload.wrong.append(str(exc))
    if workload.wrong:
        summary["wrong"] = workload.wrong[0]
        return summary
    if not ops:
        raise RuntimeError(f"all {attempted} operations failed")

    quality = [_majority(values) for values in _by_input(ops).values()]
    n = len(ops)
    summary["bytes"] = _tree_bytes(workload.registry) - archived
    summary["end_to_end"] = {
        "setup_s": (statistics.median(setup), len(setup)),
        "latency_s": (statistics.median(o.latency for o in ops), n),
        "cpu_s": (cpu / n, n),
        "ops_per_s": (n / elapsed, n),
        "hpwl": (statistics.fmean(q[0] for q in quality), n),
        "scaled_hpwl": (statistics.fmean(q[1] for q in quality), n),
        "peak_rss_mb": (rss, 1),
    }
    return summary


def _by_input(ops: list[OpResult]) -> dict:
    """``(hpwl, scaled)`` of every operation, by input."""
    by_key: dict = {}
    for op in ops:
        by_key.setdefault(op.key, []).append((op.hpwl, op.scaled))
    return by_key


def _check_repeats(workload: Workload, ops: list[OpResult]) -> None:
    """Each input of a deterministic workload gives one HPWL every time."""
    if workload.deterministic:
        for key, values in _by_input(ops).items():
            if len(set(values)) > 1:
                raise checks.CheckFailure(
                    f"input {key!r} gave HPWLs {sorted(set(values))}")


def _majority(values: list[tuple[float, float]]) -> tuple[float, float]:
    """The value most operations of one input gave; a tie goes to the
    lower HPWL."""
    counts = collections.Counter(values)
    return min(counts, key=lambda value: (-counts[value], value))


def per_layer(spans, counts, ops: list[OpResult]) -> dict[str, float]:
    """Every per-layer metric, per operation."""
    n = len(ops)
    table = {row[0]: row[1:] for row in layers.layer_table(spans)}
    out = {}
    for name, _, how in PER_LAYER:
        kind = how[0]
        if kind == "span":
            value = table.get(how[1], (0, 0.0, 0.0))[1] / n
        elif kind == "self":
            value = table.get(how[1], (0, 0.0, 0.0))[2] / n
        elif kind == "calls":
            value = sum(table.get(span, (0,))[0] for span in how[1:]) / n
        elif kind == "count":
            value = sum(counts.get(key, 0) for key in how[1:]) / n
        elif kind == "op":
            value = sum(op.layer.get(how[1], 0.0) for op in ops) / n
        else:
            value = counts.get(how[1], 0) / max(counts.get(how[2], 0), 1)
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Import every module whose functions the traced run wraps, so the
    # wrappers reach all the names they were imported under.
    import repro.cli  # noqa: F401
    import repro.race.controller  # noqa: F401
    import repro.race.promotion  # noqa: F401
    import repro.serve.api  # noqa: F401
    import repro.serve.worker  # noqa: F401

    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = None
    if args.trace:
        tracer = layers.Tracer(os.path.join(work, "spill"))
        os.makedirs(tracer.spill_dir)
        layers.install(tracer)
    workload = WORKLOADS[args.workload](Sizes())
    try:
        summary = run(workload, args.seconds, args.seed, work, tracer)
        if tracer is not None and summary["wrong"] is None:
            spans, counts = tracer.collect()
    except checks.CheckFailure as exc:
        # Only serve-small's set-up runs an operation: its first job.
        summary = {"attempted": 1, "failed": 0, "wrong": str(exc)}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    if summary["wrong"] is not None:
        print(f"perfbench: {args.workload}: wrong output: "
              f"{summary['wrong']}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": summary["attempted"],
                          "failed": summary["failed"], "metrics": {}}))
        return 1

    ops = summary["ops"]
    metrics: dict[str, dict] = {}
    if tracer is None:
        for name, unit in END_TO_END:
            value, samples = summary["end_to_end"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<22} {value:>14.6g} {unit:<13} samples={samples}")
    else:
        counts["runs.bytes"] = summary["bytes"]
        values = per_layer(spans, counts, ops)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<22} {values[name]:>14.6g} {unit:<6} per op, "
                  f"ops={len(ops)}")
        print(f"{'span':<22} {'count':>7} {'total_s':>12} {'self_s':>12}")
        for name, count, total, own in layers.layer_table(spans):
            print(f"{name:<22} {count:>7} {total:>12.4f} {own:>12.4f}")
        latency = statistics.median(o.latency for o in ops)
        print(f"traced latency_s {latency:.6g} s samples={len(ops)}")
        tracer.write_chrome(os.path.join(base, f"trace-{args.workload}.json"),
                            spans)
    print(json.dumps({"correct": True, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
