"""Size ladder for the gp-large operation (a reference table, not a workload).

    python3 perfbench/ladder.py [--seed 1]

Run it from the repository root.  It places one generated standard-cell
design per rung (600, 2,400 and 9,600 cells), with the layer
spans installed, and prints a Markdown table of per-layer seconds with
each layer's log-log slope across the rungs (seconds ~ cells^slope), so
a layer that scales worse than its neighbours shows before it dominates.
Work counts (global-placement and CG iterations) are listed with their
own slopes.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from design import DesignSpec  # noqa: E402
from workloads import CliWorkload, Sizes  # noqa: E402

#: Cells of the first rung; each of the ``RUNGS`` rungs has four times
#: the cells of the last.
BASE_CELLS = 600
RUNGS = 3

#: (row label, span name) in the order the table lists them.
ROWS = (
    ("netlist.read", "netlist.read"), ("core.place", "core.place"),
    ("core self", "core.place:self"), ("projection", "projection.project"),
    ("projection.lal", "projection.lal"),
    ("projection.shred", "projection.shred"), ("models.plan", "models.plan"),
    ("models.b2b", "models.b2b"), ("solvers.cg", "solvers.cg"),
    ("legalize.abacus", "legalize.abacus"),
    ("netlist.write", "netlist.write"),
)

#: Work counts, so a slope can be read as more work or slower work.
COUNTS = (("core.iterations (count)", "core.iterations"),
          ("solvers.cg_iterations (count)", "solvers.cg_iterations"))


def _slope(cells: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) on log(cells)."""
    xs = [math.log(c) for c in cells]
    ys = [math.log(max(s, 1e-9)) for s in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/ladder.py")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import repro.cli  # noqa: F401

    work = os.path.join(root, ".bench_work", f"ladder-{os.getpid()}")
    tracer = layers.Tracer(work)
    os.makedirs(work)
    layers.install(tracer)
    cells, table = [], []
    try:
        for rung in range(RUNGS):
            n = BASE_CELLS * 4 ** rung
            spec = DesignSpec(f"ladder{n}", cells=n, utilization=0.7)
            workload = CliWorkload("gp-large", [spec], 1.0,
                                   ["--skip-detailed"], False, Sizes(reads=1))
            workload.setup(os.path.join(work, str(n)), args.seed, True)
            tracer.reset()
            op = workload.operate(0)
            spans, counts = tracer.collect()
            selfs = layers.Tracer.self_times(spans)
            row = {"op": op.latency, **counts}
            for s in spans:
                row[s.name] = row.get(s.name, 0.0) + s.end - s.start
                if s.name == "core.place":
                    row["core.place:self"] = row.get("core.place:self", 0.0) \
                        + selfs[(s.pid, s.sid)]
            cells.append(n)
            table.append(row)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    head = " | ".join(f"{n} cells" for n in cells)
    print(f"| layer | {head} | slope |")
    print("|---|" + "---:|" * (len(cells) + 1))
    for label, key in (("operation", "op"),) + ROWS + COUNTS:
        values = [row.get(key, 0.0) for row in table]
        cols = " | ".join(f"{v:.3f}" for v in values)
        print(f"| {label} | {cols} | {_slope(cells, values):.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
