"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

A fast mode runs every workload once on tiny inputs with every check on
(traced, so the per-layer metrics are exercised too), and each check is
shown to reject a broken output.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from design import DesignSpec, generate, read_pl, write_bookshelf  # noqa: E402
from workloads import (WORKLOADS, CliWorkload, OpResult, Sizes,  # noqa: E402
                       Workload)

TINY = Sizes(flow_cells=60, flow_macros=2, gp_cells=120, serve_cells=40,
             race_cells=80, flow_designs=2, gp_designs=2, serve_designs=2,
             race_designs=1, reads=1, serve_setups=1)

#: Per-layer metrics that must be non-zero on each workload.
LAYERS_ON = {
    "flow-mixed": ["netlist.read_s", "netlist.write_s", "core.place_s",
                   "core.iterations", "core.self_s", "projection.time_s",
                   "projection.lal_s", "projection.shred_s", "models.b2b_s",
                   "solvers.cg_iterations", "legalize.abacus_s",
                   "detailed.time_s", "detailed.swap_s", "detailed.reorder_s",
                   "detailed.shift_s", "detailed.trials", "detailed.moves"],
    "gp-large": ["netlist.read_s", "core.place_s", "models.plan_s",
                 "solvers.cg_s", "legalize.abacus_s", "legalize.calls"],
    "serve-small": ["netlist.read_s", "core.place_s", "models.hpwl_s",
                    "legalize.abacus_s", "serve.submit_s", "serve.run_s",
                    "serve.result_bytes", "serve.attempts", "runs.capture_s",
                    "runs.captures", "runs.bytes"],
    "race-portfolio": ["core.place_s", "projection.lal_s", "solvers.cg_s",
                       "runs.capture_s", "runs.bytes", "race.execute_s",
                       "race.promote_s", "race.variants", "race.rounds",
                       "race.useful_ratio"],
}


@pytest.fixture(scope="module")
def tracer(tmp_path_factory):
    import repro.cli  # noqa: F401
    import repro.race.controller  # noqa: F401
    import repro.race.promotion  # noqa: F401
    import repro.serve.api  # noqa: F401
    import repro.serve.worker  # noqa: F401

    spill = tmp_path_factory.mktemp("spill")
    tracer = layers.Tracer(str(spill))
    layers.install(tracer)
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fast_mode(name, tracer, tmp_path):
    workload = WORKLOADS[name](TINY)
    try:
        summary = run.run(workload, 0.0, 3, str(tmp_path), tracer)
        spans, counts = tracer.collect()
    finally:
        workload.close()
    assert summary["wrong"] is None and summary["attempted"] >= 1
    # flow-mixed's fault design fails once a round; nothing else fails.
    rounds = summary["attempted"] // workload.round()
    assert summary["failed"] == (rounds if name == "flow-mixed" else 0)
    for metric, (value, samples) in summary["end_to_end"].items():
        assert value > 0 and samples >= 1, metric
    e2e = summary["end_to_end"]
    assert e2e["scaled_hpwl"][0] >= e2e["hpwl"][0]
    counts["runs.bytes"] = summary["bytes"]
    values = run.per_layer(spans, counts, summary["ops"])
    assert set(values) == {name for name, _, _ in run.PER_LAYER}
    missing = [m for m in LAYERS_ON[name] if not values[m] > 0]
    assert not missing
    # Spans carry the operation they ran in: in the benchmark's own thread,
    # or in a serve worker.  The service's own threads run for no one.
    traced = {s.op for s in spans if s.pid != os.getpid()
              or s.tid == threading.get_ident()}
    assert traced == set(range(summary["attempted"]))


class _Scripted(Workload):
    """Operation 1 gives a wrong output, operation 2 fails."""

    def setup(self, work, seed, trace):
        return [0.5]

    def round(self):
        return 4

    def operate(self, index):
        if index % 4 == 1:
            raise checks.CheckFailure("wrong placement")
        if index % 4 == 2:
            raise RuntimeError("the program failed")
        return OpResult(0.1, 10.0, 11.0, key=index)


def test_a_wrong_output_ends_the_run_with_its_real_counts(tmp_path):
    summary = run.run(_Scripted(TINY), 60.0, 1, str(tmp_path), None)
    assert summary["wrong"] == "wrong placement"
    assert (summary["attempted"], summary["failed"]) == (4, 1)


def test_hpwl_of_an_input_is_the_value_most_operations_gave():
    a, b, c = (1.0, 1.5), (2.0, 2.5), (3.0, 3.5)
    assert run._majority([c, a, b, c, a]) == a      # tie: lower HPWL
    assert run._majority([b, c, c]) == c


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "gp-large", "--seed", "1",
                     "--seconds", "1"]) == 2


def test_design_round_trips_exactly(tmp_path):
    """The program reads back exactly the design the benchmark holds."""
    from repro.netlist.bookshelf import read_aux

    design = generate(DesignSpec("rt", cells=50, macros=2), 4)
    netlist, placement = read_aux(write_bookshelf(design, str(tmp_path)))
    assert netlist.cell_names == design.names
    assert np.array_equal(netlist.widths, design.widths)
    assert np.array_equal(netlist.pin_cell, design.pin_cell)
    assert np.array_equal(netlist.pin_dx, design.pin_dx)
    assert np.array_equal(netlist.pin_dy, design.pin_dy)
    assert np.array_equal(placement.x, design.x)
    assert np.array_equal(generate(design.spec, 4).pin_dx, design.pin_dx)


@pytest.fixture(scope="module")
def placed(tmp_path_factory):
    """A real detailed placement and history from the flow workload."""
    work = tmp_path_factory.mktemp("placed")
    workload = CliWorkload("flow", [DesignSpec("f", cells=60, macros=2,
                                               fixed_macros=True)],
                           0.8, [], True, TINY)
    workload.setup(str(work), 5, False)
    result = workload.operate(0)
    design, _ = workload.designs[0]
    x, y = read_pl(design, os.path.join(str(work), "placed", "op0",
                                        "f_placed.pl"))
    return design, x, y, result, workload.history


def test_legal_placement_passes(placed):
    design, x, y, result, _ = placed
    checks.check_legal(design, x, y, on_sites=True)
    assert checks.hpwl(design, x, y) == result.hpwl


def test_rejects_overlapping_cells(placed):
    design, x, y, _, _ = placed
    std = np.flatnonzero(design.movable & ~design.is_macro)
    a, b = std[0], std[1]
    x2, y2 = x.copy(), y.copy()
    x2[b] = x2[a] + 0.5          # same row, half a site apart
    y2[b] = y2[a]
    with pytest.raises(checks.CheckFailure, match="overlap"):
        checks.check_legal(design, x2, y2, on_sites=False)


def test_rejects_a_cell_off_its_row(placed):
    design, x, y, _, _ = placed
    cell = int(np.flatnonzero(design.movable & ~design.is_macro)[0])
    y2 = y.copy()
    y2[cell] += 0.25
    with pytest.raises(checks.CheckFailure, match="off its row"):
        checks.check_legal(design, x, y2, on_sites=False)


def test_rejects_a_cell_off_its_site(placed):
    design, x, y, _, _ = placed
    cell = int(np.flatnonzero(design.movable & ~design.is_macro)[0])
    x2 = x.copy()
    x2[cell] += 0.3
    with pytest.raises(checks.CheckFailure):
        checks.check_legal(design, x2, y, on_sites=True)


def test_rejects_a_cell_on_a_fixed_macro(placed):
    design, x, y, _, _ = placed
    assert not design.movable[design.is_macro].any()
    cell = int(np.flatnonzero(design.movable)[0])
    x2, y2 = x.copy(), y.copy()
    x2[cell] = design.x[0]                  # centered on macro m0's row 0
    y2[cell] = design.y[0] - 0.5 * design.heights[0] + 0.5
    with pytest.raises(checks.CheckFailure, match="macro m0 overlaps"):
        checks.check_legal(design, x2, y2, on_sites=False)


def test_rejects_a_moved_fixed_cell(placed):
    design, x, y, _, _ = placed
    x2 = x.copy()
    x2[int(np.flatnonzero(~design.movable)[0])] += 1.0
    with pytest.raises(checks.CheckFailure, match="moved"):
        checks.check_legal(design, x2, y, on_sites=True)


def test_rejects_a_wrong_reported_hpwl(placed):
    design, x, y, result, _ = placed
    checks.check_reported_hpwl(result.hpwl, checks.hpwl(design, x, y))
    with pytest.raises(checks.CheckFailure, match="reported HPWL"):
        checks.check_reported_hpwl(result.hpwl + 1.0,
                                   checks.hpwl(design, x, y))
    with pytest.raises(checks.CheckFailure):
        checks.check_reported_hpwl(round(result.hpwl, 1) + 0.1,
                                   result.hpwl, abs_tol=0.06)


def test_rejects_phi_lower_above_phi_upper(placed):
    lower, upper, lam = (list(s) for s in placed[4])
    assert checks.check_history(lower, upper, lam, "ok") == len(lower) > 2
    lower[2] = upper[2] * (1 + 1e-12)
    with pytest.raises(checks.CheckFailure, match="Phi_lower > Phi_upper"):
        checks.check_history(lower, upper, lam, "broken")


def test_rejects_a_lambda_step_above_two(placed):
    lower, upper, lam = (list(s) for s in placed[4])
    lam[2] = 2.0 * lam[1] * 1.001
    with pytest.raises(checks.CheckFailure, match="more than 2x"):
        checks.check_history(lower, upper, lam, "broken")


def test_rejects_a_killed_race_winner():
    checks.check_winner("base", "finished", {"s11"})
    with pytest.raises(checks.CheckFailure, match="did not finish"):
        checks.check_winner("s11", "finished", {"s11"})
    with pytest.raises(checks.CheckFailure):
        checks.check_winner("s11", "killed", set())


def test_rejects_a_retried_or_degraded_job():
    job = {"job_id": "j-1", "state": "succeeded", "attempts": 1,
           "tier": "full"}
    checks.check_job(job)
    for broken in ({"attempts": 2}, {"tier": "reduced"}):
        with pytest.raises(checks.CheckFailure):
            checks.check_job({**job, **broken})


def test_scaled_hpwl_adds_one_percent_per_percent_overflow():
    design = generate(DesignSpec("s", cells=30, pads=4), 1)
    x, y = design.x.copy(), design.y.copy()
    cells = np.flatnonzero(design.movable)
    x[cells], y[cells] = 5.0, 5.5      # everything piled into one bin
    scaled, percent = checks.scaled_hpwl(design, x, y, 1.0)
    area = float((design.widths * design.heights)[cells].sum())
    assert percent == pytest.approx(100.0 * (area - 100.0) / area)
    assert scaled == pytest.approx(checks.hpwl(design, x, y)
                                   * (1 + percent / 100.0))


def test_rejects_a_reported_overflow_that_lowers_scaled_hpwl():
    checks.check_overflow(0.0)
    checks.check_overflow(3.25)
    for broken in (-0.01, float("nan")):
        with pytest.raises(checks.CheckFailure, match="scaled HPWL < HPWL"):
            checks.check_overflow(broken)
