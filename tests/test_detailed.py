"""Tests for detailed placement: incremental HPWL, passes, the driver."""

import numpy as np
import pytest

from repro import check_legal, hpwl
from repro.detailed import (
    DetailedPlacer,
    HPWLDelta,
    RowStructure,
    detailed_place,
    global_swap_pass,
    local_reorder_pass,
    row_shift_pass,
)
from repro.legalize import tetris_legalize


@pytest.fixture
def legal_state(small_design):
    nl = small_design.netlist
    legal = tetris_legalize(nl, nl.initial_placement(jitter=2.0))
    return nl, legal


class TestHPWLDelta:
    def test_total_matches_reference(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        from repro.models import weighted_hpwl
        assert state.total_hpwl() == pytest.approx(
            weighted_hpwl(nl, legal), rel=1e-9
        )

    def test_move_delta_matches_recompute(self, legal_state, rng):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        movable = np.flatnonzero(nl.movable & ~nl.is_macro)
        for _ in range(20):
            cell = int(rng.choice(movable))
            nx = float(rng.uniform(5, 30))
            ny = float(rng.uniform(5, 30))
            before = state.total_hpwl()
            delta = state.move_cost_delta([cell], [nx], [ny])
            state.commit_move([cell], [nx], [ny])
            after = state.total_hpwl()
            assert after - before == pytest.approx(delta, abs=1e-6)

    def test_move_delta_does_not_mutate(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        cell = int(np.flatnonzero(nl.movable)[0])
        x0 = state.x[cell]
        state.move_cost_delta([cell], [x0 + 5.0], [state.y[cell]])
        assert state.x[cell] == x0

    def test_two_cell_move(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        a, b = (int(c) for c in np.flatnonzero(nl.movable)[:2])
        before = state.total_hpwl()
        delta = state.move_cost_delta(
            [a, b], [state.x[b], state.x[a]], [state.y[b], state.y[a]]
        )
        state.commit_move(
            [a, b], [state.x[b], state.x[a]], [state.y[b], state.y[a]]
        )
        assert state.total_hpwl() - before == pytest.approx(delta, abs=1e-6)

    def test_optimal_region_median(self):
        """Single cell connected to three fixed pins: the optimal region
        is the median pin interval."""
        from repro import NetlistBuilder, Rect
        from repro.netlist import CoreArea
        core = CoreArea.uniform(Rect(0, 0, 30, 30), row_height=1.0)
        b = NetlistBuilder("m", core=core)
        b.add_cell("m", 1.0, 1.0)
        for i, (x, y) in enumerate([(2.0, 5.0), (10.0, 15.0), (28.0, 25.0)]):
            b.add_cell(f"f{i}", 0.0, 0.0, fixed_at=(x, y))
            b.add_net(f"n{i}", [("m", 0, 0), (f"f{i}", 0, 0)])
        nl = b.build()
        from repro.netlist import Placement
        state = HPWLDelta(nl, Placement(np.array([1.0, 2, 10, 28]),
                                        np.array([1.0, 5, 15, 25])))
        xlo, xhi, ylo, yhi = state.optimal_region(0)
        assert xlo == xhi == pytest.approx(10.0)
        assert ylo == yhi == pytest.approx(15.0)

    def test_nets_of_cells(self, tiny_netlist):
        state = HPWLDelta(tiny_netlist, tiny_netlist.initial_placement())
        c = tiny_netlist.cell_index("c")
        assert set(state.nets_of_cells([c])) == {1, 2}


class TestPasses:
    def test_row_shift_never_increases(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        rows = RowStructure(nl, legal)
        before = state.total_hpwl()
        row_shift_pass(nl, state, rows)
        assert state.total_hpwl() <= before + 1e-6

    def test_local_reorder_never_increases(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        rows = RowStructure(nl, legal)
        before = state.total_hpwl()
        local_reorder_pass(nl, state, rows)
        assert state.total_hpwl() <= before + 1e-6

    def test_global_swap_never_increases(self, legal_state):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        rows = RowStructure(nl, legal)
        before = state.total_hpwl()
        global_swap_pass(nl, state, rows)
        assert state.total_hpwl() <= before + 1e-6

    @pytest.mark.parametrize("pass_fn", [
        row_shift_pass, local_reorder_pass, global_swap_pass,
    ])
    def test_passes_keep_legality(self, legal_state, pass_fn):
        nl, legal = legal_state
        state = HPWLDelta(nl, legal)
        rows = RowStructure(nl, legal)
        pass_fn(nl, state, rows)
        report = check_legal(nl, state.placement())
        assert report.legal, report.summary()


class TestDriver:
    def test_improves_hpwl(self, legal_state):
        nl, legal = legal_state
        dp = DetailedPlacer(nl)
        out = dp.place(legal)
        assert hpwl(nl, out) < hpwl(nl, legal)
        assert dp.last_report.improvement > 0
        assert dp.last_report.rounds >= 1

    def test_output_legal(self, legal_state):
        nl, legal = legal_state
        out = detailed_place(nl, legal)
        assert check_legal(nl, out, check_sites=True).legal

    def test_legalizes_illegal_input(self, small_design, placed_small):
        nl = small_design.netlist
        dp = DetailedPlacer(nl)
        out = dp.place(placed_small.upper)  # overlapping global placement
        assert check_legal(nl, out).legal

    def test_skip_global_swap(self, legal_state):
        nl, legal = legal_state
        dp = DetailedPlacer(nl, skip_global_swap=True, max_rounds=1)
        out = dp.place(legal)
        assert check_legal(nl, out).legal

    def test_round_budget(self, legal_state):
        nl, legal = legal_state
        dp = DetailedPlacer(nl, max_rounds=1, min_improvement=0.0)
        dp.place(legal)
        assert dp.last_report.rounds == 1

    def test_mixed_size_flow(self, mixed_design, placed_mixed):
        nl = mixed_design.netlist
        dp = DetailedPlacer(nl)
        out = dp.place(placed_mixed.upper)
        assert check_legal(nl, out).legal


class TestOffGridMacro:
    """A movable macro whose edge is off the site grid.

    Row 0's free segment left of the macro is 10.5 wide but holds only
    10 whole sites, and five 2-wide cells fill those.  The 2.5-wide cell
    X in row 4 is pulled to row 0's right end; swapping it with that
    row's last cell fits only if the half-site sliver beside the macro
    counts, and then the site snap cannot fit row 0 any more.
    """

    @pytest.fixture
    def design(self):
        from repro import NetlistBuilder, Rect
        from repro.netlist import CellKind, CoreArea, Placement
        core = CoreArea.uniform(Rect(0, 0, 20, 6), row_height=1.0)
        b = NetlistBuilder("offgrid", core=core)
        b.add_cell("m", 4.5, 2.0, kind=CellKind.MACRO)
        for i in range(5):
            b.add_cell(f"a{i}", 2.0, 1.0)
        b.add_cell("x", 2.5, 1.0)
        b.add_cell("p1", 0.0, 0.0, kind=CellKind.TERMINAL,
                   fixed_at=(10.0, 0.5))
        b.add_cell("p2", 0.0, 0.0, kind=CellKind.TERMINAL,
                   fixed_at=(0.0, 4.5))
        b.add_net("nx", [("x", 0, 0), ("p1", 0, 0)])
        b.add_net("na", [("a4", 0, 0), ("p2", 0, 0)])
        nl = b.build()
        x = np.array([12.75, 1, 3, 5, 7, 9, 1.25, 10.0, 0.0])
        y = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 4.5, 0.5, 4.5])
        placement = Placement(x, y)
        assert check_legal(nl, placement).legal
        return nl, placement

    def test_output_legal_on_sites(self, design):
        nl, placement = design
        out = DetailedPlacer(nl).place(placement)
        report = check_legal(nl, out, check_sites=True)
        assert report.legal, report.summary()

    def test_segments_end_on_sites(self, design):
        nl, placement = design
        rows = RowStructure(nl, placement)
        assert [(s.lo, s.hi) for s in rows.rowmap.segments[0]] == [
            (0.0, 10.0), (15.0, 20.0)]
