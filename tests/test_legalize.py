"""Tests for the legalizers: row map, macro cleanup, Tetris, Abacus."""

import numpy as np
import pytest

from repro import NetlistBuilder, Placement, Rect, check_legal
from repro.legalize import (
    RowMap,
    abacus_legalize,
    legalize_macros,
    macro_obstacles,
    tetris_legalize,
)
from repro.netlist import CellKind, CoreArea


def obstacle_netlist():
    core = CoreArea.uniform(Rect(0, 0, 20, 6), row_height=1.0)
    b = NetlistBuilder("o", core=core)
    b.add_cell("obst", 4.0, 2.0, kind=CellKind.MACRO, fixed_at=(10.0, 3.0))
    for i in range(6):
        b.add_cell(f"c{i}", 2.0, 1.0)
    b.add_net("n", [("c0", 0, 0), ("obst", 0, 0)])
    return b.build()


class TestRowMap:
    def test_open_rows_single_segment(self, tiny_netlist):
        rowmap = RowMap(tiny_netlist)
        assert rowmap.num_rows == 20
        assert all(len(segs) == 1 for segs in rowmap.segments)
        assert rowmap.segments[0][0].width == pytest.approx(20.0)

    def test_obstacle_splits_rows(self):
        nl = obstacle_netlist()
        rowmap = RowMap(nl)
        # obstacle spans y [2,4] and x [8,12]: rows 2 and 3 split in two
        for row in (2, 3):
            segs = rowmap.segments[row]
            assert len(segs) == 2
            assert segs[0].hi == pytest.approx(8.0)
            assert segs[1].lo == pytest.approx(12.0)
        assert len(rowmap.segments[0]) == 1

    def test_extra_obstacles(self, tiny_netlist):
        rowmap = RowMap(tiny_netlist,
                        extra_obstacles=[(0.0, 0.0, 20.0, 1.0)])
        assert rowmap.segments[0] == []

    def test_row_index(self, tiny_netlist):
        rowmap = RowMap(tiny_netlist)
        assert rowmap.row_index(0.5) == 0
        assert rowmap.row_index(19.5) == 19
        assert rowmap.row_index(-3.0) == 0
        assert rowmap.row_center_y(4) == pytest.approx(4.5)


class TestMacroLegalization:
    def test_overlapping_macros_separated(self):
        core = CoreArea.uniform(Rect(0, 0, 40, 40), row_height=1.0)
        b = NetlistBuilder("m", core=core)
        b.add_cell("m0", 8.0, 8.0, kind=CellKind.MACRO)
        b.add_cell("m1", 8.0, 8.0, kind=CellKind.MACRO)
        b.add_cell("c", 1.0, 1.0)
        b.add_net("n", [("m0", 0, 0), ("m1", 0, 0), ("c", 0, 0)])
        nl = b.build()
        p = Placement(np.array([20.0, 22.0, 5.0]),
                      np.array([20.0, 21.0, 5.0]))
        out = legalize_macros(nl, p)
        rects = macro_obstacles(nl, out)
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = rects
        overlap = (min(ax1, bx1) - max(ax0, bx0)) > 1e-6 and \
            (min(ay1, by1) - max(ay0, by0)) > 1e-6
        assert not overlap

    def test_macro_avoids_fixed_obstacle(self):
        core = CoreArea.uniform(Rect(0, 0, 40, 40), row_height=1.0)
        b = NetlistBuilder("m", core=core)
        b.add_cell("fix", 10.0, 10.0, kind=CellKind.MACRO,
                   fixed_at=(20.0, 20.0))
        b.add_cell("mov", 8.0, 8.0, kind=CellKind.MACRO)
        b.add_cell("c", 1.0, 1.0)
        b.add_net("n", [("fix", 0, 0), ("mov", 0, 0), ("c", 0, 0)])
        nl = b.build()
        p = Placement(np.array([20.0, 20.0, 5.0]),
                      np.array([20.0, 19.0, 5.0]))
        out = legalize_macros(nl, p)
        mov = nl.cell_index("mov")
        # moved off the fixed macro's footprint
        assert abs(out.x[mov] - 20.0) + abs(out.y[mov] - 20.0) > 8.0 - 1e-6

    def test_snaps_to_row(self):
        core = CoreArea.uniform(Rect(0, 0, 40, 40), row_height=1.0)
        b = NetlistBuilder("m", core=core)
        b.add_cell("m0", 8.0, 8.0, kind=CellKind.MACRO)
        b.add_cell("c", 1.0, 1.0)
        b.add_net("n", [("m0", 0, 0), ("c", 0, 0)])
        nl = b.build()
        p = Placement(np.array([13.0, 5.0]), np.array([13.37, 5.0]))
        out = legalize_macros(nl, p)
        bottom = out.y[0] - 4.0
        assert bottom == pytest.approx(round(bottom))

    def test_noop_without_macros(self, tiny_netlist):
        p = tiny_netlist.initial_placement(jitter=1.0)
        out = legalize_macros(tiny_netlist, p)
        assert np.array_equal(out.x, p.x)


@pytest.mark.parametrize("legalizer", [tetris_legalize, abacus_legalize])
class TestStandardCellLegalizers:
    def test_legalizes_clump(self, small_design, legalizer):
        nl = small_design.netlist
        p = nl.initial_placement(jitter=2.0)
        out = legalizer(nl, p)
        report = check_legal(nl, out)
        assert report.legal, report.summary()

    def test_legalizes_spread_placement(self, placed_small, small_design,
                                        legalizer):
        nl = small_design.netlist
        out = legalizer(nl, placed_small.upper)
        assert check_legal(nl, out).legal

    def test_legal_input_small_displacement(self, small_design, legalizer):
        """Legalizing an already-legal placement barely moves cells."""
        nl = small_design.netlist
        legal = legalizer(nl, nl.initial_placement(jitter=2.0))
        again = legalizer(nl, legal)
        movable = nl.movable
        disp = (np.abs(again.x - legal.x) + np.abs(again.y - legal.y))[movable]
        avg_width = nl.widths[movable].mean()
        assert disp.mean() < 2.0 * avg_width

    def test_respects_obstacles(self, legalizer):
        nl = obstacle_netlist()
        p = Placement(
            np.array([10.0, 9.0, 10.0, 11.0, 9.5, 10.5, 10.0]),
            np.array([3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]),
        )
        out = legalizer(nl, p)
        assert check_legal(nl, out).legal

    def test_mixed_size(self, mixed_design, placed_mixed, legalizer):
        nl = mixed_design.netlist
        out = legalizer(nl, placed_mixed.upper)
        report = check_legal(nl, out)
        assert report.legal, report.summary()


class TestVectorizedMatchesReference:
    """The vectorized candidate searches must reproduce the historical
    nested-loop legalizers placement-for-placement (bitwise)."""

    def _designs(self):
        from repro.workloads import SyntheticSpec, generate

        for seed in (0, 1, 2, 3):
            for macros in (0, 2):
                spec = SyntheticSpec(
                    name=f"leg{seed}m{macros}", num_cells=90, num_pads=8,
                    num_fixed_macros=macros, seed=seed,
                )
                yield generate(spec).netlist, seed

    @pytest.mark.parametrize("snap", [True, False])
    def test_tetris(self, snap):
        from _reference_legalize import _tetris_reference

        for nl, seed in self._designs():
            p = nl.initial_placement(jitter=4.0, seed=seed)
            fast = tetris_legalize(nl, p, snap_sites=snap)
            ref = _tetris_reference(nl, p, snap_sites=snap)
            assert np.array_equal(fast.x, ref.x)
            assert np.array_equal(fast.y, ref.y)

    @pytest.mark.parametrize("snap", [True, False])
    def test_abacus(self, snap):
        from _reference_legalize import _abacus_reference

        for nl, seed in self._designs():
            p = nl.initial_placement(jitter=4.0, seed=seed)
            fast = abacus_legalize(nl, p, snap_sites=snap)
            ref = _abacus_reference(nl, p, snap_sites=snap)
            assert np.array_equal(fast.x, ref.x)
            assert np.array_equal(fast.y, ref.y)
