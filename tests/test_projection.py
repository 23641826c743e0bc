"""Tests for the feasibility projection: LAL, shredding, regions, P_C."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import NetlistBuilder, Placement, Rect
from repro.netlist import CellKind, CoreArea, PlacementRegion
from repro.projection import (
    DensityGrid,
    FeasibilityProjection,
    build_shredded_view,
    find_expansion_regions,
    interpolate_macro_positions,
    project_rectangles,
    region_violation_distance,
    shred_coherence,
    shred_counts,
    snap_to_regions,
)
from repro.projection.lal import _touches


def std_netlist(n=40, core_side=20.0):
    core = CoreArea.uniform(Rect(0, 0, core_side, core_side), row_height=1.0)
    b = NetlistBuilder("p", core=core)
    for i in range(n):
        b.add_cell(f"c{i}", 2.0, 1.0)
    b.add_net("n", [("c0", 0, 0), ("c1", 0, 0)])
    return b.build()


class TestExpansionRegions:
    def test_no_overfill_no_regions(self):
        nl = std_netlist(n=8)
        grid = DensityGrid(nl, 4, 4)
        p = Placement(np.linspace(2, 18, 8), np.linspace(2, 18, 8))
        usage = grid.usage(p)
        assert find_expansion_regions(grid, usage, 1.0) == []

    def test_clump_produces_feasible_region(self):
        nl = std_netlist(n=40)
        grid = DensityGrid(nl, 4, 4)
        p = Placement(np.full(40, 3.0), np.full(40, 3.0))
        usage = grid.usage(p)
        regions = find_expansion_regions(grid, usage, 1.0)
        assert len(regions) == 1
        region = regions[0]
        demand = usage[region.ix0:region.ix1, region.iy0:region.iy1].sum()
        cap = grid.capacity[region.ix0:region.ix1,
                            region.iy0:region.iy1].sum()
        assert demand <= cap + 1e-9

    def test_two_separate_clusters(self):
        # 16 cells of area 2 per corner: 32 > 25 bin capacity, so both
        # corners overfill their bins.
        nl = std_netlist(n=32, core_side=40.0)
        grid = DensityGrid(nl, 8, 8)
        x = np.concatenate([np.full(16, 2.5), np.full(16, 37.5)])
        y = np.concatenate([np.full(16, 2.5), np.full(16, 37.5)])
        usage = grid.usage(Placement(x, y))
        regions = find_expansion_regions(grid, usage, 1.0)
        assert len(regions) == 2


class TestProjectRectangles:
    def test_feasible_input_untouched(self):
        nl = std_netlist(n=8)
        grid = DensityGrid(nl, 4, 4)
        x = np.linspace(2, 18, 8)
        y = np.linspace(2, 18, 8)
        px, py = project_rectangles(
            grid, x, y, nl.widths[:8], nl.heights[:8], gamma=1.0
        )
        assert np.allclose(px, x)
        assert np.allclose(py, y)

    def test_clump_becomes_feasible(self):
        nl = std_netlist(n=40)
        grid = DensityGrid(nl, 4, 4)
        x = np.full(40, 10.0) + np.linspace(-0.1, 0.1, 40)
        y = np.full(40, 10.0) + np.linspace(-0.1, 0.1, 40)
        w = np.full(40, 2.0)
        h = np.ones(40)
        px, py = project_rectangles(grid, x, y, w, h, gamma=1.0)
        usage = grid.usage(None, extra=(px, py, w, h))
        assert grid.overflow_percent(usage, 1.0) < 3.0

    def test_order_preserved_along_axes(self):
        """The projection preserves the relative order of clumped cells
        (the property S2's convexity argument rests on)."""
        nl = std_netlist(n=30)
        grid = DensityGrid(nl, 4, 4)
        x = np.linspace(9.0, 11.0, 30)
        y = np.full(30, 10.0)
        rng = np.random.default_rng(0)
        y += rng.uniform(-0.5, 0.5, 30)
        px, py = project_rectangles(
            grid, x, y, np.full(30, 2.0), np.ones(30), gamma=1.0
        )
        # Global x order of the originally-sorted cells stays sorted
        # within each resulting bin column; check the weaker global
        # statement: rank correlation is strongly positive.
        rank_in = np.argsort(np.argsort(x))
        rank_out = np.argsort(np.argsort(px))
        corr = np.corrcoef(rank_in, rank_out)[0, 1]
        assert corr > 0.9


class TestShredding:
    def test_shred_counts(self):
        assert shred_counts(8.0, 4.0, 2.0) == (4, 2)
        assert shred_counts(1.0, 1.0, 2.0) == (1, 1)

    def test_view_composition(self, mixed_netlist):
        p = mixed_netlist.initial_placement()
        view = build_shredded_view(mixed_netlist, p, gamma=1.0)
        n_std = int((mixed_netlist.movable & ~mixed_netlist.is_macro).sum())
        assert (~view.is_shred).sum() == n_std
        # one movable macro 8x8 with 2-row shreds -> 4x4 = 16 shreds
        assert view.is_shred.sum() == 16

    def test_shred_area_scaled_by_gamma(self, mixed_netlist):
        p = mixed_netlist.initial_placement()
        for gamma in (1.0, 0.5):
            view = build_shredded_view(mixed_netlist, p, gamma=gamma)
            shreds = view.is_shred
            total = float((view.w[shreds] * view.h[shreds]).sum())
            macro = mixed_netlist.cell_index("bigm")
            assert total == pytest.approx(
                gamma * mixed_netlist.areas[macro], rel=1e-9
            )

    def test_shreds_tile_macro(self, mixed_netlist):
        p = mixed_netlist.initial_placement()
        view = build_shredded_view(mixed_netlist, p, gamma=1.0)
        shreds = view.is_shred
        macro = mixed_netlist.cell_index("bigm")
        assert np.allclose(view.x[shreds].mean(), p.x[macro])
        assert np.allclose(view.y[shreds].mean(), p.y[macro])
        assert view.x[shreds].max() - view.x[shreds].min() < 8.0

    def test_interpolation_mean_displacement(self, mixed_netlist):
        p = mixed_netlist.initial_placement()
        view = build_shredded_view(mixed_netlist, p, gamma=1.0)
        px = view.x + np.where(view.is_shred, 3.0, 1.0)
        py = view.y.copy()
        out = interpolate_macro_positions(mixed_netlist, p, view, px, py)
        macro = mixed_netlist.cell_index("bigm")
        assert out.x[macro] == pytest.approx(p.x[macro] + 3.0)
        assert out.y[macro] == pytest.approx(p.y[macro])
        # std cells take their projected positions directly
        c0 = mixed_netlist.cell_index("c0")
        assert out.x[c0] == pytest.approx(p.x[c0] + 1.0)

    def test_coherence_zero_for_rigid_motion(self, mixed_netlist):
        p = mixed_netlist.initial_placement()
        view = build_shredded_view(mixed_netlist, p, gamma=1.0)
        out = shred_coherence(view, view.x + 5.0, view.y - 2.0)
        macro = mixed_netlist.cell_index("bigm")
        assert out[macro] == pytest.approx(0.0)

    def test_no_macros_no_shreds(self, tiny_netlist):
        p = tiny_netlist.initial_placement()
        view = build_shredded_view(tiny_netlist, p, gamma=1.0)
        assert not view.is_shred.any()
        assert shred_coherence(view, view.x, view.y) == {}


class TestRegions:
    def _netlist_with_region(self):
        core = CoreArea.uniform(Rect(0, 0, 20, 20), row_height=1.0)
        b = NetlistBuilder("r", core=core)
        b.add_cell("a", 2.0, 1.0)
        b.add_cell("b", 2.0, 1.0)
        b.add_net("n", [("a", 0, 0), ("b", 0, 0)])
        b.add_region("box", Rect(10, 10, 16, 16), ["a"])
        return b.build()

    def test_snap_moves_outside_cell(self):
        nl = self._netlist_with_region()
        p = Placement(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
        out = snap_to_regions(nl, p)
        assert out.x[0] == pytest.approx(11.0)  # 10 + half width
        assert out.y[0] == pytest.approx(10.5)
        # unconstrained cell untouched
        assert out.x[1] == 2.0

    def test_snap_noop_inside(self):
        nl = self._netlist_with_region()
        p = Placement(np.array([12.0, 2.0]), np.array([12.0, 2.0]))
        out = snap_to_regions(nl, p)
        assert out.x[0] == 12.0 and out.y[0] == 12.0

    def test_violation_distance(self):
        nl = self._netlist_with_region()
        p = Placement(np.array([2.0, 2.0]), np.array([10.0, 2.0]))
        # a at (2,10): dx to region = 8, dy = 0
        assert region_violation_distance(nl, p) == pytest.approx(8.0)
        p2 = snap_to_regions(nl, p)
        # snapped center respects the half-width margin, still feasible
        assert region_violation_distance(nl, p2) == pytest.approx(0.0)


class TestFeasibilityProjection:
    def test_invalid_gamma(self, tiny_netlist):
        with pytest.raises(ValueError):
            FeasibilityProjection(tiny_netlist, gamma=0.0)
        with pytest.raises(ValueError):
            FeasibilityProjection(tiny_netlist, inflation=0.5)

    def test_pi_zero_iff_unmoved(self, small_design):
        nl = small_design.netlist
        proj = FeasibilityProjection(nl, gamma=1.0)
        # project a clump twice: second projection moves little
        first = proj(nl.initial_placement(jitter=1.0, seed=0))
        second = proj(first.placement)
        assert second.pi <= 0.2 * first.pi

    def test_result_fields(self, small_design):
        nl = small_design.netlist
        proj = FeasibilityProjection(nl)
        result = proj(nl.initial_placement(jitter=1.0), keep_view=True)
        assert result.per_cell_l1.shape == (nl.num_cells,)
        assert result.pi == pytest.approx(result.per_cell_l1.sum())
        assert (result.per_cell_l1[~nl.movable] == 0.0).all()
        assert result.view is not None
        assert result.projected_view_x is not None

    def test_reduces_overflow(self, small_design):
        nl = small_design.netlist
        proj = FeasibilityProjection(nl, gamma=1.0)
        clump = nl.initial_placement(jitter=1.0)
        grid = proj.grid(proj.default_shape(), proj.default_shape())
        before = grid.overflow_percent(grid.usage(clump), 1.0)
        result = proj(clump)
        assert result.overflow_percent < 0.25 * before

    def test_grid_cache(self, small_design):
        proj = FeasibilityProjection(small_design.netlist)
        a = proj.grid(4, 4)
        b = proj.grid(4, 4)
        assert a is b
        assert proj.grid(8, 8) is not a

    def test_fixed_cells_never_move(self, small_design):
        nl = small_design.netlist
        proj = FeasibilityProjection(nl)
        p = nl.initial_placement(jitter=1.0)
        result = proj(p)
        fixed = ~nl.movable
        assert np.array_equal(result.placement.x[fixed], p.x[fixed])
        assert np.array_equal(result.placement.y[fixed], p.y[fixed])

    def test_macros_projected(self, mixed_design):
        nl = mixed_design.netlist
        proj = FeasibilityProjection(nl, gamma=0.8)
        p = nl.initial_placement(jitter=1.0)
        result = proj(p)
        # movable macros moved (they were clumped at the center)
        macros = np.flatnonzero(nl.movable_macros)
        moved = np.abs(result.placement.x[macros] - p.x[macros]) + \
            np.abs(result.placement.y[macros] - p.y[macros])
        assert (moved > 0).any()


# Fixed example sets (derandomize) and no deadline: the properties below
# must hold exactly, on every run, however slow the runner.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def _core_netlist(core, cells=((1.0, 1.0), (1.0, 1.0))):
    """A netlist over ``core`` holding ``cells`` as movable cells."""
    b = NetlistBuilder("prop", core=core)
    for i, (w, h) in enumerate(cells):
        b.add_cell(f"c{i}", w, h)
    b.add_net("n", [("c0", 0.0, 0.0), ("c1", 0.0, 0.0)])
    return b.build()


class TestPaperProperties:
    """Properties of ``P_C`` the paper's argument rests on, checked exactly."""

    @PROPERTY
    @given(horizontal=st.booleans(), bins=st.integers(1, 24),
           length=st.floats(3.0, 90.0), rows=st.integers(1, 5),
           offset=st.floats(-50.0, 50.0), n=st.integers(1, 150),
           ties=st.booleans(), gamma=st.floats(0.5, 1.0),
           leaf_size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_one_dimensional_grid_preserves_order(
            self, horizontal, bins, length, rows, offset, n, ties, gamma,
            leaf_size, seed):
        """S2: on an n x 1 (or 1 x n) grid every cut runs along one axis,
        so the cells of one expansion region leave in their stable input
        order along it (non-decreasing, ties included)."""
        rng = np.random.default_rng(seed)
        width, height = (length, rows) if horizontal else (rows, length)
        core = CoreArea.uniform(
            Rect(offset, offset, offset + width, offset + height),
            row_height=1.0)
        grid = DensityGrid(_core_netlist(core),
                           *((bins, 1) if horizontal else (1, bins)))
        b = grid.bounds
        lo, span = (b.xlo, b.width) if horizontal else (b.ylo, b.height)
        thickness = b.height if horizontal else b.width
        along = lo + rng.uniform(0.2, 0.8) * span + rng.normal(
            0, rng.uniform(0.02, 0.3) * span, n)
        if ties:
            along = rng.choice(np.round(along, 1), n)
        across = (b.ylo if horizontal else b.xlo) + rng.uniform(
            0, thickness, n)
        size = rng.uniform(0.1, 2.0, n)
        x, y = (along, across) if horizontal else (across, along)
        w, h = ((size, np.full(n, 0.3 * thickness)) if horizontal
                else (np.full(n, 0.3 * thickness), size))
        px, py = project_rectangles(grid, x, y, w, h, gamma, leaf_size)
        moved = px if horizontal else py
        usage = grid.usage(None, extra=(x, y, w, h))
        regions = find_expansion_regions(grid, usage, gamma)
        for region in regions:
            # A region touching another may also receive cells the other
            # moved onto the shared line; the order claim is per region.
            if any(_touches(region, other) for other in regions
                   if other is not region):
                continue
            rect = grid.region_rect(region)
            members = np.flatnonzero((x >= rect.xlo) & (x <= rect.xhi)
                                     & (y >= rect.ylo) & (y <= rect.yhi))
            order = members[np.argsort(along[members], kind="stable")]
            assert np.all(np.diff(moved[order]) >= 0.0)

    @PROPERTY
    @given(nx=st.integers(1, 12), ny=st.integers(1, 12),
           width=st.floats(4.0, 60.0), height=st.floats(4.0, 60.0),
           offset=st.floats(-20.0, 20.0), fill=st.floats(0.0, 0.95),
           gamma=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_feasible_input_is_a_fixed_point(self, nx, ny, width, height,
                                             offset, fill, gamma, seed):
        """Section 4: with no overfilled bin, ``project_rectangles``
        returns its input byte for byte and ``P_C`` reports ``pi == 0``."""
        rng = np.random.default_rng(seed)
        core = CoreArea.uniform(
            Rect(offset, offset, offset + width, offset + height),
            row_height=1.0)
        b = core.bounds
        bin_w, bin_h = b.width / nx, b.height / ny
        # Up to three cells per bin, each inside its bin, together at
        # most ``fill * gamma`` of the bin's area.
        cells, xs, ys = [], [], []
        for ix in range(nx):
            for iy in range(ny):
                k = int(rng.integers(0, 4))
                for _ in range(k):
                    fx, fy = rng.uniform(0.05, 1.0, 2)
                    fy = min(fy, fill * gamma / k / fx)
                    cells.append((fx * bin_w * 0.999, fy * bin_h * 0.999))
                    xs.append(b.xlo + (ix + rng.uniform(0.5 * fx, 1 - 0.5 * fx))
                              * bin_w)
                    ys.append(b.ylo + (iy + rng.uniform(0.5 * fy, 1 - 0.5 * fy))
                              * bin_h)
        assume(len(cells) >= 2)
        netlist = _core_netlist(core, cells)
        grid = DensityGrid(netlist, nx, ny)
        x, y = np.array(xs), np.array(ys)
        w, h = netlist.widths, netlist.heights
        assume(not grid.overfilled_bins(
            grid.usage(None, extra=(x, y, w, h)), gamma).any())

        px, py = project_rectangles(grid, x, y, w, h, gamma)
        assert px.tobytes() == x.tobytes()
        assert py.tobytes() == y.tobytes()
        result = FeasibilityProjection(netlist, gamma=gamma)(
            Placement(x.copy(), y.copy()), nx=nx, ny=ny)
        assert result.pi == 0.0
        assert result.placement.x.tobytes() == x.tobytes()
        assert result.placement.y.tobytes() == y.tobytes()
