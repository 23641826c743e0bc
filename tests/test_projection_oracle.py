"""Bit-identity of the level-synchronous projection against its reference.

``_reference_projection`` holds look-ahead legalization as first written:
a recursive bisection one region node at a time, a leaf spread one leaf
at a time, and a rasterizer that adds each rectangle wider than a 2x2
bin window in its own loop iteration.  The array-at-a-time
``project_rectangles`` and ``DensityGrid._rasterize`` must return the
same bytes and the same ``ProjectionStats``, and a whole ``ComPLxPlacer``
run through them must match a run through the reference.  The exact
numpy summation order they rely on (``repro.projection.summation``) is
checked against ``np.sum`` directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _reference_projection import (
    reference_project_rectangles,
    reference_rasterize,
)
from repro import ComPLxConfig, NetlistBuilder, Rect
from repro.core import ComPLxPlacer
from repro.netlist import CellKind, CoreArea
from repro.projection import (
    DensityGrid,
    ProjectionStats,
    find_expansion_regions,
    project_rectangles,
)
from repro.projection import lal, projector
from repro.projection.summation import row_sums
from repro.workloads import SyntheticSpec, generate

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def core_netlist(width: float, height: float,
                 macros: list[tuple[float, float, float, float]] = ()):
    """A netlist that only supplies a core and fixed macros (obstacles)."""
    core = CoreArea.uniform(Rect(0, 0, width, height), row_height=1.0)
    b = NetlistBuilder("oracle", core=core)
    b.add_cell("a", 1.0, 1.0)
    b.add_cell("b", 1.0, 1.0)
    for i, (cx, cy, mw, mh) in enumerate(macros):
        b.add_cell(f"m{i}", mw, mh, kind=CellKind.MACRO, fixed_at=(cx, cy))
    b.add_net("n", [("a", 0.0, 0.0), ("b", 0.0, 0.0)])
    return b.build()


@st.composite
def layouts(draw):
    """A grid (with fixed macros) and rectangles to project on it."""
    width = draw(st.floats(4.0, 80.0))
    height = draw(st.floats(4.0, 80.0))
    nx = draw(st.integers(1, 30))
    ny = draw(st.integers(1, 30))
    num_macros = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, 160))
    mode = draw(st.sampled_from(["uniform", "clumps", "lattice", "offcore"]))
    gamma = draw(st.floats(0.5, 1.0))
    leaf_size = draw(st.integers(1, 5))

    rng = np.random.default_rng(seed)
    macros = [(rng.uniform(0, width), rng.uniform(0, height),
               rng.uniform(0.5, 0.5 * width), rng.uniform(0.5, 0.5 * height))
              for _ in range(num_macros)]
    grid = DensityGrid(core_netlist(width, height, macros), nx, ny)
    if mode == "uniform":
        x = rng.uniform(0, width, n)
        y = rng.uniform(0, height, n)
    elif mode == "clumps":
        centers = rng.uniform(0, 1, (rng.integers(1, 4), 2)) * (width, height)
        pick = rng.integers(0, centers.shape[0], n)
        spread = rng.uniform(0.01, 0.1) * min(width, height)
        x = centers[pick, 0] + rng.normal(0, spread, n)
        y = centers[pick, 1] + rng.normal(0, spread, n)
    elif mode == "lattice":
        # A coarse lattice: many exact ties in both coordinates.
        x = rng.integers(0, 5, n) * (width / 4)
        y = rng.integers(0, 5, n) * (height / 4)
    else:
        x = rng.uniform(-0.5 * width, 1.5 * width, n)
        y = rng.uniform(-0.5 * height, 1.5 * height, n)
    # Zero-area items, ordinary cells and rectangles several bins wide.
    w = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0 * grid.bin_w, 5.5 * grid.bin_w], n,
                   p=[0.1, 0.3, 0.3, 0.2, 0.05, 0.05])
    h = rng.choice([0.0, 1.0, 1.0, 2.5 * grid.bin_h], n, p=[0.1, 0.4, 0.4, 0.1])
    return grid, x, y, w, h, gamma, leaf_size


def assert_same_projection(grid, x, y, w, h, gamma, leaf_size):
    stats = ProjectionStats()
    ref_stats = ProjectionStats()
    px, py = project_rectangles(grid, x, y, w, h, gamma, leaf_size, stats)
    rx, ry = reference_project_rectangles(grid, x, y, w, h, gamma,
                                          leaf_size, ref_stats)
    assert px.tobytes() == rx.tobytes()
    assert py.tobytes() == ry.tobytes()
    assert stats == ref_stats


class TestProjectRectanglesMatchesReference:
    @SETTINGS
    @given(layouts())
    def test_random_layouts(self, layout):
        assert_same_projection(*layout)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 12), (12, 1), (30, 30),
                                       (7, 19)])
    def test_grid_shapes(self, nx, ny):
        rng = np.random.default_rng(nx * 31 + ny)
        grid = DensityGrid(core_netlist(30.0, 20.0), nx, ny)
        x = 15.0 + rng.normal(0, 2.0, 300)
        y = 10.0 + rng.normal(0, 2.0, 300)
        w = rng.choice([1.0, 2.0, 4.0], 300)
        assert_same_projection(grid, x, y, w, np.ones(300), 0.9, 3)

    def test_separate_regions_share_a_batch(self):
        # Two clumps far apart: regions that do not touch are
        # partitioned together.
        grid = DensityGrid(core_netlist(40.0, 40.0), 10, 10)
        x = np.concatenate([np.full(30, 6.0), np.full(30, 34.0)])
        y = np.concatenate([np.full(30, 6.0), np.full(30, 34.0)])
        usage = grid.usage(None, extra=(x, y, np.full(60, 2.0), np.ones(60)))
        regions = find_expansion_regions(grid, usage, 1.0)
        assert len(lal._independent_batches(regions)) == 1 < len(regions)
        assert_same_projection(grid, x, y, np.full(60, 2.0), np.ones(60),
                               1.0, 3)

    def test_touching_regions_run_in_order(self):
        # Regions sharing an edge or corner are partitioned one run after
        # the other: a cell on the shared line belongs to both, and the
        # later region must see where the earlier one moved it.  Clumps
        # with cells snapped onto bin lines make such layouts common.
        rng = np.random.default_rng(2)
        touching = 0
        for _ in range(400):
            nx, ny = (int(v) for v in rng.integers(2, 10, 2))
            grid = DensityGrid(core_netlist(40.0, 40.0), nx, ny)
            n = int(rng.integers(60, 200))
            centers = rng.uniform(0, 40, (int(rng.integers(3, 7)), 2))
            pick = rng.integers(0, centers.shape[0], n)
            x = centers[pick, 0] + rng.normal(0, 1.0, n)
            y = centers[pick, 1] + rng.normal(0, 1.0, n)
            on_x = rng.random(n) < 0.3
            x[on_x] = np.round(x[on_x] / grid.bin_w) * grid.bin_w
            on_y = rng.random(n) < 0.3
            y[on_y] = np.round(y[on_y] / grid.bin_h) * grid.bin_h
            w = rng.choice([1.0, 2.0, 3.0], n)
            h = np.ones(n)
            usage = grid.usage(None, extra=(x, y, w, h))
            regions = find_expansion_regions(grid, usage, 1.0)
            if len(lal._independent_batches(regions)) < 2:
                continue
            assert_same_projection(grid, x, y, w, h, 1.0,
                                   int(rng.integers(1, 5)))
            touching += 1
            if touching == 8:
                break
        assert touching == 8

    @pytest.mark.parametrize("area,n", [(0.7, 9), (0.1, 11), (0.3, 25),
                                        (0.1, 131), (0.1, 143)])
    def test_split_ties_follow_pairwise_totals(self, area, n):
        # n equal cells, half the capacity on each side: the target sits
        # halfway between two prefix areas, so which one is nearest
        # depends on the last bit of the node's total.  Summed left to
        # right instead of in np.sum's pairwise order, it picks the
        # other split for these (area, n).
        grid = DensityGrid(core_netlist(2.0, 1.0), 2, 1)
        x = np.linspace(0.1, 0.9, n)
        assert_same_projection(grid, x, np.full(n, 0.5), np.full(n, area),
                               np.ones(n), 1.0, 3)


class TestRasterizeMatchesReference:
    @SETTINGS
    @given(layouts())
    def test_random_layouts(self, layout):
        grid, x, y, w, h, _, _ = layout
        fast = grid._rasterize(x, y, w, h)
        assert fast.tobytes() == reference_rasterize(grid, x, y, w, h).tobytes()

    def test_overlapping_macros_add_in_cell_order(self):
        grid = DensityGrid(core_netlist(20.0, 20.0), 10, 10)
        x = np.array([7.3, 8.1, 6.9, 10.0])
        y = np.array([7.7, 8.4, 9.1, 10.0])
        w = np.array([9.1, 7.7, 11.3, 0.7]) / 3.0 * 2.0
        h = np.array([8.3, 6.1, 9.9, 0.9]) / 3.0 * 2.0
        fast = grid._rasterize(x, y, w, h)
        assert fast.tobytes() == reference_rasterize(grid, x, y, w, h).tobytes()

    def test_capacity_with_fixed_macros(self):
        nl = core_netlist(30.0, 30.0, [(8.3, 9.1, 7.7, 5.3),
                                       (11.0, 12.0, 6.1, 9.9)])
        grid = DensityGrid(nl, 9, 7)
        fixed = ~nl.movable & (nl.areas > 0)
        obstacle = reference_rasterize(grid, nl.fixed_x[fixed],
                                       nl.fixed_y[fixed], nl.widths[fixed],
                                       nl.heights[fixed])
        expected = np.clip(grid.bin_w * grid.bin_h - obstacle, 0.0, None)
        assert grid.capacity.tobytes() == expected.tobytes()


class TestSummationOrder:
    """The exact ``np.sum`` order the projection's totals depend on."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 700), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    def test_row_sums(self, counts, seed):
        rng = np.random.default_rng(seed)
        counts = np.array(counts, dtype=np.int64)
        rows = np.zeros((counts.shape[0], 8 * (int(counts.max()) // 8 + 1)))
        for i, c in enumerate(counts):
            rows[i, :c] = rng.uniform(0, 5, c) * 0.1
        want = np.array([rows[i, :c].sum() for i, c in enumerate(counts)])
        assert row_sums(rows, counts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 127, 128, 129,
                                   255, 256, 300, 1000, 4097, 9000])
    def test_row_sums_by_length(self, n):
        rows = np.zeros((2, 8 * (n // 8 + 1)))
        rows[1, :n] = np.random.default_rng(n).uniform(0, 3, n) / 3.0
        want = np.array([0.0, rows[1, :n].sum()])
        got = row_sums(rows, np.array([0, n]))
        assert got.tobytes() == want.tobytes()

    def test_capacity_sums_memo(self):
        grid = DensityGrid(core_netlist(30.0, 30.0, [(8.3, 9.1, 7.7, 5.3)]),
                           9, 7)
        regions = np.array([[0, 0, 9, 7], [2, 1, 5, 6], [0, 0, 9, 7]],
                           dtype=np.int64)
        want = np.array([grid.capacity[a:c, b:d].sum()
                         for a, b, c, d in regions])
        for _ in range(2):  # cold, then from the memo
            assert grid.capacity_sums(regions).tobytes() == want.tobytes()
        limit = grid.MEMO_PER_BIN * grid.nx * grid.ny
        every = np.array([[a, b, c, d] for a in range(9) for c in range(a + 1, 10)
                          for b in range(7) for d in range(b + 1, 8)],
                         dtype=np.int64)
        grid.capacity_sums(every)
        assert grid._sum_keys.shape[0] <= limit
        assert grid.capacity_sums(regions).tobytes() == want.tobytes()


def _place(netlist, monkeypatch=None, **overrides):
    """A short placer run; through the reference when given monkeypatch."""
    calls = []
    if monkeypatch is not None:
        def reference(*args, **kwargs):
            calls.append(1)
            return reference_project_rectangles(*args, **kwargs)
        monkeypatch.setattr(projector, "project_rectangles", reference)
        monkeypatch.setattr(DensityGrid, "_rasterize", reference_rasterize)
    config = ComPLxConfig(max_iterations=12, seed=3, **overrides)
    result = ComPLxPlacer(netlist, config).place()
    if monkeypatch is not None:
        monkeypatch.undo()
        assert calls
    return result


class TestPlacerMatchesReference:
    @pytest.mark.parametrize("spec", [
        SyntheticSpec(name="fixed", num_cells=150, num_pads=12,
                      num_fixed_macros=2, macro_rows=(3, 6), seed=4),
        SyntheticSpec(name="movable", num_cells=150, num_pads=12,
                      num_movable_macros=2, macro_rows=(3, 6), seed=5),
    ], ids=["fixed-macros", "movable-macros"])
    @pytest.mark.parametrize("method", ["topdown", "alternating"])
    def test_full_run_byte_identical(self, monkeypatch, spec, method):
        netlist = generate(spec).netlist
        fast = _place(netlist, projection_method=method)
        ref = _place(netlist, monkeypatch, projection_method=method)
        for attr in ("lower", "upper"):
            assert getattr(fast, attr).x.tobytes() == getattr(ref, attr).x.tobytes()
            assert getattr(fast, attr).y.tobytes() == getattr(ref, attr).y.tobytes()
        assert len(fast.history.records) == len(ref.history.records)
        assert (fast.history.records[-1].phi_upper
                == ref.history.records[-1].phi_upper)
