"""Incremental HPWL evaluation for detailed placement moves.

Detailed placement tries thousands of candidate moves; recomputing the
full HPWL each time would dominate runtime.  :class:`HPWLDelta` keeps the
per-net costs and recomputes only the nets incident to the cells a move
touches (nets are small, so each evaluation is O(pins-on-cell)).

Every figure is bit-identical to evaluating the same nets with numpy:
the old cost of a move is summed in numpy's pairwise order
(:func:`pairwise_sum`), and min/max and the span arithmetic are the same
IEEE operations whether done on numpy scalars or Python floats.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Netlist, Placement

__all__ = ["HPWLDelta", "pairwise_sum", "placement_cost"]


def pairwise_sum(values: list[float]) -> float:
    """Sum ``values`` exactly as ``np.sum`` sums a contiguous float64 array.

    numpy adds fewer than 8 values left to right, up to 128 with eight
    strided accumulators combined as a tree, and splits longer arrays in
    two halves (rounded down to a multiple of 8), recursively.  The
    result is then added to the reduction's 0.0.
    """
    n = len(values)
    if n < 8:
        res = 0.0
        for v in values:
            res += v
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        m = n - n % 8
        for i in range(8, m, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for i in range(m, n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def _net_spans(netlist: Netlist, x: np.ndarray,
               y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Width and height of every net's pin bounding box."""
    nl = netlist
    px = x[nl.pin_cell] + nl.pin_dx
    py = y[nl.pin_cell] + nl.pin_dy
    starts = nl.net_start[:-1]
    xspan = np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
    yspan = np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
    return xspan, yspan


def placement_cost(netlist: Netlist, placement: Placement) -> float:
    """Weighted HPWL of a placement, equal bit for bit to
    ``HPWLDelta(netlist, placement).total_hpwl()`` without building the
    evaluator's tables."""
    xspan, yspan = _net_spans(netlist, placement.x, placement.y)
    return float(((xspan + yspan) * netlist.net_weights).sum())


class HPWLDelta:
    """Mutable placement wrapper with O(local) HPWL move evaluation.

    ``x``/``y`` are the numpy positions.  A move trial reads only Python
    lists kept in step with them: positions, each cell's sorted incident
    nets, each net's pins, bounding-box height and weighted cost.  At
    these sizes (a few nets of a few pins) list indexing and plain loops
    are an order of magnitude faster than numpy calls.
    """

    def __init__(self, netlist: Netlist, placement: Placement):
        self.netlist = netlist
        self.x = placement.x.copy()
        self.y = placement.y.copy()
        #: ``x``/``y`` as Python lists, kept in step by ``commit_move``
        #: (read these in loops; change positions only through it).
        self.xs: list[float] = self.x.tolist()
        self.ys: list[float] = self.y.tolist()
        self._w: list[float] = netlist.net_weights.tolist()
        xspan, yspan = _net_spans(netlist, self.x, self.y)
        self._yspan: list[float] = yspan.tolist()
        self._cost: list[float] = (
            (xspan + yspan) * netlist.net_weights).tolist()

        starts = netlist.net_start.tolist()
        pins = list(zip(netlist.pin_cell.tolist(), netlist.pin_dx.tolist(),
                        netlist.pin_dy.tolist()))
        #: net -> its pins as (cell, x offset, y offset)
        self._net_pins = [tuple(pins[a:b])
                          for a, b in zip(starts, starts[1:])]
        # cell -> its distinct nets in increasing order, from the sorted
        # distinct (cell, net) pairs.
        n_nets = max(netlist.num_nets, 1)
        pairs = np.unique(netlist.pin_cell.astype(np.int64) * n_nets
                          + netlist.pin_net_ids())
        bounds = np.searchsorted(
            pairs // n_nets, np.arange(netlist.num_cells + 1)).tolist()
        nets = (pairs % n_nets).tolist()
        self._cell_nets = [tuple(nets[a:b])
                           for a, b in zip(bounds, bounds[1:])]

    def placement(self) -> Placement:
        return Placement(self.x.copy(), self.y.copy())

    def total_hpwl(self) -> float:
        return float(np.sum(self._cost))

    def _nets(self, cells: list[int]) -> tuple[int, ...] | list[int]:
        """Distinct nets incident to ``cells``, in increasing order."""
        if len(cells) == 1:
            return self._cell_nets[cells[0]]
        cell_nets = self._cell_nets
        return sorted({e for c in cells for e in cell_nets[c]})

    def nets_of_cells(self, cells: list[int]) -> np.ndarray:
        """Unique nets incident to the given cells."""
        return np.array(self._nets(cells) if cells else (), dtype=np.int64)

    def _box(self, pins) -> tuple[float, float, float, float]:
        """Bounding box (xlo, xhi, ylo, yhi) of ``pins`` at the list
        positions.

        Ties keep the first extreme value, as builtin min/max do; on
        nets of a few pins this loop is several times faster.
        """
        xs = self.xs
        ys = self.ys
        c, dx, dy = pins[0]
        xlo = xhi = xs[c] + dx
        ylo = yhi = ys[c] + dy
        for c, dx, dy in pins:
            v = xs[c] + dx
            if v < xlo:
                xlo = v
            elif v > xhi:
                xhi = v
            v = ys[c] + dy
            if v < ylo:
                ylo = v
            elif v > yhi:
                yhi = v
        return xlo, xhi, ylo, yhi

    def move_cost_delta(
        self,
        cells: list[int],
        new_x: list[float],
        new_y: list[float],
    ) -> float:
        """Weighted HPWL change if the cells moved to the new positions.

        Positive means the move makes things worse.  Does not mutate.
        """
        nets = self._nets(cells)
        cost = self._cost
        before = pairwise_sum([cost[e] for e in nets])
        xs = self.xs
        ys = self.ys
        old_x = [xs[c] for c in cells]
        same_rows = True
        for c, nx, ny in zip(cells, new_x, new_y):
            xs[c] = nx
            if ny != ys[c]:
                same_rows = False
        w = self._w
        after = 0.0
        if same_rows:
            # No pin moves vertically, so every net keeps its height:
            # only the x extent needs recomputing (min/max are exact).
            net_pins = self._net_pins
            yspan = self._yspan
            for e in nets:
                pins = net_pins[e]
                c, dx, _ = pins[0]
                lo = hi = xs[c] + dx
                for c, dx, _ in pins:
                    v = xs[c] + dx
                    if v < lo:
                        lo = v
                    elif v > hi:
                        hi = v
                after += w[e] * ((hi - lo) + yspan[e])
        else:
            old_y = [ys[c] for c in cells]
            for c, ny in zip(cells, new_y):
                ys[c] = ny
            net_pins = self._net_pins
            for e in nets:
                xlo, xhi, ylo, yhi = self._box(net_pins[e])
                after += w[e] * ((xhi - xlo) + (yhi - ylo))
            for c, oy in zip(cells, old_y):
                ys[c] = oy
        for c, ox in zip(cells, old_x):
            xs[c] = ox
        return after - before

    def commit_move(
        self,
        cells: list[int],
        new_x: list[float],
        new_y: list[float],
    ) -> None:
        """Apply a move and refresh the affected net costs."""
        x, y, xs, ys = self.x, self.y, self.xs, self.ys
        for c, nx, ny in zip(cells, new_x, new_y):
            x[c], y[c] = nx, ny
            xs[c], ys[c] = float(x[c]), float(y[c])
        for e in self._nets(cells):
            xlo, xhi, ylo, yhi = self._box(self._net_pins[e])
            self._yspan[e] = yhi - ylo
            self._cost[e] = self._w[e] * ((xhi - xlo) + (yhi - ylo))

    def optimal_region(self, cell: int) -> tuple[float, float, float, float]:
        """The median ("optimal") region of a cell [FastPlace-DP].

        For each incident net, the bounding box of its *other* pins gives
        an interval; the optimal x (y) range is the median interval of
        the stacked interval endpoints.
        """
        xs: list[float] = []
        ys: list[float] = []
        for net in self._cell_nets[cell]:
            others = [p for p in self._net_pins[net] if p[0] != cell]
            if others:
                xlo, xhi, ylo, yhi = self._box(others)
                xs += (xlo, xhi)
                ys += (ylo, yhi)
        if not xs:
            x, y = self.xs[cell], self.ys[cell]
            return (x, x, y, y)
        xs.sort()
        ys.sort()
        mid = len(xs) // 2
        if len(xs) % 2 == 0:
            return (xs[mid - 1], xs[mid], ys[mid - 1], ys[mid])
        return (xs[mid], xs[mid], ys[mid], ys[mid])
